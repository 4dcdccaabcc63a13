"""The two telemetry levels: ``World(trace=False)`` and ``World(trace=True)``.

One small chaotic Globus Online scenario (coalesced and streamed jobs,
worker crashes and link flaps, a subscribed Figure 1 usage collector)
runs at both levels.  Telemetry only observes, so both levels must reach
the same virtual outcome, op tallies, usage aggregates and metrics; the
untraced world must keep nothing and refuse every read of what it did
not keep.
"""

import re

import pytest

from repro.errors import TelemetryNotRecordedError
from repro.globusonline.service import GlobusOnline
from repro.globusonline.transfer import JobStatus
from repro.metrics.usage import UsageCollector
from repro.scheduler import SchedulerConfig, scheduler_fingerprint
from repro.sim.faults import ChaosConfig
from repro.sim.world import World
from repro.storage.data import SyntheticData
from repro.telemetry.trace import _SpanHandle
from repro.util import opcount
from repro.util.units import KB, MB, gbps
from tests.conftest import make_gcmu_site

SEED = 11
N_USERS = 3
WORKER_HOSTS = ("go-worker-0", "go-worker-1", "go-worker-2")
CAMPAIGN = ChaosConfig(
    host_crash_every_s=18.0,
    host_downtime_s=(5.0, 15.0),
    link_flap_every_s=150.0,
    link_flap_duration_s=(2.0, 8.0),
    horizon_s=2 * 3600.0,
)
#: exemplar suffix on a histogram bucket line (trace ids exist only when traced)
EXEMPLAR = re.compile(r" # \{trace_id=\"[^\"]*\"\} \S+$", re.M)


def _run(trace: bool) -> dict:
    world = World(seed=SEED, trace=trace)
    net = world.network
    for h in ("dtn-a", "dtn-b", "saas"):
        net.add_host(h, nic_bps=gbps(10))
    inter = net.add_link("dtn-a", "dtn-b", gbps(10), 0.04, loss=1e-5)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)
    usage = UsageCollector()
    usage.subscribe_to(world.log)
    seen = []
    world.log.subscribe(seen.append)
    go = GlobusOnline(world, "saas", scheduler_config=SchedulerConfig(
        workers=len(WORKER_HOSTS), worker_hosts=WORKER_HOSTS,
        lease_s=40.0, heartbeat_s=8.0, max_task_attempts=50))
    ep_a = make_gcmu_site(world, "dtn-a", "alcf",
                          {f"user{i}": f"pw{i}" for i in range(N_USERS)},
                          register_with=go, endpoint_name="alcf#dtn")
    ep_b = make_gcmu_site(world, "dtn-b", "nersc", {"sink": "pwS"},
                          register_with=go, endpoint_name="nersc#dtn")
    world.chaos.configure(CAMPAIGN)
    world.chaos.arm(hosts=list(WORKER_HOSTS), links=[inter.link_id])

    before = opcount.snapshot()
    jobs = []
    for u in range(N_USERS):
        username = f"user{u}"
        uid = ep_a.accounts.get(username).uid
        account = go.register_user(f"{username}@globusid")
        go.activate(account, "alcf#dtn", username, f"pw{u}")
        go.activate(account, "nersc#dtn", "sink", "pwS")
        for j in range(4):
            size = 8 * MB if j == 3 else 256 * KB  # three coalesce, one streams
            path = f"/home/{username}/f{j}.dat"
            ep_a.storage.write_file(path, SyntheticData(seed=100 * u + j, length=size), uid=uid)
            jobs.append(go.submit_transfer(account, "alcf#dtn", path, "nersc#dtn",
                                           f"/home/sink/{username}-f{j}.dat", defer=True))
    go.process_queue()
    sink = ep_b.accounts.get("sink").uid
    return {
        "world": world,
        "seen": seen,
        "outcome": {
            "fingerprint": scheduler_fingerprint(world, go.scheduler),
            "jobs": [(j.job_id, j.status, j.completed_at) for j in jobs],
            "files": [ep_b.storage.open_read(j.dst_path, sink).fingerprint() for j in jobs],
        },
        "ops": opcount.since(before),
        "usage": (usage.series(), usage.total_records),
        "metrics": world.metrics.render_prometheus(),
    }


@pytest.fixture(scope="module")
def runs():
    # the keygen and parse memos are process-global: a first run warms
    # them, so both compared runs start from the same memo state
    _run(trace=False)
    return {trace: _run(trace) for trace in (False, True)}


def _untraced(ev):
    """An event without the trace stamps only a traced world can give it."""
    fields = {k: v for k, v in ev.fields.items() if k != "trace"}
    return ev.time, ev.category, ev.message, fields


def test_levels_reach_the_same_outcome(runs):
    off, on = runs[False], runs[True]
    assert off["outcome"] == on["outcome"]
    assert all(j[1] is JobStatus.SUCCEEDED for j in on["outcome"]["jobs"])
    fp = on["outcome"]["fingerprint"]
    assert fp["batches"] > 0 and fp["crashes"] > 0
    assert off["ops"] == on["ops"]
    assert off["usage"] == on["usage"]
    assert on["usage"][1] > 0
    # exemplars carry trace ids, which only a traced world mints
    assert EXEMPLAR.search(on["metrics"])
    assert not EXEMPLAR.search(off["metrics"])
    assert EXEMPLAR.sub("", off["metrics"]) == EXEMPLAR.sub("", on["metrics"])


def test_subscribers_see_every_event_at_either_level(runs):
    off, on = runs[False], runs[True]
    assert on["seen"] == list(on["world"].log)
    assert [_untraced(ev) for ev in off["seen"]] == [_untraced(ev) for ev in on["seen"]]
    assert all(ev.trace_id is None and ev.span_id is None for ev in off["seen"])


def test_untraced_world_keeps_nothing(runs):
    world = runs[False]["world"]
    assert not world.trace
    assert len(world.log._events) == 0
    assert world.tracer._spans == [] and world.tracer._stack == []
    assert world.tracer.current is None


def test_untraced_emit_builds_events_only_for_subscribers():
    world = World(seed=SEED)
    assert world.emit("probe", "nobody listening") is None
    seen = []
    world.log.subscribe(seen.append)
    ev = world.emit("probe", "heard", k=1)
    assert seen == [ev] and ev.fields == {"k": 1} and ev.trace_id is None

    def broken(event):
        raise RuntimeError("subscriber bug")

    world.log.subscribe(broken)
    world.emit("probe", "heard again")
    assert len(seen) == 2 and world.log.subscriber_errors == 1
    assert len(world.log._events) == 0


def test_untraced_spans_share_one_handle_that_keeps_nothing():
    world = World(seed=SEED)
    first, second = world.tracer.span("a", k=1), world.span("b")
    assert first is second and isinstance(first, _SpanHandle)
    with first as span:
        span.fields.update(nbytes=1)
        span.fields["rate"] = 2
        assert world.tracer.current is None
    assert span.fields == {} and span.context.trace_id == ""
    with pytest.raises(ValueError):
        with world.span("failing"):
            raise ValueError("propagates")
    assert span.status == "ok"


@pytest.mark.parametrize("read", [
    lambda w: w.log.select("gridftp"),
    lambda w: w.log.count("gridftp"),
    lambda w: w.log.last(),
    lambda w: list(w.log),
    lambda w: len(w.log),
    lambda w: w.log.to_jsonl(),
    lambda w: w.tracer.spans,
    lambda w: w.tracer.trace("trace-0001"),
    lambda w: w.tracer.traces(),
    lambda w: w.tracer.last_trace(),
    lambda w: w.tracer.trace_ids(),
], ids=["select", "count", "last", "iter", "len", "to_jsonl",
        "spans", "trace", "traces", "last_trace", "trace_ids"])
def test_reading_unrecorded_telemetry_raises(runs, read):
    with pytest.raises(TelemetryNotRecordedError, match=r"trace=True"):
        read(runs[False]["world"])
    read(runs[True]["world"])  # the same read answers on a traced world


def test_flight_recording_needs_trace():
    with pytest.raises(TelemetryNotRecordedError, match=r"trace=True"):
        World(seed=SEED).enable_observability()
    world = World(seed=SEED, trace=True)
    assert world.enable_observability() == (world.flight_recorder, world.slo)
