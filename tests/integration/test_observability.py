"""Observability acceptance: a chaos campaign trips the SLO burn alert,
and every alert exemplar resolves to a complete, reconciled flight record.

The campaign mirrors the scheduler soak (multi-user backlog through
Globus Online's fleet scheduler, worker hosts crashing) and adds data
link flaps plus restart-marker corruption, so the flight recorder sees
the full causal menu: submits, claims, lease expiries, recovery faults,
marker events, completions.  Acceptance (ISSUE 6):

* >= 20 faults injected, seeded — deterministic across the seed matrix;
* the queue-wait SLO burn-rate alert trips in every seeded run;
* every ``slo.alert_fired`` exemplar trace id resolves through the
  flight recorder to a complete record;
* flight-record retry/restart tallies reconcile with the ``recovery_*``
  and ``scheduler_*`` metric series;
* two runs from one seed replay bit-for-bit (records, alerts, metrics).

When ``FLIGHT_RECORDER_DIR`` is set the run's JSONL black box is always
dumped there — the chaos-matrix CI job uploads it on failure.

``CHAOS_SEED`` narrows the seed matrix (one seed per CI matrix entry).
"""

import json
import os
from pathlib import Path

import pytest

from repro.globusonline.service import GlobusOnline
from repro.globusonline.transfer import JobStatus
from repro.scheduler import SchedulerConfig
from repro.sim.faults import ChaosConfig
from repro.sim.world import World
from repro.storage.data import SyntheticData
from repro.util.units import MB, gbps
from tests.conftest import make_gcmu_site

SEEDS = [7, 11, 23]
if os.environ.get("CHAOS_SEED"):
    SEEDS = [int(os.environ["CHAOS_SEED"])]

N_USERS = 8
JOBS_PER_USER = 5
FILE_SIZE = 8 * MB
WORKER_HOSTS = ("go-worker-0", "go-worker-1", "go-worker-2", "go-worker-3")
QUEUE_WAIT_SLO_S = 30.0

#: host crashes against the worker fleet + flaps on the data path +
#: marker corruption — every causal event class the recorder ingests
CAMPAIGN = ChaosConfig(
    host_crash_every_s=18.0,
    host_downtime_s=(5.0, 15.0),
    link_flap_every_s=150.0,
    link_flap_duration_s=(2.0, 8.0),
    marker_corruption_prob=0.25,
    horizon_s=2 * 3600.0,
)

_CACHE: dict[int, dict] = {}


def _run_campaign(seed):
    world = World(seed=seed, trace=True)
    net = world.network
    for h in ("dtn-a", "dtn-b", "saas"):
        net.add_host(h, nic_bps=gbps(10))
    inter = net.add_link("dtn-a", "dtn-b", gbps(10), 0.04, loss=1e-5)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)
    recorder, slo = world.enable_observability(
        queue_wait_slo_s=QUEUE_WAIT_SLO_S)
    go = GlobusOnline(world, "saas", scheduler_config=SchedulerConfig(
        workers=len(WORKER_HOSTS), worker_hosts=WORKER_HOSTS,
        lease_s=40.0, heartbeat_s=8.0, max_task_attempts=50))
    ep_a = make_gcmu_site(
        world, "dtn-a", "alcf",
        {f"user{i}": f"pw{i}" for i in range(N_USERS)},
        register_with=go, endpoint_name="alcf#dtn")
    ep_b = make_gcmu_site(world, "dtn-b", "nersc", {"sink": "pwS"},
                          register_with=go, endpoint_name="nersc#dtn")
    world.chaos.configure(CAMPAIGN)
    world.chaos.arm(hosts=list(WORKER_HOSTS), links=[inter.link_id])

    jobs = []
    for u in range(N_USERS):
        username = f"user{u}"
        uid = ep_a.accounts.get(username).uid
        account = go.register_user(f"{username}@globusid")
        go.activate(account, "alcf#dtn", username, f"pw{u}")
        go.activate(account, "nersc#dtn", "sink", "pwS")
        for j in range(JOBS_PER_USER):
            path = f"/home/{username}/f{j}.dat"
            ep_a.storage.write_file(
                path, SyntheticData(seed=1000 * u + j, length=FILE_SIZE), uid=uid)
            jobs.append(go.submit_transfer(
                account, "alcf#dtn", path,
                "nersc#dtn", f"/home/sink/{username}-f{j}.dat", defer=True))
    go.process_queue()

    run = {
        "world": world,
        "go": go,
        "jobs": jobs,
        "recorder": recorder,
        "slo": slo,
        "flight_jsonl": recorder.to_jsonl(),
        "alerts": [ev.to_dict() for ev in world.log.select("slo.alert_fired")],
        "metrics_text": world.metrics.render_prometheus(),
    }
    dump_dir = os.environ.get("FLIGHT_RECORDER_DIR")
    if dump_dir:
        Path(dump_dir).mkdir(parents=True, exist_ok=True)
        recorder.dump(str(Path(dump_dir) / f"flight-seed{seed}.jsonl"))
    return run


def _campaign(seed):
    if seed not in _CACHE:
        _CACHE[seed] = _run_campaign(seed)
    return _CACHE[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_campaign_is_chaotic_and_complete(seed):
    run = _campaign(seed)
    assert run["world"].chaos.fault_count >= 20
    assert all(j.status is JobStatus.SUCCEEDED for j in run["jobs"])
    # every job has a flight record, and every record is terminal
    recorder = run["recorder"]
    assert len(recorder) == N_USERS * JOBS_PER_USER
    for rec in recorder.records():
        assert rec.complete, rec.task_id
        assert rec.trace_id.startswith("trace-")


@pytest.mark.parametrize("seed", SEEDS)
def test_burn_rate_alert_trips_deterministically(seed):
    run = _campaign(seed)
    fired = [a for a in run["alerts"]
             if a["fields"]["slo"] == "queue_wait_p99"]
    assert fired, "queue-wait burn alert did not trip"
    # the alert carries burn rates past every window's threshold
    first = fired[0]["fields"]
    for window, burn in first["burn_rates"].items():
        assert burn >= 3.0, (window, burn)
    assert run["world"].metrics.get("slo_alerts_total").value(
        slo="queue_wait_p99") >= 1


@pytest.mark.parametrize("seed", SEEDS)
def test_alert_exemplars_resolve_to_complete_records(seed):
    run = _campaign(seed)
    recorder = run["recorder"]
    exemplar_alerts = [a for a in run["alerts"]
                       if a["fields"].get("exemplar_trace")]
    assert exemplar_alerts, "no alert carried an exemplar trace"
    for alert in exemplar_alerts:
        rec = recorder.by_trace(alert["fields"]["exemplar_trace"])
        assert rec is not None, alert
        assert rec.complete
    # histogram exemplars resolve the same way
    h = run["world"].metrics.get("scheduler_queue_wait_seconds")
    for ex in h.exemplars().values():
        assert recorder.by_trace(ex.trace_id) is not None


@pytest.mark.parametrize("seed", SEEDS)
def test_flight_records_reconcile_with_metrics(seed):
    run = _campaign(seed)
    world, recorder = run["world"], run["recorder"]
    metrics = world.metrics
    records = list(recorder.records())
    # recovery activity all happens inside bound claim spans, so the
    # per-record tallies must sum to the recovery_* series exactly
    assert sum(r.recovery_faults for r in records) == metrics.get(
        "recovery_faults_total").total()
    assert sum(r.marker_corruptions for r in records) == metrics.get(
        "recovery_marker_corruptions_total").total()
    # scheduler-side restarts: lease-expiry events across records match
    # the requeue/expiry counters, and claim events match claim attempts
    expiries = sum(len(r.events_of("scheduler.lease_expired")) for r in records)
    assert expiries == metrics.get("scheduler_lease_expirations_total").value()
    assert expiries >= 1, "campaign produced no lease expiries"
    claims = sum(len(r.events_of("scheduler.claimed")) for r in records)
    assert claims == sum(r.attempts for r in records)
    assert sum(1 for r in records if r.status == "done") == metrics.get(
        "scheduler_completed_total").value()
    # per-record: recovery.fault events equal the tallied count
    for r in records:
        assert len(r.events_of("recovery.fault")) == r.recovery_faults
        assert r.dropped_events == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_slo_sample_books_balance(seed):
    run = _campaign(seed)
    c = run["world"].metrics.get("slo_events_total")
    claims = run["world"].log.count("scheduler.claimed")
    assert (c.value(slo="queue_wait_p99", outcome="good")
            + c.value(slo="queue_wait_p99", outcome="bad")) == claims
    done = run["world"].log.count("scheduler.task_done")
    assert c.value(slo="transfer_success", outcome="good") == done


def test_replays_bit_for_bit():
    seed = SEEDS[0]
    a = _campaign(seed)
    b = _run_campaign(seed)
    assert a["flight_jsonl"] == b["flight_jsonl"]
    assert a["alerts"] == b["alerts"]
    assert a["metrics_text"] == b["metrics_text"]


def test_black_box_dump_round_trips(tmp_path, monkeypatch):
    monkeypatch.setenv("FLIGHT_RECORDER_DIR", str(tmp_path))
    run = _run_campaign(SEEDS[0])
    dump = tmp_path / f"flight-seed{SEEDS[0]}.jsonl"
    assert dump.exists()
    rows = [json.loads(line) for line in dump.read_text().splitlines()]
    assert len(rows) == N_USERS * JOBS_PER_USER
    assert {row["status"] for row in rows} == {"done"}
    assert rows == [json.loads(line)
                    for line in run["flight_jsonl"].splitlines()]
