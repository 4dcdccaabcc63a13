"""End-to-end observability over a faulted third-party transfer.

The ISSUE acceptance scenario: one injected data-channel fault during a
cross-domain third-party transfer must yield a *single* trace whose
timeline shows control-channel, DCSC, data-channel, and retry spans with
correct parent/child nesting — and the Prometheus exposition must agree
with what actually happened (``retries_total``,
``bytes_transferred_total``).
"""

import pytest

from repro.gridftp.third_party import third_party_with_restart
from repro.gridftp.transfer import TransferOptions
from repro.storage.data import SyntheticData
from repro.util.units import GB


@pytest.fixture
def faulted_transfer(two_domain_world):
    """Run a 20 GB third-party transfer through one injected link fault."""
    d = two_domain_world
    uid = d.site_a.accounts.get("alice").uid
    big = SyntheticData(seed=12, length=20 * GB)
    d.site_a.storage.write_file("/home/alice/big.bin", big, uid=uid)
    client_a = d.site_a.client_for(d.world, "alice", d.laptop)
    client_b = d.site_b.client_for(d.world, "asmith", d.laptop)
    sa = client_a.connect(d.site_a.server)
    sb = client_b.connect(d.site_b.server)
    d.world.faults.cut_link(d.inter_site_link_id, at=d.world.now + 10.0, duration=20.0)
    res, attempts = third_party_with_restart(
        sa, "/home/alice/big.bin", sb, "/home/asmith/big.bin",
        options=TransferOptions(parallelism=8, tcp_window_bytes=16 * 1024 * 1024),
        use_dcsc=client_a.credential,
    )
    return d, big, res, attempts


@pytest.mark.traced
def test_single_trace_with_nested_retry_spans(faulted_transfer):
    d, big, res, attempts = faulted_transfer
    assert attempts == 2
    tracer = d.world.tracer

    # the whole retry loop is one trace
    loops = [s for s in tracer.spans if s.name == "retry_loop"]
    assert len(loops) == 1
    trace = tracer.trace(loops[0].context.trace_id)

    # root: retry_loop; children: one span per attempt
    roots = trace.timeline()
    assert [r.span.name for r in roots] == ["retry_loop"]
    attempts_spans = trace.children_of(loops[0])
    assert [s.name for s in attempts_spans] == ["attempt", "attempt"]
    assert [s.fields["attempt"] for s in attempts_spans] == [1, 2]
    # the faulted attempt is marked errored; the retry succeeded
    assert attempts_spans[0].status == "error"
    assert "TransferFaultError" in attempts_spans[0].error
    assert attempts_spans[1].status == "ok"

    # each attempt nests a third_party span holding control-channel,
    # DCSC, and data-channel children, in that causal order
    for attempt_span, outcome in zip(attempts_spans, ("error", "ok")):
        (tp,) = trace.children_of(attempt_span)
        assert tp.name == "third_party"
        child_names = [s.name for s in trace.children_of(tp)]
        assert child_names == [
            "control_channel", "dcsc", "control_channel", "data_channel",
        ]
        data = trace.find("data_channel")
        assert all(s.context.trace_id == trace.trace_id for s in data)
        (dc,) = [s for s in trace.children_of(tp) if s.name == "data_channel"]
        assert dc.status == outcome

    # individual control commands traced under the control-channel spans
    commands = trace.find("gridftp.command")
    assert commands, "server command dispatch must join the trace"
    control_ids = {s.context.span_id for s in trace.find("control_channel")}
    dcsc_ids = {s.context.span_id for s in trace.find("dcsc")}
    assert all(
        c.context.parent_id in control_ids | dcsc_ids for c in commands
    )

    # virtual-time durations: the data channel dominates the timeline
    (dc_ok,) = [
        s for s in trace.find("data_channel") if s.status == "ok"
    ]
    assert dc_ok.duration_s > 0


@pytest.mark.traced
def test_events_carry_the_trace_id(faulted_transfer):
    d, big, res, attempts = faulted_transfer
    (loop,) = [s for s in d.world.tracer.spans if s.name == "retry_loop"]
    fault_ev = d.world.log.last("gridftp.transfer.fault")
    complete_ev = d.world.log.last("gridftp.transfer.complete")
    assert fault_ev.trace_id == loop.context.trace_id
    assert complete_ev.trace_id == loop.context.trace_id
    assert fault_ev.span_id != complete_ev.span_id


def test_prometheus_exposition_matches_the_transfer(faulted_transfer):
    d, big, res, attempts = faulted_transfer
    metrics = d.world.metrics

    # exactly one retry, counted for the client-side loop
    retries = metrics.counter("retries_total", labelnames=("component",))
    assert retries.value(component="client") == 1

    # both endpoints reported the successful (restarted) transfer: the
    # retry moved only the missing ranges, so nbytes < the full file
    assert res.nbytes < big.size
    reported = metrics.counter(
        "bytes_transferred_total", labelnames=("direction", "mode")
    )
    assert reported.value(direction="store", mode="E") == res.nbytes
    assert reported.value(direction="retrieve", mode="E") == res.nbytes

    # data-channel accounting: fault bytes + completed bytes cover the file
    moved = metrics.counter(
        "data_channel_bytes_total", labelnames=("outcome", "transport")
    )
    fault_bytes = moved.value(outcome="fault", transport="tcp")
    done_bytes = moved.value(outcome="complete", transport="tcp")
    assert fault_bytes > 0
    assert fault_bytes + done_bytes >= big.size

    assert metrics.counter("faults_injected_total", labelnames=("kind",)).value(
        kind="data_channel"
    ) == 1

    # the text exposition carries the same numbers
    text = metrics.render_prometheus()
    assert 'retries_total{component="client"} 1' in text
    assert (
        f'bytes_transferred_total{{direction="store",mode="E"}} {res.nbytes}' in text
    )
    assert 'faults_injected_total{kind="data_channel"} 1' in text
    assert 'transfer_duration_seconds_count 1' in text

    # gauge returned to idle but remembers the transfer was active
    gauge = metrics.gauge("active_data_channels")
    assert gauge.value() == 0
    assert gauge.high_water() >= 1


def test_myproxy_issuance_metric_and_span():
    """A GCMU activation issues certificates under its own span/counter."""
    from repro.sim.world import World
    from repro.util.units import gbps
    from tests.conftest import make_gcmu_site

    world = World(seed=5, trace=True)
    world.network.add_host("gcmu-dtn", nic_bps=gbps(10))
    world.network.add_host("laptop", nic_bps=gbps(1))
    world.network.add_link("gcmu-dtn", "laptop", gbps(1), 0.01)
    endpoint = make_gcmu_site(world, "gcmu-dtn", "TestSite", {"carol": "pw"})
    endpoint.myproxy.logon("carol", "pw")
    counter = world.metrics.counter(
        "myproxy_certs_issued_total", labelnames=("site",)
    )
    assert counter.value(site="TestSite") == 1
    spans = [s for s in world.tracer.spans if s.name == "myproxy.logon"]
    assert len(spans) == 1 and spans[0].status == "ok"
