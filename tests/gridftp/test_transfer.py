"""The transfer engine."""

import pytest

from repro.errors import TransferError, TransferFaultError
from repro.gridftp.dcau import DataChannelSecurity, DCAUMode
from repro.gridftp.transfer import (
    SinkSpec,
    SourceSpec,
    TransferEngine,
    TransferOptions,
    estimate_rate_bps,
)
from repro.pki.validation import TrustStore
from repro.sim.world import World
from repro.storage.data import LiteralData, SyntheticData
from repro.storage.posix import PosixStorage
from repro.util.units import GB, MB, gbps
from repro.xio.drivers import Protection


@pytest.fixture
def env():
    world = World(seed=77)
    net = world.network
    net.add_host("src", nic_bps=gbps(10))
    net.add_host("dst", nic_bps=gbps(10))
    net.add_link("src", "dst", gbps(10), 0.025, loss=1e-5)
    src_fs = PosixStorage(world.clock)
    src_fs.makedirs("/data", 0)
    dst_fs = PosixStorage(world.clock)
    dst_fs.makedirs("/data", 0)
    return world, src_fs, dst_fs


def no_auth(name="ep"):
    return DataChannelSecurity(mode=DCAUMode.NONE, credential=None,
                               trust=TrustStore(), endpoint_name=name)


def run(world, src_fs, dst_fs, data, options=None, needed=None,
        src_hosts=("src",), dst_hosts=("dst",), resume=False, path="/data/f"):
    src_fs.write_file(path, data)
    source = SourceSpec(hosts=src_hosts, data=src_fs.open_read(path, 0),
                        security=no_auth("s"), needed=needed)
    sink = dst_fs.open_write(path, 0, data.size, resume=resume)
    sink_spec = SinkSpec(hosts=dst_hosts, sink=sink, security=no_auth("d"))
    engine = TransferEngine(world)
    return engine.execute(source, sink_spec, options or TransferOptions())


def test_literal_round_trip(env):
    world, src_fs, dst_fs = env
    data = LiteralData(bytes(range(256)) * 1000)
    res = run(world, src_fs, dst_fs, data)
    assert res.verified
    assert res.nbytes == data.size
    assert dst_fs.open_read("/data/f", 0).read_all() == data.read_all()


def test_synthetic_round_trip(env):
    world, src_fs, dst_fs = env
    data = SyntheticData(seed=4, length=50 * GB)
    res = run(world, src_fs, dst_fs, data, TransferOptions(parallelism=8, tcp_window_bytes=16 * MB))
    assert res.verified
    assert dst_fs.open_read("/data/f", 0).fingerprint() == data.fingerprint()


def test_clock_advances_by_transfer_time(env):
    world, src_fs, dst_fs = env
    t0 = world.now
    res = run(world, src_fs, dst_fs, SyntheticData(seed=1, length=1 * GB),
              TransferOptions(parallelism=8, tcp_window_bytes=16 * MB))
    assert world.now == pytest.approx(t0 + res.duration_s)
    assert res.duration_s > 0


def test_parallelism_speeds_up_transfer(env):
    world, src_fs, dst_fs = env
    data = SyntheticData(seed=2, length=4 * GB)
    r1 = run(world, src_fs, dst_fs, data, TransferOptions(parallelism=1), path="/data/a")
    r8 = run(world, src_fs, dst_fs, data, TransferOptions(parallelism=8), path="/data/b")
    assert r8.duration_s < r1.duration_s / 4
    assert r8.streams == 8


def test_protection_slows_transfer(env):
    world, src_fs, dst_fs = env
    data = SyntheticData(seed=3, length=4 * GB)
    opts = TransferOptions(parallelism=16, tcp_window_bytes=16 * MB)
    clear = run(world, src_fs, dst_fs, data, opts, path="/data/a")
    private = run(world, src_fs, dst_fs, data,
                  opts.with_(protection=Protection.PRIVATE), path="/data/b")
    assert private.duration_s > clear.duration_s
    assert private.rate_bps <= gbps(0.95)  # cipher-capped
    assert clear.rate_bps > private.rate_bps


def test_udt_transport(env):
    world, src_fs, dst_fs = env
    data = SyntheticData(seed=9, length=1 * GB)
    res = run(world, src_fs, dst_fs, data, TransferOptions(transport="udt"))
    assert res.verified
    assert res.rate_bps > gbps(5)


def test_invalid_options():
    with pytest.raises(TransferError):
        TransferOptions(parallelism=0)
    with pytest.raises(TransferError):
        TransferOptions(transport="carrier-pigeon")
    with pytest.raises(TransferError):
        TransferOptions(concurrency=0)
    with pytest.raises(TransferError):
        TransferOptions(tcp_window_bytes=-5)
    # None and 0 both mean "untuned"
    assert (TransferOptions(tcp_window_bytes=0).build_stack().describe()
            == TransferOptions().build_stack().describe())


def test_restart_needed_ranges_only(env):
    world, src_fs, dst_fs = env
    from repro.util.ranges import ByteRangeSet

    content = bytes(range(256)) * 400  # 102400 bytes
    data = LiteralData(content)
    src_fs.write_file("/data/f", data)
    # first: receive only [0, 60000)
    sink = dst_fs.open_write("/data/f", 0, data.size)
    sink.write_range(0, content[:60000])
    sink.close(complete=False)
    needed = ByteRangeSet([(60000, data.size)])
    res = run(world, src_fs, dst_fs, data, needed=needed, resume=True)
    assert res.nbytes == data.size - 60000
    assert res.verified  # whole-file fingerprint checked after resume
    assert dst_fs.open_read("/data/f", 0).read_all() == content


def test_fault_interrupts_and_persists_partial(env):
    world, src_fs, dst_fs = env
    data = SyntheticData(seed=5, length=10 * GB)
    opts = TransferOptions(parallelism=8, tcp_window_bytes=16 * MB)
    link_id = next(iter(world.network.links))
    # cut the link mid-transfer
    world.faults.cut_link(link_id, at=world.now + 2.0, duration=30.0)
    src_fs.write_file("/data/f", data)
    source = SourceSpec(hosts=("src",), data=src_fs.open_read("/data/f", 0),
                        security=no_auth())
    sink = dst_fs.open_write("/data/f", 0, data.size)
    spec = SinkSpec(hosts=("dst",), sink=sink, security=no_auth())
    with pytest.raises(TransferFaultError) as exc:
        TransferEngine(world).execute(source, spec, opts)
    received = exc.value.received
    assert 0 < received.total_bytes() < data.size
    # the partial is persisted for restart
    partial = dst_fs.partial_for("/data/f", 0)
    assert partial is not None
    assert partial.received.total_bytes() == received.total_bytes()
    # clock stopped at the fault
    assert world.now == pytest.approx(exc.value.at_time)


def test_fault_before_payload_delivers_nothing(env):
    world, src_fs, dst_fs = env
    link_id = next(iter(world.network.links))
    world.faults.cut_link(link_id, at=world.now + 0.01, duration=10.0)
    data = SyntheticData(seed=6, length=1 * GB)
    src_fs.write_file("/data/f", data)
    source = SourceSpec(hosts=("src",), data=src_fs.open_read("/data/f", 0),
                        security=no_auth())
    sink = dst_fs.open_write("/data/f", 0, data.size)
    with pytest.raises(TransferFaultError) as exc:
        TransferEngine(world).execute(
            source, SinkSpec(hosts=("dst",), sink=sink, security=no_auth()),
            TransferOptions(),
        )
    assert exc.value.received.total_bytes() == 0


def test_markers_generated(env):
    world, src_fs, dst_fs = env
    data = SyntheticData(seed=7, length=2 * GB)
    res = run(world, src_fs, dst_fs, data,
              TransferOptions(parallelism=4, marker_interval_s=2.0))
    assert len(res.markers) > 0
    assert all(m.stripe_count == 1 for m in res.markers)


def test_zero_byte_file(env):
    world, src_fs, dst_fs = env
    res = run(world, src_fs, dst_fs, LiteralData(b""))
    assert res.nbytes == 0
    assert res.verified
    assert dst_fs.open_read("/data/f", 0).read_all() == b""


def test_striped_flows_aggregate(env):
    world, src_fs, dst_fs = env
    net = world.network
    for i in range(4):
        net.add_host(f"src{i}", nic_bps=gbps(1))
        net.add_host(f"dst{i}", nic_bps=gbps(1))
        for j in range(4):
            pass
    for i in range(4):
        for j in range(4):
            net.add_link(f"src{i}", f"dst{j}", gbps(1), 0.02)
    data = SyntheticData(seed=8, length=4 * GB)
    opts = TransferOptions(parallelism=4, tcp_window_bytes=16 * MB)
    one = run(world, src_fs, dst_fs, data, opts,
              src_hosts=("src0",), dst_hosts=("dst0",), path="/data/a")
    four = run(world, src_fs, dst_fs, data, opts,
               src_hosts=tuple(f"src{i}" for i in range(4)),
               dst_hosts=tuple(f"dst{i}" for i in range(4)), path="/data/b")
    assert four.stripes == 4
    assert four.rate_bps > 3 * one.rate_bps


def test_estimate_rate(env):
    world, src_fs, dst_fs = env
    est = estimate_rate_bps(world, "src", "dst",
                            TransferOptions(parallelism=8, tcp_window_bytes=16 * MB))
    assert 0 < est <= gbps(10)


def test_empty_hosts_rejected(env):
    world, src_fs, dst_fs = env
    with pytest.raises(TransferError):
        SourceSpec(hosts=(), data=LiteralData(b"x"), security=no_auth())
