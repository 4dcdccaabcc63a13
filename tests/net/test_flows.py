"""Bandwidth sharing among concurrent flows.

With ``concurrency`` k, the transfer engine gives each file the lesser
of its own rate and a 1/k share of the bottleneck.  ``get_many`` runs a
batch as k lanes, each file going to the lane that frees up first;
without pipelining every file also pays one command round trip.
"""

import pytest

from repro.errors import TransferError
from repro.gridftp.dcau import DataChannelSecurity, DCAUMode
from repro.gridftp.transfer import SinkSpec, SourceSpec, TransferEngine, TransferOptions
from repro.pki.validation import TrustStore
from repro.sim.world import World
from repro.storage.data import SyntheticData
from repro.storage.posix import PosixStorage
from repro.util.units import MB, gbps, mbps

RTT_S = 0.05


def steady_rate(bottleneck_bps, options, rtt_s=RTT_S):
    """One file's payload rate on a warm data channel over one lossless link."""
    world = World(seed=9)
    net = world.network
    net.add_host("a", nic_bps=bottleneck_bps)
    net.add_host("b", nic_bps=bottleneck_bps)
    net.add_link("a", "b", bottleneck_bps, rtt_s / 2)
    fs = PosixStorage(world.clock)
    fs.write_file("/f", SyntheticData(seed=1, length=64 * MB))
    none = DataChannelSecurity(mode=DCAUMode.NONE, credential=None, trust=TrustStore())
    source = SourceSpec(hosts=("a",), data=fs.open_read("/f", 0), security=none)
    sink = SinkSpec(hosts=("b",), sink=fs.open_write("/g", 0, 64 * MB), security=none)
    return TransferEngine(world).execute(source, sink, options, charge_setup=False).rate_bps


def window_for(rate_bps, rtt_s=RTT_S):
    """The TCP window that holds one stream to ``rate_bps``."""
    return round(rate_bps * rtt_s / 8)


@pytest.fixture
def batch(simple_pair):
    """alice's session on a 1 Gb/s link, and a writer of remote files."""
    world, site, laptop = simple_pair
    uid = site.accounts.get("alice").uid
    session = site.client_for(world, "alice", laptop).connect(site.server)

    def files(n, size):
        paths = []
        for i in range(n):
            remote = f"/home/alice/b{i}.dat"
            site.storage.write_file(remote, SyntheticData(seed=i, length=size), uid=uid)
            paths.append((remote, f"/tmp/b{i}.dat"))
        return paths

    return world, session, files


def elapsed(world, session, paths, options):
    """Virtual seconds one get_many takes, its options already applied."""
    session.apply_options(options)
    t0 = world.now
    results = session.get_many(paths, options)
    return world.now - t0, results


def test_fair_share_bottleneck_bound():
    opts = TransferOptions(parallelism=4, tcp_window_bytes=16 * MB)
    assert steady_rate(gbps(1), opts) == pytest.approx(gbps(1))
    shared = steady_rate(gbps(1), opts.with_(concurrency=4))
    assert shared == pytest.approx(gbps(1) / 4)


def test_fair_share_flow_limit_bound():
    # flows too weak to saturate the bottleneck keep their own limit
    opts = TransferOptions(tcp_window_bytes=window_for(mbps(50)), concurrency=4)
    assert steady_rate(gbps(10), opts) == pytest.approx(mbps(50))


def test_fair_share_requires_positive_k():
    for k in (0, -1):
        with pytest.raises(TransferError, match="concurrency"):
            TransferOptions(concurrency=k)


def test_aggregate_rate_caps_at_bottleneck():
    # four 800 Mb/s files would carry 3.2 Gb/s; the link holds them to 1
    opts = TransferOptions(tcp_window_bytes=window_for(mbps(800)))
    assert steady_rate(gbps(1), opts) == pytest.approx(mbps(800))
    shared = steady_rate(gbps(1), opts.with_(concurrency=4))
    assert 4 * shared == pytest.approx(gbps(1))


def test_batch_time_concurrency_helps_weak_flows(batch):
    world, session, files = batch
    paths = files(16, 100 * MB)
    opts = TransferOptions(pipelining=True)
    serial, _ = elapsed(world, session, paths, opts)
    concurrent, _ = elapsed(world, session, paths, opts.with_(concurrency=8))
    assert concurrent < serial / 4


def test_batch_time_concurrency_no_gain_when_saturated(batch):
    world, session, files = batch
    paths = files(8, 100 * MB)
    tuned = TransferOptions(pipelining=True, parallelism=8, tcp_window_bytes=16 * MB)
    one, _ = elapsed(world, session, paths, tuned)
    many, _ = elapsed(world, session, paths, tuned.with_(concurrency=8))
    assert many == pytest.approx(one, rel=0.01)


def test_batch_time_includes_per_item_overhead(batch):
    world, session, files = batch
    paths = files(10, 1 * MB)
    cheap, _ = elapsed(world, session, paths, TransferOptions(pipelining=True))
    costly, _ = elapsed(world, session, paths, TransferOptions(pipelining=False))
    # one round trip per RETR instead of one for the whole batch
    assert costly == pytest.approx(cheap + 9 * session.channel.rtt_s)


def test_batch_time_empty(batch):
    world, session, files = batch
    t, results = elapsed(world, session, [], TransferOptions(pipelining=True, concurrency=4))
    assert results == []
    assert t == 0.0


def test_batch_time_invalid_concurrency():
    # a sweep cannot step a batch down to zero lanes
    with pytest.raises(TransferError, match="concurrency"):
        TransferOptions(pipelining=True, concurrency=4).with_(concurrency=0)


def test_serial_batch_time(batch):
    world, session, files = batch
    paths = files(2, 1 * MB)
    t, results = elapsed(world, session, paths, TransferOptions())
    channel = session.channel
    round_trips = len(paths) * (channel.rtt_s + channel.proc_time_s)
    assert t == pytest.approx(sum(r.duration_s for r in results) + round_trips)
