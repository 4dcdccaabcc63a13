"""Property tests for bandwidth sharing among concurrent flows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridftp.transfer import TransferOptions, estimate_rate_bps
from repro.sim.world import World
from repro.storage.data import SyntheticData
from repro.util.units import GB, KB, MB, gbps
from tests.conftest import make_conventional_site
from tests.net.test_flows import steady_rate

_bw = st.floats(1e6, 1e11, allow_nan=False)
_window = st.integers(16 * KB, 1 * GB)
_streams = st.integers(1, 16)
_k = st.integers(1, 64)
_lanes = st.integers(1, 16)
_sizes = st.lists(st.integers(1, 10**8), min_size=1, max_size=12)

#: the batch link: one untuned 64 KiB stream over its 20 ms RTT runs at
#: ~26 Mb/s, so up to 38 such files share it without touching the cap
_LINK_BPS = gbps(1)


def _batch(sizes):
    """alice's session over the batch link, and her files of ``sizes``."""
    world = World(seed=11)
    net = world.network
    net.add_host("server1", nic_bps=_LINK_BPS)
    net.add_host("laptop", nic_bps=_LINK_BPS)
    net.add_link("server1", "laptop", _LINK_BPS, 0.01)
    site = make_conventional_site(world, "Lab", "server1")
    site.add_user(world, "alice")
    uid = site.accounts.get("alice").uid
    paths = []
    for i, size in enumerate(sizes):
        remote = f"/home/alice/p{i}.dat"
        site.storage.write_file(remote, SyntheticData(seed=i, length=size), uid=uid)
        paths.append((remote, f"/tmp/p{i}.dat"))
    session = site.client_for(world, "alice", "laptop").connect(site.server)
    return world, session, paths


def _makespan(world, session, paths, options):
    session.apply_options(options)
    t0 = world.now
    session.get_many(paths, options)
    return world.now - t0


@given(_bw, _window, _streams, _k)
@settings(max_examples=100)
def test_fair_share_bounded(bottleneck, window, streams, k):
    opts = TransferOptions(parallelism=streams, tcp_window_bytes=window)
    alone = steady_rate(bottleneck, opts)
    share = steady_rate(bottleneck, opts.with_(concurrency=k))
    assert 0 < share <= alone
    assert share <= bottleneck / k * (1 + 1e-9)


@given(_bw, _window, _streams, _k)
@settings(max_examples=100)
def test_aggregate_never_exceeds_bottleneck(bottleneck, window, streams, k):
    opts = TransferOptions(parallelism=streams, tcp_window_bytes=window, concurrency=k)
    # relative tolerance: share*k can exceed the bottleneck by float ulps
    assert steady_rate(bottleneck, opts) * k <= bottleneck * (1 + 1e-9)


@given(_sizes, _lanes)
@settings(max_examples=100)
def test_more_concurrency_never_slower_when_flow_limited(sizes, k):
    """Monotonicity holds while every file keeps its own rate.  (Once the
    bottleneck binds, fair-share division can make an uneven last wave
    slower — a real effect, not a bug.)"""
    world, session, paths = _batch(sizes)
    opts = TransferOptions(pipelining=True)
    t_k = _makespan(world, session, paths, opts.with_(concurrency=k))
    t_k1 = _makespan(world, session, paths, opts.with_(concurrency=k + 1))
    assert t_k1 <= t_k * 1.000001


@given(_sizes, _lanes, st.integers(16 * KB, 64 * MB))
@settings(max_examples=100)
def test_batch_time_at_least_ideal(sizes, k, window):
    """No schedule can beat total bits over the batch's aggregate rate."""
    world, session, paths = _batch(sizes)
    opts = TransferOptions(pipelining=True, tcp_window_bytes=window, concurrency=k)
    t = _makespan(world, session, paths, opts)
    per_file = estimate_rate_bps(world, "server1", "laptop", opts)
    aggregate = min(min(k, len(sizes)) * per_file, _LINK_BPS)
    assert t >= sum(sizes) * 8.0 / aggregate * 0.999


@given(_sizes, _lanes, st.integers(16 * KB, 64 * MB))
@settings(max_examples=60)
def test_overhead_only_adds_time(sizes, k, window):
    world, session, paths = _batch(sizes)
    opts = TransferOptions(tcp_window_bytes=window, concurrency=k)
    free = _makespan(world, session, paths, opts.with_(pipelining=True))
    taxed = _makespan(world, session, paths, opts.with_(pipelining=False))
    # one RETR round trip per file instead of one for the whole batch;
    # abs: the two makespans are clock deltas, equal only to float ulps
    rtts = (len(paths) - 1) * session.channel.rtt_s
    assert taxed - free == pytest.approx(rtts, abs=1e-9)
