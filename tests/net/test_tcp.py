"""The TCP performance model: the physics behind every throughput claim."""

import math

import pytest

from repro.net.tcp import (
    MATHIS_C,
    TCPModel,
    slow_start_penalty_s,
    tcp_aggregate_rate,
    tcp_stream_rate,
)
from repro.gridftp.dcau import DataChannelSecurity, DCAUMode
from repro.gridftp.transfer import SinkSpec, SourceSpec, TransferEngine, TransferOptions
from repro.net.topology import PathStats
from repro.pki.validation import TrustStore
from repro.sim.world import World
from repro.storage.data import LiteralData, SyntheticData
from repro.storage.posix import PosixStorage
from repro.util.units import GB, KB, MB, gbps


def make_path(rtt=0.1, bw=gbps(10), loss=0.0):
    return PathStats(
        src="a", dst="b", rtt_s=rtt, bottleneck_bps=bw, loss=loss,
        link_ids=("l1",), hosts=("a", "b"),
    )


def test_window_limit_dominates_on_long_fat_pipe():
    # 64 KiB window / 100 ms RTT = ~5.24 Mb/s, far below 10 Gb/s
    path = make_path(rtt=0.1, bw=gbps(10))
    rate = tcp_stream_rate(path, TCPModel.untuned())
    assert rate == pytest.approx(64 * KB * 8 / 0.1)
    assert rate < gbps(10) / 100


def test_zero_rtt_gives_bottleneck():
    path = make_path(rtt=0.0, bw=gbps(10))
    assert tcp_stream_rate(path, TCPModel.untuned()) == gbps(10)


def test_mathis_limit_with_loss():
    path = make_path(rtt=0.1, bw=gbps(100), loss=1e-4)
    model = TCPModel.tuned(1 * GB)  # window not the constraint
    expected = 1460 * 8 * MATHIS_C / (0.1 * math.sqrt(1e-4))
    assert tcp_stream_rate(path, model) == pytest.approx(expected)


def test_parallel_streams_scale_until_bottleneck():
    path = make_path(rtt=0.1, bw=gbps(1), loss=0.0)
    model = TCPModel.untuned()
    one = tcp_aggregate_rate(path, 1, model)
    eight = tcp_aggregate_rate(path, 8, model)
    assert eight == pytest.approx(8 * one)
    # enough streams saturate the bottleneck and stop scaling
    many = tcp_aggregate_rate(path, 10_000, model)
    assert many == gbps(1)


def test_parallel_streams_requires_positive():
    path = make_path()
    with pytest.raises(ValueError):
        tcp_aggregate_rate(path, 0, TCPModel.untuned())


def test_bigger_window_never_slower():
    path = make_path(rtt=0.05, bw=gbps(10), loss=1e-5)
    small = tcp_stream_rate(path, TCPModel().with_window(64 * KB))
    big = tcp_stream_rate(path, TCPModel().with_window(16 * MB))
    assert big >= small


def test_more_loss_never_faster():
    model = TCPModel.tuned()
    r_low = tcp_stream_rate(make_path(loss=1e-6), model)
    r_high = tcp_stream_rate(make_path(loss=1e-3), model)
    assert r_high <= r_low


def test_slow_start_penalty_grows_with_bdp():
    model = TCPModel.tuned()
    short = slow_start_penalty_s(make_path(rtt=0.01), gbps(1), model)
    long = slow_start_penalty_s(make_path(rtt=0.2), gbps(1), model)
    assert long > short


def test_slow_start_penalty_zero_for_tiny_rates():
    model = TCPModel()
    # steady window below the initial cwnd: no ramp needed
    assert slow_start_penalty_s(make_path(rtt=0.1), 1e5, model) == 0.0


def engine_transfer(data, options, charge_setup=True):
    """One transfer of ``data`` over a lossless 1 Gb/s, 100 ms RTT link."""
    world = World(seed=5)
    net = world.network
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", gbps(1), 0.05)
    fs = PosixStorage(world.clock)
    fs.write_file("/f", data)
    none = DataChannelSecurity(mode=DCAUMode.NONE, credential=None, trust=TrustStore())
    source = SourceSpec(hosts=("a",), data=fs.open_read("/f", 0), security=none)
    sink = SinkSpec(hosts=("b",), sink=fs.open_write("/g", 0, data.size), security=none)
    result = TransferEngine(world).execute(source, sink, options, charge_setup=charge_setup)
    return result, net.path("a", "b")


def test_transfer_time_components():
    opts = TransferOptions(parallelism=4, tcp_window_bytes=16 * MB)
    model = TCPModel.tuned(16 * MB)
    data = SyntheticData(seed=1, length=1 * GB)
    res, path = engine_transfer(data, opts)
    rate = tcp_aggregate_rate(path, 4, model)
    payload = 1 * GB * 8 / rate
    handshake = model.handshake_rtts * path.rtt_s
    ramp = slow_start_penalty_s(path, rate / 4, model)
    assert ramp > 0
    assert res.duration_s == pytest.approx(payload + handshake + ramp)
    # a cached (already set up) data channel pays the payload alone
    warm, _ = engine_transfer(data, opts, charge_setup=False)
    assert warm.duration_s == pytest.approx(payload)


def test_transfer_time_zero_bytes():
    res, path = engine_transfer(LiteralData(b""), TransferOptions())
    model = TCPModel()
    ramp = slow_start_penalty_s(path, tcp_stream_rate(path, model), model)
    assert res.nbytes == 0
    assert res.duration_s == pytest.approx(model.handshake_rtts * path.rtt_s + ramp)


def test_untuned_vs_tuned_headline():
    """The claim that motivates GridFTP: tuned+parallel beats naive 100x+."""
    path = make_path(rtt=0.1, bw=gbps(10), loss=1e-5)
    naive = tcp_aggregate_rate(path, 1, TCPModel.untuned())
    gridftp_like = tcp_aggregate_rate(path, 16, TCPModel.tuned(16 * MB))
    assert gridftp_like / naive > 100
