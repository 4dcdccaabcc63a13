"""The UDT transport model."""

import pytest

from repro.gridftp.transfer import TransferOptions
from repro.net.tcp import TCPModel, tcp_stream_rate
from repro.net.topology import PathStats
from repro.net.udt import UDTModel
from repro.storage.data import SyntheticData
from repro.util.units import GB, gbps
from tests.net.test_tcp import engine_transfer


def make_path(rtt=0.1, bw=gbps(10), loss=0.0):
    return PathStats(
        src="a", dst="b", rtt_s=rtt, bottleneck_bps=bw, loss=loss,
        link_ids=("l1",), hosts=("a", "b"),
    )


def test_rate_is_efficiency_fraction_of_bottleneck():
    m = UDTModel(efficiency=0.9)
    assert m.stream_rate(make_path()) == pytest.approx(0.9 * gbps(10))


def test_rate_insensitive_to_rtt():
    m = UDTModel()
    assert m.stream_rate(make_path(rtt=0.001)) == m.stream_rate(make_path(rtt=0.5))


def test_rate_insensitive_to_small_loss():
    m = UDTModel()
    assert m.stream_rate(make_path(loss=0.005)) == m.stream_rate(make_path(loss=0.0))


def test_rate_degrades_beyond_tolerance():
    m = UDTModel(loss_tolerance=0.01)
    clean = m.stream_rate(make_path(loss=0.0))
    lossy = m.stream_rate(make_path(loss=0.05))
    assert 0 < lossy < clean


def test_udt_beats_single_tcp_on_lossy_lfn():
    """The reason the XIO UDT driver exists (paper refs [8], [9])."""
    path = make_path(rtt=0.2, bw=gbps(10), loss=1e-4)
    udt = UDTModel().stream_rate(path)
    tcp = tcp_stream_rate(path, TCPModel.tuned())
    assert udt > 10 * tcp


def test_transfer_time():
    """A UDT transfer pays its rendezvous handshake, then streams at the
    model's rate with no slow-start ramp."""
    res, path = engine_transfer(SyntheticData(seed=1, length=1 * GB),
                                TransferOptions(transport="udt"))
    model = UDTModel()
    payload = 1 * GB * 8 / model.stream_rate(path)
    assert res.duration_s == pytest.approx(model.handshake_rtts * path.rtt_s + payload)
    # a cached (already set up) data channel pays the payload alone
    warm, _ = engine_transfer(SyntheticData(seed=1, length=1 * GB),
                              TransferOptions(transport="udt"), charge_setup=False)
    assert warm.duration_s == pytest.approx(payload)
