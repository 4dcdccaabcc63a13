"""UDT transport model (the XIO ``udt`` driver).

UDT (Gu & Grossman) is a rate-based, UDP-framed protocol designed for
high-bandwidth-delay-product paths: unlike loss-driven TCP its achievable
rate is largely insensitive to RTT and to low levels of random loss.  The
paper cites UDT as one of the alternative wide-area protocols GridFTP can
target through its extensible I/O (XIO) layer.

We model UDT as achieving a fixed efficiency of the bottleneck bandwidth
for loss below a tolerance threshold, degrading linearly beyond it, with
a slightly longer rendezvous handshake than TCP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.topology import PathStats


@dataclass(frozen=True)
class UDTModel:
    """UDT stack parameters."""

    efficiency: float = 0.90  # fraction of bottleneck achieved in steady state
    loss_tolerance: float = 0.01  # below this, throughput unaffected by loss
    handshake_rtts: float = 2.0

    def stream_rate(self, path: PathStats) -> float:
        """Steady-state rate (bits/s) of one UDT flow on ``path``."""
        base = self.efficiency * path.bottleneck_bps
        if path.loss <= self.loss_tolerance:
            return base
        # Beyond tolerance the rate controller backs off roughly linearly
        # until it gives up entirely at 10x the tolerance.
        overload = (path.loss - self.loss_tolerance) / (9.0 * self.loss_tolerance)
        return max(base * (1.0 - min(overload, 0.99)), 1.0)
