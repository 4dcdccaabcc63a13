"""The virtual clock.

All timing in the library — transfer durations, certificate validity,
fault schedules, usage timestamps — reads this clock.  Nothing consults
wall time, which makes every benchmark and test exactly reproducible.
"""

from __future__ import annotations


class Clock:
    """Monotonic virtual clock measured in seconds.

    The epoch is arbitrary; benchmarks that model calendar behaviour (the
    Figure 1 usage series) interpret ``now`` as seconds since their own
    chosen start date.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds and return the new time.

        Negative advances are a programming error: the clock is monotonic.
        So is a NaN step, which would leave the clock reading NaN for good.
        """
        if not dt >= 0:  # written to refuse NaN, which fails every comparison
            raise ValueError(f"clock cannot move backwards (dt={dt})")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Move time forward to absolute time ``t`` (no-op if already past)."""
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Clock(now={self._now:.6f})"
