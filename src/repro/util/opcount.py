"""Deterministic crypto/protocol operation tallies.

Wall-clock benchmarks are machine-dependent; the *number* of RSA
exponentiations, chain walks, and GSI handshakes a scenario performs is
not — every stream in the simulation is seeded, so the same (seed,
scenario) pair executes the identical operation sequence on any machine
or Python version.  The session-layer caches (the control-channel
pool, DCAU caching, the keygen and parse memos) exist precisely to
shrink these counts, and ``bench_scheduler_fleet --crypto-ops`` gates
them in CI: counts above the committed baseline mean a cache stopped
hitting.

Counters are process-global, like the memo layers they observe.  Bump
sites pay one ``Counter.__iadd__`` — noise next to a 512-bit ``pow``.
"""

from __future__ import annotations

from collections import Counter

#: operation name -> count since process start (or last ``reset``)
OPS: Counter[str] = Counter()


def bump(name: str, n: int = 1) -> None:
    """Record ``n`` occurrences of operation ``name``."""
    OPS[name] += n


def snapshot() -> dict[str, int]:
    """A point-in-time copy of every tally."""
    return dict(OPS)


def since(before: dict[str, int]) -> dict[str, int]:
    """Tallies accumulated after ``before`` (a prior :func:`snapshot`)."""
    return {
        name: OPS[name] - before.get(name, 0)
        for name in sorted(set(OPS) | set(before))
        if OPS[name] - before.get(name, 0)
    }


def reset() -> None:
    """Forget every tally (tests and benchmark setup)."""
    OPS.clear()
