"""Deterministic random-number streams.

Every stochastic component (key generation, workload synthesis, fleet
growth noise) draws from a named stream derived from the world seed, so
two components never perturb each other's sequences and any run can be
replayed bit-for-bit from its seed.
"""

from __future__ import annotations

import hashlib
import random


class RngFactory:
    """Derives independent, reproducible RNG streams from a master seed."""

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The master seed this factory derives streams from."""
        return self._seed

    def _derive(self, name: str) -> int:
        h = hashlib.sha256(f"{self._seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(h[:8], "big")

    def python(self, name: str) -> random.Random:
        """A stdlib :class:`random.Random` for the named stream."""
        return random.Random(self._derive(name))
