"""The session layer's one memo type and its one off switch.

Every keyed memo in the session layer (key generation, the credential
PEM round trip, certificate DER parsing, DCAU successes, and each
GridFTP server's DCSC blob parses) is a :class:`Memo`: a bounded LRU
map that counts its hits, misses and evictions.  Memos are wall-clock
only: a hit must return exactly what the full computation would, so
switching them off changes how fast the simulator reaches an outcome,
never the outcome.

``REPRO_NO_SESSION_CACHE`` (any non-empty value) switches every memo
off, and the control-channel pool with them.  :func:`read_switch` is the
one place that reads it: at import, and again whenever a
:class:`~repro.sim.world.World` is built, so the variable takes effect
for the next world.  :func:`enabled` returns the flag that read stored;
the warm path asks it several times per job, and an environment lookup
of a missing key costs two raised ``KeyError`` each time.
"""

from __future__ import annotations

import os
import weakref
from typing import Any, Callable, Hashable

#: every live :class:`Memo` (tools and tests); weak, so a memo owned by
#: a world goes away with the world
MEMOS: "weakref.WeakSet[Memo]" = weakref.WeakSet()


def read_switch() -> bool:
    """Read ``REPRO_NO_SESSION_CACHE`` into the flag :func:`enabled` returns."""
    global _enabled
    _enabled = not os.environ.get("REPRO_NO_SESSION_CACHE")
    return _enabled


_enabled = read_switch()


def enabled() -> bool:
    """True unless ``REPRO_NO_SESSION_CACHE`` was set at the last :func:`read_switch`."""
    return _enabled


class Memo:
    """A bounded LRU map with hit, miss and eviction counters.

    A hit moves its entry to the back; a :meth:`put` of a new key into a
    full memo drops the entry at the front.  Values must not be None.
    While :func:`enabled` is False every lookup misses and nothing is
    stored.
    """

    def __init__(self, name: str, max_entries: int) -> None:
        self.name = name
        self.max_entries = max_entries
        self._entries: dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        MEMOS.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, valid: Callable[[Any], bool] | None = None) -> Any:
        """The value stored under ``key``, or None on a miss.

        An entry for which ``valid(value)`` is False is dropped and
        counts as a miss.
        """
        value = self._entries.pop(key, None) if _enabled else None
        if value is None or (valid is not None and not valid(value)):
            self.misses += 1
            return None
        self._entries[key] = value
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key`` at the back, evicting if full."""
        if not _enabled:
            return
        entries = self._entries
        if entries.pop(key, None) is None and len(entries) >= self.max_entries:
            del entries[next(iter(entries))]
            self.evictions += 1
        entries[key] = value

    def stats(self) -> dict[str, int]:
        """Point-in-time counters for ops tables and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "live": len(self._entries),
        }
