"""GSI session resumption (TLS-session-ticket semantics, wall-clock only).

Real GridFTP deployments amortize authentication with data-channel
caching and session reuse (Allcock et al.); this module is the control
plane's half of that idea.  A successful :func:`~repro.gsi.context.
establish_context` deposits a :class:`ResumptionToken`; a later
establishment between the *same* certificate pair, under the *same*
trust configuration, inside the credentials' validity windows, replays
the token instead of re-walking both chains (and re-doing their RSA
signature verifications).

Determinism argument — resumption must not change any virtual outcome:

* ``establish_context`` never touches the virtual clock or any RNG; it
  is a pure function of its arguments apart from the ``now`` mixed into
  the (never re-read) session key.  Skipping it is invisible to the
  event stream.
* The cache key pins every input the full handshake reads: both leaf
  fingerprints (a fingerprint commits to the whole chain, since each
  certificate's signature covers its issuer linkage), both delegation
  depths, the (uid, version) of both trust stores — bumped whenever an
  anchor is added or removed — the fingerprints of any DCSC extra
  anchors, and the ``encrypted`` flag.
* The token's validity window is ``[max(not_before), min(not_after)]``
  over both chains: exactly the window inside which the full handshake
  would succeed for time-dependent reasons.  Outside it, the entry is
  dropped and the full handshake runs (and raises, for an expired
  proxy — the security property the regression tests pin).
* Failures are never cached; a rejected chain is re-rejected from
  scratch every time.

The only observable divergence is ``SecurityContext.session_key``: a
resumed context carries the key derived at original establishment (the
"ticket"), not one re-mixed with the current ``now``.  Nothing in the
simulation reads the key bytes, so outcomes are unaffected; the
differential property tests compare peers/identities, not the key.

``REPRO_NO_SESSION_CACHE=1`` disables resumption entirely (checked per
call, so tests can monkeypatch it).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from repro.util import opcount

if TYPE_CHECKING:  # import cycle: context.py imports this module
    from repro.gsi.context import SecurityContext
    from repro.telemetry.metrics import MetricsRegistry

#: default bound on live tokens; fleet runs see one token per
#: (user proxy, endpoint host credential) pair, far below this
DEFAULT_MAX_ENTRIES = 1024


def caching_enabled() -> bool:
    """True unless ``REPRO_NO_SESSION_CACHE`` is set (read per call)."""
    return not os.environ.get("REPRO_NO_SESSION_CACHE")


@dataclass(frozen=True)
class ResumptionToken:
    """One cached mutual-authentication outcome."""

    key: tuple
    context: "SecurityContext"
    #: validity window over both chains; the token resumes only while
    #: ``not_before <= now <= not_after`` (virtual time)
    not_before: float
    not_after: float
    issued_at: float

    def valid_at(self, now: float) -> bool:
        """True iff every participating certificate is valid at ``now``."""
        return self.not_before <= now <= self.not_after


@dataclass
class SessionCache:
    """Bounded LRU of :class:`ResumptionToken`, keyed on handshake inputs.

    Purely wall-clock: lookups and stores never advance virtual time or
    consume randomness.  Stats are plain integers; :meth:`bind_metrics`
    additionally mirrors them into ``gsi_session_*`` counters of a
    world's metrics registry.
    """

    max_entries: int = DEFAULT_MAX_ENTRIES
    _tokens: dict = field(default_factory=dict, repr=False)
    hits: int = 0
    misses: int = 0
    expirations: int = 0
    evictions: int = 0
    _metric_hits: object = field(default=None, repr=False)
    _metric_misses: object = field(default=None, repr=False)
    _metric_expirations: object = field(default=None, repr=False)
    _metric_evictions: object = field(default=None, repr=False)
    _metric_size: object = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self._tokens)

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        """Mirror cache activity into ``gsi_session_*`` instruments."""
        self._metric_hits = registry.counter(
            "gsi_session_hits_total", "GSI session resumptions"
        )
        self._metric_misses = registry.counter(
            "gsi_session_misses_total", "GSI full handshakes (cache miss)"
        )
        self._metric_expirations = registry.counter(
            "gsi_session_expirations_total",
            "tokens dropped: credential validity window left",
        )
        self._metric_evictions = registry.counter(
            "gsi_session_evictions_total", "tokens dropped: LRU capacity"
        )
        self._metric_size = registry.gauge(
            "gsi_session_tokens", "live resumption tokens"
        )

    def lookup(self, key: Hashable, now: float) -> "SecurityContext | None":
        """The cached context for ``key`` if resumable at ``now``, else None."""
        token = self._tokens.get(key)
        if token is None:
            self._miss()
            return None
        if not token.valid_at(now):
            # TTL is tied to credential expiry: an expired (or not yet
            # valid) participant means the full handshake must run — and
            # for expiry it will raise, exactly like a cache-off world.
            del self._tokens[key]
            self.expirations += 1
            if self._metric_expirations is not None:
                self._metric_expirations.inc()
                self._metric_size.set(len(self._tokens))
            self._miss()
            return None
        # LRU touch
        self._tokens[key] = self._tokens.pop(key)
        self.hits += 1
        opcount.bump("gsi.context.resumed")
        if self._metric_hits is not None:
            self._metric_hits.inc()
        return token.context

    def store(
        self,
        key: Hashable,
        context: "SecurityContext",
        not_before: float,
        not_after: float,
        now: float,
    ) -> ResumptionToken:
        """Deposit a token for a just-established context."""
        token = ResumptionToken(
            key=key,
            context=context,
            not_before=not_before,
            not_after=not_after,
            issued_at=now,
        )
        if key not in self._tokens and len(self._tokens) >= self.max_entries:
            self._tokens.pop(next(iter(self._tokens)))
            self.evictions += 1
            if self._metric_evictions is not None:
                self._metric_evictions.inc()
        self._tokens[key] = token
        if self._metric_size is not None:
            self._metric_size.set(len(self._tokens))
        return token

    def invalidate(self, key: Hashable) -> bool:
        """Drop one token; True if it existed."""
        existed = self._tokens.pop(key, None) is not None
        if existed and self._metric_size is not None:
            self._metric_size.set(len(self._tokens))
        return existed

    def clear(self) -> None:
        """Drop every token (stats retained)."""
        self._tokens.clear()
        if self._metric_size is not None:
            self._metric_size.set(0)

    def stats(self) -> dict[str, int]:
        """Point-in-time counters for ops tables and tests."""
        return {
            "tokens": len(self._tokens),
            "hits": self.hits,
            "misses": self.misses,
            "expirations": self.expirations,
            "evictions": self.evictions,
        }

    def _miss(self) -> None:
        self.misses += 1
        if self._metric_misses is not None:
            self._metric_misses.inc()


#: the process-default cache ``establish_context`` consults; like the
#: pki memo layers it is process-global, with correctness carried by the
#: key (trust-store uid/version makes entries world-private in practice)
_DEFAULT = SessionCache()


def default_session_cache() -> SessionCache:
    """The module-level cache used when no explicit cache is passed."""
    return _DEFAULT


def reset_default_session_cache() -> SessionCache:
    """Replace the default cache with a fresh one (tests, benchmarks)."""
    global _DEFAULT
    _DEFAULT = SessionCache()
    return _DEFAULT
