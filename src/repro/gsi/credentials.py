"""Per-user credential management (grid-proxy-init and friends).

In the conventional workflow the user obtains a long-term certificate
from a well-known CA (the painful steps of paper Section III.A), stores
it, and creates short-lived proxies to actually work with.  In the GCMU
workflow the store instead holds the short-lived certificate issued by
``myproxy-logon``.  Either way, GridFTP clients pull the active
credential from here.
"""

from __future__ import annotations

import random

from repro.errors import SecurityError
from repro.pki.credential import Credential
from repro.pki.proxy import DEFAULT_PROXY_LIFETIME, create_proxy
from repro.pki.validation import TrustStore
from repro.sim.clock import Clock


class CredentialStore:
    """One user's ``~/.globus`` directory: certificates, proxies, trust roots."""

    def __init__(self, owner: str, clock: Clock, rng: random.Random | None = None) -> None:
        self.owner = owner
        self.clock = clock
        self.rng = rng or random.Random()
        self.trust = TrustStore()
        self._long_term: Credential | None = None
        self._proxy: Credential | None = None

    # -- installation -------------------------------------------------------

    def install_certificate(self, credential: Credential) -> None:
        """Install a long-term (usercert.pem/userkey.pem) credential."""
        self._long_term = credential

    def install_proxy(self, credential: Credential) -> None:
        """Install a ready-made short-lived credential (myproxy-logon output)."""
        self._proxy = credential

    # -- access -----------------------------------------------------------------

    def grid_proxy_init(self, lifetime: float = DEFAULT_PROXY_LIFETIME) -> Credential:
        """Create a proxy from the long-term credential (grid-proxy-init)."""
        if self._long_term is None:
            raise SecurityError(
                f"user {self.owner!r} has no long-term certificate installed"
            )
        self._proxy = create_proxy(self._long_term, self.clock, self.rng, lifetime)
        return self._proxy

    def active_credential(self) -> Credential:
        """The credential a client should authenticate with right now.

        Prefers a valid proxy/short-lived credential; falls back to the
        long-term one.  Raises if nothing valid is available (e.g. the
        short-lived MyProxy certificate has expired).
        """
        now = self.clock.now
        if self._proxy is not None and self._proxy.valid_at(now):
            return self._proxy
        if self._long_term is not None and self._long_term.valid_at(now):
            return self._long_term
        raise SecurityError(f"user {self.owner!r} has no valid credential at t={now}")

    def has_valid_credential(self) -> bool:
        """True if active_credential() would succeed."""
        try:
            self.active_credential()
            return True
        except SecurityError:
            return False
