"""Certificate authorities.

A :class:`CertificateAuthority` owns a key pair and a self-signed root
certificate, and issues end-entity (or subordinate CA) certificates.
Well-known public CAs, per-site MyProxy Online CAs, and ad-hoc DCSC
self-signed contexts are all built from this one class.

Issuance reads the virtual clock for validity windows, so short-lived
MyProxy certificates genuinely expire as simulated time advances.
"""

from __future__ import annotations

import itertools
import math
import random

from repro.errors import CertificateError, SigningPolicyError
from repro.pki.certificate import Certificate
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName
from repro.pki.policy import SigningPolicy
from repro.pki.rsa import AHEAD, KeyHelper, PublicKey, generate_keypair
from repro.sim.clock import Clock
from repro.util.units import DAY, HOUR


def check_lifetime(lifetime: float) -> None:
    """Raise :class:`CertificateError` unless ``lifetime`` (seconds) is
    finite and positive: the one rule for a requested certificate
    lifetime, on the wire and in process."""
    if not (math.isfinite(lifetime) and lifetime > 0):
        raise CertificateError(f"lifetime {lifetime} is not finite and positive")


class CertificateAuthority:
    """A CA: root certificate + key + serial counter + optional self-policy.

    ``enforce_own_policy`` makes the CA refuse to sign subjects outside
    its own namespace — real CAs behave this way; tests disable it to
    manufacture rogue certificates for negative testing.
    """

    #: default root certificate lifetime
    ROOT_LIFETIME = 3650 * DAY
    #: default issued-certificate lifetime (a classic 1-year user cert)
    DEFAULT_LIFETIME = 365 * DAY

    def __init__(
        self,
        subject: DistinguishedName,
        clock: Clock,
        rng: random.Random | None = None,
        key_bits: int = 512,
        policy: SigningPolicy | None = None,
        enforce_own_policy: bool = True,
    ) -> None:
        self.clock = clock
        self.rng = rng or random.Random()
        self.key = generate_keypair(key_bits, self.rng)
        self.policy = policy
        self.enforce_own_policy = enforce_own_policy
        self._serials = itertools.count(self.rng.randrange(1, 1 << 24) << 16)
        self._helper: KeyHelper | None = None
        self._starvations = 0  # helpers of this CA that starved
        self._inline_keys = 0  # keys to make without a helper before forking again
        root = Certificate(
            subject=subject,
            issuer=subject,
            serial=next(self._serials),
            not_before=clock.now,
            not_after=clock.now + self.ROOT_LIFETIME,
            public_key=self.key.public,
            is_ca=True,
        )
        self.certificate = root.signed_by(self.key)

    @property
    def subject(self) -> DistinguishedName:
        """The subject distinguished name."""
        return self.certificate.subject

    def issue(
        self,
        subject: DistinguishedName,
        public_key: PublicKey,
        lifetime: float = DEFAULT_LIFETIME,
        is_ca: bool = False,
        extensions: dict | None = None,
        not_before: float | None = None,
    ) -> Certificate:
        """Sign a certificate for ``subject`` over ``public_key``."""
        if (
            self.enforce_own_policy
            and self.policy is not None
            and not self.policy.permits(subject)
        ):
            raise SigningPolicyError(
                f"CA {self.subject} refuses to sign {subject} (outside policy namespace)"
            )
        start = self.clock.now if not_before is None else not_before
        cert = Certificate(
            subject=subject,
            issuer=self.subject,
            serial=next(self._serials),
            not_before=start,
            not_after=start + lifetime,
            public_key=public_key,
            is_ca=is_ca,
            extensions=dict(extensions or {}),
        )
        return cert.signed_by(self.key)

    def pregenerate(self, count: int, key_bits: int = 512) -> None:
        """Have the CA's next keys searched in idle time (MyProxy key
        pregeneration), and return at once.

        Real MyProxy servers pregenerate RSA key pairs in idle time so a
        logon never waits on prime search.  Unless ``count`` is 0 this
        forks the CA's :class:`~repro.pki.rsa.KeyHelper` where
        :meth:`issue_credential` would, and the helper searches the CA's
        next ``key_bits`` keys, at most :data:`~repro.pki.rsa.AHEAD`
        beyond those the CA has taken, while the caller goes on.  It
        searches, tallies and draws nothing itself: every key is still
        made by :meth:`issue_credential` when it is issued, so the i-th
        issued credential carries the identical key, and every tally,
        memo entry and rng state is the same, whether or not it was
        pregenerated and whatever the host's CPU count; only when the
        search runs moves.
        """
        if count:
            self._fork_helper(key_bits)

    def issue_credential(
        self,
        subject: DistinguishedName,
        lifetime: float = DEFAULT_LIFETIME,
        key_bits: int = 512,
        extensions: dict | None = None,
    ) -> Credential:
        """Generate a key pair and issue a certificate for it, bundled.

        This is what MyProxy Online CA does on every logon (with a short
        lifetime) and what site admins did manually in the conventional
        workflow (with a long one).  The key is searched by the CA's
        helper when it searches that key (this call waits for it) and
        here otherwise.  A CA with no live helper then starts a
        :class:`~repro.pki.rsa.KeyHelper` if a slot is free, so the next
        keys are searched on another CPU.  After a helper starved (its
        host was too busy to run it), the CA first makes
        :data:`~repro.pki.rsa.AHEAD` keys without one, twice as many
        after each further starvation, so a host that stays busy pays for
        few probes.  A ``lifetime`` that :func:`check_lifetime` refuses
        raises :class:`CertificateError` before a key is drawn.
        """
        check_lifetime(lifetime)
        helper = self._helper
        live = helper is not None and not helper.closed
        key = generate_keypair(key_bits, self.rng, helper)
        if live and helper.starved:
            self._starvations += 1
            self._inline_keys = AHEAD << (self._starvations - 1)
        elif not live and self._inline_keys:
            self._inline_keys -= 1
        self._fork_helper(key_bits)
        cert = self.issue(subject, key.public, lifetime=lifetime, extensions=extensions)
        return Credential(chain=(cert, self.certificate), key=key)

    def _fork_helper(self, key_bits: int) -> None:
        """Start a helper for ``key_bits`` if a slot is free, unless the CA
        has a live one or keys left to make without one."""
        helper = self._helper
        if (helper is None or helper.closed) and not self._inline_keys:
            self._helper = KeyHelper.start(key_bits, self.rng, owner=self)


def self_signed_credential(
    subject: DistinguishedName,
    clock: Clock,
    rng: random.Random | None = None,
    lifetime: float = 12 * HOUR,
    key_bits: int = 512,
    extensions: dict | None = None,
) -> Credential:
    """A random self-signed credential.

    Paper Section V: "If both servers support DCSC, clients that desire
    higher security may specify a random, self-signed certificate as the
    DCAU context."  This builds that context.
    """
    rng = rng or random.Random()
    key = generate_keypair(key_bits, rng)
    cert = Certificate(
        subject=subject,
        issuer=subject,
        serial=rng.randrange(1, 1 << 40),
        not_before=clock.now,
        not_after=clock.now + lifetime,
        public_key=key.public,
        is_ca=False,
        extensions=dict(extensions or {}),
    ).signed_by(key)
    return Credential(chain=(cert,), key=key)
