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
import random
from collections import deque

from repro.errors import SigningPolicyError
from repro.pki.certificate import Certificate
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName
from repro.pki.policy import SigningPolicy
from repro.pki.rsa import KeyHelper, PublicKey, generate_keypair
from repro.sim.clock import Clock
from repro.util.units import DAY, HOUR


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
        self._key_pool: dict[int, deque] = {}
        self._helper: KeyHelper | None = None
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
        """Fill the key pool ahead of time (MyProxy key pregeneration).

        Real MyProxy servers pregenerate RSA key pairs in idle time so a
        logon never waits on prime search.  The pool draws from the same
        rng stream, in the same order, that :meth:`issue_credential`
        would — the i-th issued credential carries the identical key
        whether or not it was pregenerated; only the wall-clock moment of
        the generation work moves.  After construction the CA's rng feeds
        key generation exclusively (serials come from a counter), so an
        over-full pool never perturbs any other random stream.  The pool
        fills synchronously, so each key is tallied when this call makes
        it; a live :class:`~repro.pki.rsa.KeyHelper` for ``key_bits``
        searches them while this call waits (one that searches another
        size is closed, and the keys are searched here).
        """
        pool = self._key_pool.setdefault(key_bits, deque())
        for _ in range(count):
            pool.append(generate_keypair(key_bits, self.rng, self._helper))

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
        workflow (with a long one).  The key is the pool's next, else
        searched on demand, by the CA's helper when it searches that key
        (this call waits for it) and here otherwise.  An on-demand search
        with no live helper starts a :class:`~repro.pki.rsa.KeyHelper` if
        a slot is free, so the next keys are searched on another CPU,
        unless the last helper starved: a host too busy to run it would
        starve the next one too.
        """
        pool = self._key_pool.get(key_bits)
        if pool:
            key = pool.popleft()
        else:
            key = generate_keypair(key_bits, self.rng, self._helper)
            helper = self._helper
            if helper is None or (helper.closed and not helper.starved):
                self._helper = KeyHelper.start(key_bits, self.rng, owner=self)
        cert = self.issue(subject, key.public, lifetime=lifetime, extensions=extensions)
        return Credential(chain=(cert, self.certificate), key=key)


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
