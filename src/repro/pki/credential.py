"""A credential: a certificate chain plus the matching private key.

The chain is ordered leaf-first: ``chain[0]`` is the certificate whose
public key matches ``key`` (possibly a proxy), followed by its issuer,
and so on up toward (but not necessarily including) a root.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CertificateError
from repro.pki.certificate import Certificate, keypair_to_pem
from repro.pki.dn import DistinguishedName
from repro.pki.rsa import KeyPair
from repro.util.encoding import pem_decode_all
from repro.util.memo import Memo


#: Round-trip parse memo: PEM text produced by :meth:`Credential.to_pem`
#: (or parsed once already) -> the credential object.  Credentials are
#: immutable and ``from_pem`` is the exact inverse of ``to_pem``, so
#: handing back the original object is indistinguishable from re-parsing
#: — and every GSI login does this round trip (the client serializes,
#: the same-process server parses) once per session.
_ROUNDTRIP = Memo("credential.pem", 1024)


@dataclass(frozen=True)
class Credential:
    """A usable identity: leaf-first certificate chain + private key."""

    chain: tuple[Certificate, ...]
    key: KeyPair

    def __post_init__(self) -> None:
        if not self.chain:
            raise CertificateError("credential chain cannot be empty")
        if self.chain[0].public_key != self.key.public:
            raise CertificateError("private key does not match the leaf certificate")

    @property
    def certificate(self) -> Certificate:
        """The leaf certificate."""
        return self.chain[0]

    @property
    def subject(self) -> DistinguishedName:
        """The subject distinguished name."""
        return self.chain[0].subject

    @property
    def identity(self) -> DistinguishedName:
        """The subject with proxy CN components stripped (the real user).

        Computed once per credential: every DCAU posture reads it.
        """
        cached = self.__dict__.get("_identity_memo")
        if cached is None:
            from repro.pki.proxy import strip_proxy_cns

            cached = strip_proxy_cns(self.chain[0].subject)
            object.__setattr__(self, "_identity_memo", cached)
        return cached

    def valid_at(self, t: float) -> bool:
        """True iff every certificate in the chain is within its validity."""
        # a loop, not all() over a generator: the pool asks this on every
        # checkout and release, and a generator stopped early is closed
        # by raising GeneratorExit into it
        for cert in self.chain:
            if not cert.valid_at(t):
                return False
        return True

    def expires_at(self) -> float:
        """Earliest not_after over the chain."""
        return min(c.not_after for c in self.chain)

    def to_pem(self, include_key: bool = True) -> str:
        """Concatenated PEM blocks: leaf cert, [key], remaining chain.

        This is exactly the DCSC P blob layout from paper Section V:
        "1. An X.509 certificate in PEM format / 2. A private key in PEM
        format / 3. Additional X.509 certificates in PEM format".
        """
        memo = self.__dict__.get("_pem_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_pem_memo", memo)
        text = memo.get(include_key)
        if text is not None:
            return text
        parts = [self.chain[0].to_pem()]
        if include_key:
            parts.append(keypair_to_pem(self.key))
        parts.extend(c.to_pem() for c in self.chain[1:])
        text = memo[include_key] = "".join(parts)
        if include_key:
            _ROUNDTRIP.put(text, self)
        return text

    @staticmethod
    def from_pem(text: str) -> "Credential":
        """Parse a concatenation of PEM blocks into a credential.

        The first CERTIFICATE block is the leaf; exactly one RSA PRIVATE
        KEY block must be present; any further CERTIFICATE blocks are
        chain certificates, kept in order of appearance.
        """
        from repro.pki.certificate import (
            PEM_CERT_LABEL,
            PEM_KEY_LABEL,
            Certificate as Cert,
            keypair_from_der,
        )

        hit = _ROUNDTRIP.get(text)
        if hit is not None:
            return hit

        certs: list[Certificate] = []
        keys: list[KeyPair] = []
        for label, der in pem_decode_all(text):
            if label == PEM_CERT_LABEL:
                certs.append(Cert.from_der(der))
            elif label == PEM_KEY_LABEL:
                keys.append(keypair_from_der(der))
            else:
                raise CertificateError(f"unexpected PEM block {label!r} in credential")
        if not certs:
            raise CertificateError("credential PEM contains no certificate")
        if len(keys) != 1:
            raise CertificateError(
                f"credential PEM must contain exactly one private key, found {len(keys)}"
            )
        parsed = Credential(chain=tuple(certs), key=keys[0])
        _ROUNDTRIP.put(text, parsed)
        return parsed
