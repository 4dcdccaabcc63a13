"""Certificates: the to-be-signed content, signatures, and PEM framing.

A certificate binds a subject DN to a public key under an issuer's
signature.  The to-be-signed (TBS) content is canonical JSON, so the
same logical certificate always produces the same signed bytes and any
tampering (changed subject, swapped key, shifted validity) invalidates
the signature — which the property tests verify exhaustively.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

from repro.errors import CertificateError
from repro.pki.dn import DistinguishedName
from repro.pki.rsa import KeyPair, PublicKey, verify
from repro.util.encoding import canonical_json, from_canonical_json, pem_decode, pem_encode
from repro.util.memo import Memo

PEM_CERT_LABEL = "CERTIFICATE"
PEM_KEY_LABEL = "RSA PRIVATE KEY"

#: DER bytes -> parsed certificate.  Certificates are immutable, so the
#: same wire bytes always denote the same object; GSI presents the same
#: server chain on every AUTH.  Handing back the one instance also keeps
#: its :meth:`Certificate.verify_signature` results, so a repeat chain
#: walk over a re-parsed chain runs no RSA.
_DER_MEMO = Memo("certificate.der", 2048)


@dataclass(frozen=True)
class Certificate:
    """An X.509-style certificate.

    ``extensions`` carries free-form metadata; the keys this library uses:

    * ``"proxy"`` — RFC-3820-style proxy certificate marker;
    * ``"issued_by_service"`` — set by MyProxy Online CA so the GCMU
      authorization callout can recognize locally-issued certificates;
    * ``"local_username"`` — convenience duplicate of the DN-embedded
      username (the callout parses the DN, this is for diagnostics).
    """

    subject: DistinguishedName
    issuer: DistinguishedName
    serial: int
    not_before: float
    not_after: float
    public_key: PublicKey
    is_ca: bool = False
    extensions: dict = field(default_factory=dict)
    signature: int = 0

    def __post_init__(self) -> None:
        # chained so that a NaN or infinite bound fails too: a window that
        # never ends would outlive every lifetime cap
        if not (-math.inf < self.not_before < self.not_after < math.inf):
            raise CertificateError(
                f"certificate validity window is empty or not finite: "
                f"[{self.not_before}, {self.not_after}]"
            )

    # -- derived -------------------------------------------------------------

    @property
    def is_self_signed(self) -> bool:
        """Issuer DN equals subject DN (root CAs and DCSC self-signed contexts)."""
        return self.subject == self.issuer

    @property
    def is_proxy(self) -> bool:
        """True for RFC-3820-style proxy certificates."""
        return bool(self.extensions.get("proxy"))

    def valid_at(self, t: float) -> bool:
        """True iff ``t`` lies in [not_before, not_after]."""
        return self.not_before <= t <= self.not_after

    def lifetime(self) -> float:
        """Validity window length in seconds."""
        return self.not_after - self.not_before

    # -- signing ---------------------------------------------------------------

    def tbs_dict(self) -> dict:
        """The to-be-signed content, as a plain dict."""
        return {
            "subject": self.subject.to_dict(),
            "issuer": self.issuer.to_dict(),
            "serial": self.serial,
            "not_before": self.not_before,
            "not_after": self.not_after,
            "public_key": self.public_key.to_dict(),
            "is_ca": self.is_ca,
            "extensions": {k: self.extensions[k] for k in sorted(self.extensions)},
        }

    def tbs_bytes(self) -> bytes:
        """Canonical signed bytes.

        Memoized per instance: certificates are immutable once built
        (``extensions`` is never mutated after construction), and fleet
        runs re-serialize the same certificates on every login, so the
        canonical-JSON encoding is computed once.
        """
        cached = self.__dict__.get("_tbs_memo")
        if cached is None:
            cached = canonical_json(self.tbs_dict())
            object.__setattr__(self, "_tbs_memo", cached)
        return cached

    def signed_by(self, issuer_key: KeyPair) -> "Certificate":
        """A copy of this certificate carrying a signature by ``issuer_key``."""
        from repro.pki.rsa import sign

        return replace(self, signature=sign(issuer_key, self.tbs_bytes()))

    def verify_signature(self, issuer_public: PublicKey) -> bool:
        """True iff the signature verifies under ``issuer_public``.

        Memoized per (n, e): chain walks re-verify the same signatures
        on every connect, and both inputs are immutable.
        """
        memo = self.__dict__.get("_verify_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_verify_memo", memo)
        key = (issuer_public.n, issuer_public.e)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = verify(issuer_public, self.tbs_bytes(), self.signature)
        return hit

    def fingerprint(self) -> str:
        """Stable identifier over TBS + signature."""
        cached = self.__dict__.get("_fp_memo")
        if cached is None:
            h = hashlib.sha256(self.tbs_bytes() + f":{self.signature:x}".encode())
            cached = h.hexdigest()[:24]
            object.__setattr__(self, "_fp_memo", cached)
        return cached

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (serialization)."""
        d = self.tbs_dict()
        d["signature"] = f"{self.signature:x}"
        return d

    @staticmethod
    def from_dict(d: dict) -> "Certificate":
        """Rebuild from :meth:`to_dict` output."""
        try:
            return Certificate(
                subject=DistinguishedName.from_dict(d["subject"]),
                issuer=DistinguishedName.from_dict(d["issuer"]),
                serial=int(d["serial"]),
                not_before=float(d["not_before"]),
                not_after=float(d["not_after"]),
                public_key=PublicKey.from_dict(d["public_key"]),
                is_ca=bool(d["is_ca"]),
                extensions=dict(d.get("extensions", {})),
                signature=int(d.get("signature", "0"), 16),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"malformed certificate dict: {exc}") from exc

    def to_pem(self) -> str:
        """PEM-framed certificate (canonical JSON inside the base64 body)."""
        cached = self.__dict__.get("_pem_memo")
        if cached is None:
            cached = pem_encode(PEM_CERT_LABEL, canonical_json(self.to_dict()))
            object.__setattr__(self, "_pem_memo", cached)
        return cached

    @staticmethod
    def from_pem(text: str) -> "Certificate":
        """Parse from a PEM block."""
        _, der = pem_decode(text, expected_label=PEM_CERT_LABEL)
        return Certificate.from_dict(from_canonical_json(der))

    @staticmethod
    def from_der(der: bytes) -> "Certificate":
        """Parse the base64-decoded body of a PEM CERTIFICATE block.

        Memoized by the DER bytes (immutable in, immutable out).
        """
        hit = _DER_MEMO.get(der)
        if hit is None:
            hit = Certificate.from_dict(from_canonical_json(der))
            _DER_MEMO.put(der, hit)
        return hit

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "CA" if self.is_ca else ("proxy" if self.is_proxy else "EEC")
        return f"<{kind} cert subject={self.subject} issuer={self.issuer} serial={self.serial}>"


def keypair_to_pem(key: KeyPair) -> str:
    """PEM-frame a private key (used in the DCSC P blob).

    Memoized on the key instance: delegation re-serializes the same
    (memoized) session keys on every login.
    """
    cached = key.__dict__.get("_pem_memo")
    if cached is None:
        cached = pem_encode(PEM_KEY_LABEL, canonical_json(key.to_dict()))
        object.__setattr__(key, "_pem_memo", cached)
    return cached


def keypair_from_pem(text: str) -> KeyPair:
    """Parse a PEM RSA PRIVATE KEY block."""
    _, der = pem_decode(text, expected_label=PEM_KEY_LABEL)
    return keypair_from_der(der)


def keypair_from_der(der: bytes) -> KeyPair:
    """Parse the base64-decoded body of a PEM key block."""
    try:
        return KeyPair.from_dict(from_canonical_json(der))
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed private key: {exc}") from exc
