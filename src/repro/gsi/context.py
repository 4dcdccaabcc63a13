"""GSI security contexts (RFC 2228 AUTH GSSAPI, in spirit).

A context is established by mutual certificate validation: the initiator
(client) presents its credential chain, which the acceptor validates
against *its* trust store; the acceptor presents its (host) credential,
which the initiator validates against *its* trust store.  "If
authentication is not successful, the connection is dropped" (paper
Section II.C).

The established context carries both identities and a derived session
key used to mark the control channel as integrity-protected/encrypted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from repro.errors import AuthenticationError, CertificateError
from repro.pki.certificate import Certificate
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName
from repro.pki.validation import TrustStore, validate_chain


@dataclass(frozen=True)
class SecurityContext:
    """An established mutual-authentication context."""

    initiator_subject: DistinguishedName
    initiator_identity: DistinguishedName
    acceptor_subject: DistinguishedName
    acceptor_identity: DistinguishedName
    session_key: bytes
    encrypted: bool = True
    integrity: bool = True

    def peer_of(self, subject: DistinguishedName) -> DistinguishedName:
        """The other party's identity, given one side's subject."""
        if subject == self.initiator_subject:
            return self.acceptor_identity
        if subject == self.acceptor_subject:
            return self.initiator_identity
        raise ValueError(f"{subject} is not a party to this context")


def establish_context(
    initiator: Credential,
    acceptor: Credential,
    initiator_trust: TrustStore,
    acceptor_trust: TrustStore,
    now: float,
    initiator_extra_anchors: Iterable[Certificate] = (),
    acceptor_extra_anchors: Iterable[Certificate] = (),
    encrypted: bool = True,
) -> SecurityContext:
    """Perform mutual authentication; return the context or raise.

    ``*_extra_anchors`` are the DCSC escape hatch: anchors an endpoint
    accepts *for this context only* because a client supplied them via
    ``DCSC P``.

    Raises :class:`AuthenticationError` wrapping the underlying
    certificate failure; the message records which side rejected whom,
    which the Figure 4 benchmark asserts on.
    """
    # acceptor validates the initiator's chain against the acceptor trust
    try:
        init_result = validate_chain(
            initiator.chain,
            acceptor_trust,
            now,
            extra_anchors=acceptor_extra_anchors,
        )
    except CertificateError as exc:
        raise AuthenticationError(
            f"acceptor {acceptor.identity} rejected initiator "
            f"{initiator.subject}: {exc}"
        ) from exc
    # initiator validates the acceptor's chain against the initiator trust
    try:
        acc_result = validate_chain(
            acceptor.chain,
            initiator_trust,
            now,
            extra_anchors=initiator_extra_anchors,
        )
    except CertificateError as exc:
        raise AuthenticationError(
            f"initiator {initiator.identity} rejected acceptor "
            f"{acceptor.subject}: {exc}"
        ) from exc

    return SecurityContext(
        initiator_subject=init_result.subject,
        initiator_identity=init_result.identity,
        acceptor_subject=acc_result.subject,
        acceptor_identity=acc_result.identity,
        session_key=_derive_session_key(initiator, acceptor, now),
        encrypted=encrypted,
        integrity=True,
    )


def _derive_session_key(initiator: Credential, acceptor: Credential, now: float) -> bytes:
    """A deterministic stand-in for the TLS key exchange."""
    material = (
        initiator.certificate.fingerprint()
        + acceptor.certificate.fingerprint()
        + f":{now}"
    ).encode("utf-8")
    return hashlib.sha256(material).digest()
