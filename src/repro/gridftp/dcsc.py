"""The Data Channel Security Context (DCSC) command — paper Section V.

``DCSC P <base64 blob>`` hands a server a credential to *both present to
and accept from* the other endpoint of a third-party transfer, enabling
secure DCAU across security domains whose CAs do not trust each other
(Figure 5).  ``DCSC D`` reverts to the default context (whatever was in
effect immediately after login).

Blob format, exactly as Section V.A specifies:

1. an X.509 certificate in PEM format;
2. a private key in PEM format;
3. additional X.509 certificates in PEM format, unordered (optional).

"A DCSC P command will overwrite any previous request."  "The
certificate in (1) must be self-signed or verifiable by using only
intermediate and/or CA certificates in (3)."  The decoded context's
self-signed certificates become policy-exempt validation anchors;
non-self-signed ones become available intermediates.

A server parses each distinct blob once: :func:`decode_dcsc_blob` takes
the server's bounded :class:`~repro.util.memo.Memo`, keyed by the
blob's SHA-256 digest.  Parsing depends only on the blob, so a hit
hands back the context the first parse built; the self-containedness
check depends on ``now`` as well, so it runs on every ``DCSC P``, hit
or miss.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.pki.certificate import Certificate
from repro.pki.credential import Credential
from repro.pki.validation import TrustStore, validate_chain
from repro.util.encoding import b64decode_str, b64encode_str, is_printable_ascii
from repro.util.memo import Memo


@dataclass(frozen=True)
class DcscContext:
    """A decoded, verified DCSC P context installed on a session."""

    credential: Credential
    #: self-signed certificates from the blob: extra trust anchors
    anchors: tuple[Certificate, ...] = field(init=False)
    #: non-self-signed blob certificates: chain-completion material
    intermediates: tuple[Certificate, ...] = field(init=False)

    def __post_init__(self) -> None:
        chain = self.credential.chain
        object.__setattr__(self, "anchors", tuple(c for c in chain if c.is_self_signed))
        object.__setattr__(
            self, "intermediates", tuple(c for c in chain if not c.is_self_signed)
        )


def encode_dcsc_blob(credential: Credential) -> str:
    """Encode a credential as the DCSC P argument.

    Base64 over the concatenated PEM blocks; the result is printable
    ASCII as the protocol requires.
    """
    blob = b64encode_str(credential.to_pem(include_key=True).encode("ascii"))
    assert is_printable_ascii(blob)
    return blob


def decode_dcsc_blob(blob: str, now: float, memo: Memo | None = None) -> DcscContext:
    """Decode and verify a DCSC P blob.

    Enforces the Section V.A self-containedness rule: the leaf must be
    self-signed or verifiable using only the blob's own certificates.
    Raises :class:`ProtocolError` (mapped to a 501 reply) on violations.
    With ``memo``, a blob parsed before is not parsed again; the rule is
    checked at ``now`` either way.
    """
    if memo is None:
        context = _parse_dcsc_blob(blob)
    else:
        # surrogatepass: any str the control channel carries has a digest
        key = hashlib.sha256(blob.encode("utf-8", "surrogatepass")).digest()
        context = memo.get(key)
        if context is None:
            context = _parse_dcsc_blob(blob)
            memo.put(key, context)
    credential = context.credential
    if not credential.certificate.is_self_signed:
        # must verify using only blob material
        try:
            validate_chain(
                credential.chain,
                TrustStore(),  # deliberately empty: blob must be self-contained
                now,
                extra_anchors=context.anchors,
                extra_intermediates=context.intermediates,
            )
        except Exception as exc:
            raise ProtocolError(
                f"DCSC certificate is not self-signed and its chain is not "
                f"verifiable from the blob alone: {exc}",
                code=501,
            ) from exc
    return context


def _parse_dcsc_blob(blob: str) -> DcscContext:
    """The blob's context, before the Section V.A check."""
    text = b64decode_str(blob).decode("ascii", errors="replace")
    try:
        credential = Credential.from_pem(text)
    except Exception as exc:
        raise ProtocolError(f"malformed DCSC blob: {exc}", code=501) from exc
    return DcscContext(credential=credential)
