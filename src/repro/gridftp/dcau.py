"""Data channel authentication (DCAU).

Paper Section II.C: for third-party transfers "GridFTP defaults to
requiring GSI authentication on the data channel ... both ends of the
authentication must present the user's proxy certificate.  A limitation
of current GridFTP protocol implementations is that all parties involved
in the transfer must accept the same CA."  That limitation is Figure 4,
and the functions here raise :class:`~repro.errors.DCAUError` in exactly
that case — unless a DCSC context (Section V) supplies the missing
anchors and/or an alternate credential.

Modes (the DCAU command argument):

* ``N`` — no data channel authentication;
* ``A`` — authenticate: the peer must hold the same identity as the
  control-channel user ("self" authentication);
* ``S <subject>`` — the peer must hold the given subject.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import AuthenticationError, DCAUError
from repro.pki.certificate import Certificate
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName
from repro.pki.proxy import strip_proxy_cns
from repro.pki.validation import TrustStore, validate_chain
from repro.util import opcount
from repro.util.memo import Memo


class DCAUMode(enum.Enum):
    """Data channel authentication mode."""

    NONE = "N"
    SELF = "A"
    SUBJECT = "S"

    @staticmethod
    def parse(text: str) -> "DCAUMode":
        """Parse from the textual form."""
        try:
            return DCAUMode(text.strip().upper()[:1])
        except ValueError:
            raise DCAUError(f"unknown DCAU mode {text!r}") from None


@dataclass(frozen=True)
class DataChannelSecurity:
    """One endpoint's contribution to data-channel authentication.

    ``credential`` is what this endpoint *presents* (normally the user's
    delegated proxy; with DCSC, the blob credential).  ``trust`` plus
    ``extra_anchors``/``extra_intermediates`` are what it *accepts*
    (normally the endpoint's trusted-CA directory; DCSC adds the blob's
    certificates).  ``expected_identity`` backs mode A/S checks.

    Frozen: a server session hands the same posture to every transfer
    until its security state changes, so no caller may edit one.
    """

    mode: DCAUMode
    credential: Credential | None
    trust: TrustStore
    extra_anchors: tuple[Certificate, ...] = ()
    extra_intermediates: tuple[Certificate, ...] = ()
    expected_identity: DistinguishedName | None = None
    expected_subject_override: DistinguishedName | None = None  # DCSC: expect blob subject
    endpoint_name: str = "?"

    def presented(self) -> Credential:
        """The credential this endpoint presents (or raise)."""
        if self.credential is None:
            raise DCAUError(
                f"endpoint {self.endpoint_name} has no data-channel credential to present"
            )
        return self.credential


def _validate_peer(acceptor: DataChannelSecurity, peer: Credential, now: float) -> None:
    """One direction of the mutual data-channel handshake."""
    try:
        result = validate_chain(
            peer.chain,
            acceptor.trust,
            now,
            extra_anchors=acceptor.extra_anchors,
            extra_intermediates=acceptor.extra_intermediates,
        )
    except AuthenticationError as exc:  # pragma: no cover - defensive
        raise DCAUError(str(exc)) from exc
    except Exception as exc:
        raise DCAUError(
            f"endpoint {acceptor.endpoint_name} rejected data-channel credential "
            f"{peer.subject}: {exc}"
        ) from exc
    if acceptor.mode is DCAUMode.NONE:
        return
    expected = acceptor.expected_subject_override or acceptor.expected_identity
    if expected is None:
        return
    expected_identity = strip_proxy_cns(expected)
    if result.identity != expected_identity:
        raise DCAUError(
            f"endpoint {acceptor.endpoint_name} expected data-channel identity "
            f"{expected_identity}, peer presented {result.identity}"
        )


def authenticate_data_channel(
    connector: DataChannelSecurity,
    listener: DataChannelSecurity,
    now: float,
) -> bool:
    """Mutual data-channel authentication between the two endpoints.

    Returns True if authentication ran, False if both sides agreed on
    DCAU N (no authentication).  Raises :class:`DCAUError` on failure —
    including the Figure 4 trust-root miss.
    """
    if connector.mode is DCAUMode.NONE and listener.mode is DCAUMode.NONE:
        return False
    if connector.mode is DCAUMode.NONE or listener.mode is DCAUMode.NONE:
        raise DCAUError(
            f"DCAU mode mismatch: {connector.endpoint_name}={connector.mode.value} "
            f"vs {listener.endpoint_name}={listener.mode.value}"
        )
    # each side validates what the other presents
    _validate_peer(listener, connector.presented(), now)
    _validate_peer(connector, listener.presented(), now)
    return True


def _side_key(side: DataChannelSecurity) -> tuple:
    """Everything one endpoint contributes to the handshake outcome.

    The posture's own part is built once per (frozen) posture.  The
    trust store mutates in place, so its ``uid`` and ``version`` are
    read on every call: replaying DCAU under trust an operator has
    since revoked is the hazard they guard.
    """
    posture = side.__dict__.get("_key_memo")
    if posture is None:
        posture = (
            side.mode.value,
            side.credential.certificate.fingerprint() if side.credential else None,
            tuple(c.fingerprint() for c in side.extra_anchors),
            tuple(c.fingerprint() for c in side.extra_intermediates),
            str(side.expected_identity) if side.expected_identity else None,
            str(side.expected_subject_override) if side.expected_subject_override else None,
        )
        object.__setattr__(side, "_key_memo", posture)
    return (posture, side.trust.uid, side.trust.version)


class DataChannelAuthCache:
    """GridFTP-style data-channel caching for the DCAU handshake.

    Real servers keep mode-E data channels open across files precisely
    so DCAU runs once per channel, not once per file (Allcock et al.).
    :func:`authenticate_data_channel` advances no clock and consumes no
    randomness — the 2·RTT channel-setup charge is applied separately by
    the transfer engine under ``charge_setup`` — so replaying a prior
    *success* is wall-clock-only by construction.

    Success-only and window-bounded: an entry replays while ``now`` is
    inside the validity window of every certificate both sides
    presented, under unchanged trust stores (uid/version in the key).
    Failures always re-run, so error messages, DCSC mode mismatches and
    the Figure 4 trust miss behave exactly as uncached.

    The key is both sides' :func:`_side_key`.  A server session reuses
    one posture per security state, so a warm lookup rebuilds nothing
    but two small tuples around the live trust-store stamps.
    """

    MAX_ENTRIES = 2048

    def __init__(self) -> None:
        self.memo = Memo("dcau", self.MAX_ENTRIES)

    def authenticate(
        self,
        connector: DataChannelSecurity,
        listener: DataChannelSecurity,
        now: float,
    ) -> bool:
        """As :func:`authenticate_data_channel`, replaying cached successes."""
        if connector.mode is DCAUMode.NONE and listener.mode is DCAUMode.NONE:
            return authenticate_data_channel(connector, listener, now)
        key = (_side_key(connector), _side_key(listener))
        if self.memo.get(key, lambda window: window[0] <= now <= window[1]):
            opcount.bump("dcau.cached")
            return True
        opcount.bump("dcau.full")
        result = authenticate_data_channel(connector, listener, now)
        if result:
            chains = connector.presented().chain + listener.presented().chain
            self.memo.put(key, (
                max(c.not_before for c in chains),
                min(c.not_after for c in chains),
            ))
        return result
