"""Exception hierarchy for the whole library.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch at whatever granularity they need.  Protocol-level failures carry the
FTP reply code where one exists, security failures carry the offending
subject, and transfer interruptions carry the byte ranges that did arrive so
that restart logic can resume from them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Network / simulation
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """A network-level failure (no route, port in use, link down)."""


class NoRouteError(NetworkError):
    """No path exists between two hosts."""


class PortInUseError(NetworkError):
    """Attempt to listen on a port that already has a listener."""


class ConnectionRefusedError_(NetworkError):
    """Nothing is listening at the requested host:port."""


class LinkDownError(NetworkError):
    """A link on the path is down (fault injection)."""

    def __init__(self, message: str, link: str | None = None) -> None:
        super().__init__(message)
        self.link = link


class ControlChannelDownError(LinkDownError):
    """The control plane of an endpoint is unreachable (chaos injection).

    Subclasses :class:`LinkDownError` so every existing recovery path
    that waits out an outage treats a control disconnect the same way.
    """


class CircuitOpenError(ReproError):
    """A circuit breaker is refusing calls to a repeatedly failing endpoint.

    ``retry_after_s`` is how long (virtual seconds) until the breaker
    moves to half-open and will admit a trial call.
    """

    def __init__(self, message: str, endpoint: str | None = None,
                 retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.endpoint = endpoint
        self.retry_after_s = retry_after_s


class TelemetryNotRecordedError(ReproError):
    """A read of spans or events that the world was built not to keep.

    A ``World`` records spans and events only at ``trace=True``; reading
    them from any other world raises this instead of answering empty, so
    "no such event" is never confused with "nothing was kept".
    """


# ---------------------------------------------------------------------------
# PKI / GSI security
# ---------------------------------------------------------------------------


class SecurityError(ReproError):
    """Base class for security failures."""


class CertificateError(SecurityError):
    """A certificate is malformed, expired, or fails signature checks."""


class UntrustedIssuerError(CertificateError):
    """Chain validation could not reach a trusted root.

    This is the precise failure mode of Figure 4 in the paper: endpoint B
    receives a certificate issued by CA-A, which is not among B's trust
    roots.
    """

    def __init__(self, message: str, issuer: str | None = None) -> None:
        super().__init__(message)
        self.issuer = issuer


class SigningPolicyError(CertificateError):
    """A CA signed a subject outside its permitted namespace."""


class AuthenticationError(SecurityError):
    """Identity could not be established (bad password, bad handshake)."""


class AuthorizationError(SecurityError):
    """Identity established but the action is not permitted."""


class GridmapError(AuthorizationError):
    """No gridmap entry maps the presented subject to a local account."""

    def __init__(self, message: str, subject: str | None = None) -> None:
        super().__init__(message)
        self.subject = subject


class DelegationError(SecurityError):
    """Credential delegation failed or is unsupported (e.g. SSH auth)."""


class ActivationExpiredError(AuthenticationError):
    """An endpoint activation expired between submission and execution.

    Raised at *execution* time (post-queue) so a job that sat in the
    scheduler long enough for its short-term credential to lapse surfaces
    as "re-activate this endpoint", never as a transfer attempt with a
    stale credential.  ``expired_at`` is when the credential lapsed.
    """

    def __init__(self, message: str, endpoint: str | None = None,
                 expired_at: float | None = None) -> None:
        super().__init__(message)
        self.endpoint = endpoint
        self.expired_at = expired_at


# ---------------------------------------------------------------------------
# Fleet scheduler
# ---------------------------------------------------------------------------


class SchedulerError(ReproError):
    """Base class for fleet-scheduler failures."""


class AdmissionError(SchedulerError):
    """A task was refused at the queue door (backpressure).

    ``retry_after_s`` is the scheduler's estimate of when resubmission
    has a fair chance of being admitted (virtual seconds from now).
    """

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class QueueFullError(AdmissionError):
    """The bounded task queue is at capacity; resubmit after the hint."""


class QuotaExceededError(AdmissionError):
    """A per-user queued-task quota is exhausted.

    ``user`` names the account whose quota tripped.
    """

    def __init__(self, message: str, user: str | None = None,
                 retry_after_s: float = 0.0) -> None:
        super().__init__(message, retry_after_s=retry_after_s)
        self.user = user


class LeaseLostError(SchedulerError):
    """A worker tried to act on a claim whose lease already lapsed."""


# ---------------------------------------------------------------------------
# Archival pipeline
# ---------------------------------------------------------------------------


class ArchiveError(ReproError):
    """An archival-pipeline failure (catalog misuse, quorum violation)."""


class IllegalTransitionError(ArchiveError):
    """A component tried a bundle/request status change the state machine forbids."""


# ---------------------------------------------------------------------------
# PAM / local accounts
# ---------------------------------------------------------------------------


class PamError(ReproError):
    """A PAM stack failure."""


class UnknownUserError(PamError):
    """The username does not exist in any account database."""


class AccountLockedError(PamError):
    """The account exists but is administratively disabled."""


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for DSI/storage failures."""


class FileNotFoundStorageError(StorageError):
    """The path does not exist."""


class PermissionDeniedError(StorageError):
    """The requesting uid lacks permission on the path."""


class IsADirectoryStorageError(StorageError):
    """A file operation was attempted on a directory."""


class NotADirectoryStorageError(StorageError):
    """A directory operation was attempted on a file."""


class FileExistsStorageError(StorageError):
    """Exclusive creation hit an existing path."""


# ---------------------------------------------------------------------------
# Protocol / transfer
# ---------------------------------------------------------------------------


class ProtocolError(ReproError):
    """A control-channel protocol violation.

    ``code`` is the FTP reply code the server answered with (or would
    answer with), e.g. 500 for unrecognized commands, 530 for not logged
    in, 550 for file unavailable.
    """

    def __init__(self, message: str, code: int = 500) -> None:
        super().__init__(message)
        self.code = code


class TransferError(ReproError):
    """A data transfer failed outright."""


class TransferFaultError(TransferError):
    """A transfer was interrupted part-way by an injected fault.

    ``received`` is the :class:`repro.gridftp.restart.ByteRangeSet` of data
    that did arrive before the interruption; restart logic resumes from its
    complement.
    """

    def __init__(self, message: str, received=None, at_time: float = 0.0) -> None:
        super().__init__(message)
        self.received = received
        self.at_time = at_time


class DCAUError(SecurityError):
    """Data channel authentication failed (Figure 4 scenario)."""
