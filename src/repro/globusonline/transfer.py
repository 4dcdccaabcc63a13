"""Globus Online transfer jobs: monitoring, retry, checkpoint restart.

Figure 6's recovery story: "If any failure occurs during the transfer,
Globus Online will use the short-term certificate to reauthenticate with
the endpoints on the user's behalf and restart the transfer from the
last checkpoint."  ``run_job`` is that loop: each attempt opens fresh
control channels (re-authentication with the stored activation
credentials), installs a DCSC context automatically when the two
endpoints live in different trust domains (Section VIII: "all the
transfers done by Globus Online are third-party transfers"), and resumes
from the accumulated restart markers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    ActivationExpiredError,
    LinkDownError,
    ReproError,
    TransferError,
    TransferFaultError,
)
from repro.gridftp.client import ClientSession, GridFTPClient
from repro.gridftp.replies import size_of
from repro.gridftp.restart import ByteRangeSet
from repro.gridftp.third_party import (
    install_dcsc_contexts,
    third_party_transfer,
    wait_paths_clear,
)
from repro.gridftp.transfer import TransferOptions, TransferResult
from repro.gridftp.tuning import DatasetShape, autotune
from repro.recovery import RecoveryEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.globusonline.service import GlobusOnline, GOUser


class JobStatus(enum.Enum):
    """Lifecycle of a transfer job.

    Jobs now flow through the fleet scheduler: QUEUED on submission,
    CLAIMED when a worker leases the task, ACTIVE while bytes move, and
    finally SUCCEEDED or FAILED.  A lapsed lease sends a CLAIMED job
    back to QUEUED.
    """

    QUEUED = "queued"
    CLAIMED = "claimed"
    ACTIVE = "active"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass(slots=True)
class BatchTransferJob:
    """A multi-file (directory-style) transfer task.

    Globus Online's normal unit of work is a folder, not a file; the
    batch job pipelines the control traffic, reuses mode E data channels
    and moves ``concurrency`` files at once.
    """

    job_id: str
    user: str
    src_endpoint: str
    dst_endpoint: str
    pairs: tuple[tuple[str, str], ...]
    submitted_at: float
    status: JobStatus = JobStatus.QUEUED
    files_done: int = 0
    bytes_done: int = 0
    error: str = ""
    completed_at: float | None = None
    #: the activation lapsed while the job sat in the queue; re-activate
    needs_reactivation: bool = False


@dataclass(slots=True)
class TransferJob:
    """One submitted transfer task."""

    job_id: str
    user: str
    src_endpoint: str
    src_path: str
    dst_endpoint: str
    dst_path: str
    submitted_at: float
    max_attempts: int = 5
    status: JobStatus = JobStatus.QUEUED
    attempts: int = 0
    #: the activation lapsed while the job sat in the queue; re-activate
    needs_reactivation: bool = False
    faults_survived: int = 0
    result: TransferResult | None = None
    error: str = ""
    #: the restart marker as of the last fault; None until one happens
    checkpoint: ByteRangeSet | None = None
    completed_at: float | None = None
    #: set after a successful post-transfer CKSM comparison
    checksum_verified: bool = False

    @property
    def bytes_at_checkpoint(self) -> int:
        """Bytes safely received before the interruption (0 before any)."""
        return 0 if self.checkpoint is None else self.checkpoint.total_bytes()


def _connect_sessions(go: "GlobusOnline", user: "GOUser", job: TransferJob):
    """(Re-)authenticate to both endpoints with the activation credentials."""
    now = go.world.now
    src_rec = go.endpoint(job.src_endpoint)
    dst_rec = go.endpoint(job.dst_endpoint)
    src_act = user.activation_for(job.src_endpoint, now)
    dst_act = user.activation_for(job.dst_endpoint, now)
    src_client = GridFTPClient(
        go.world, go.host, credential=src_act.credential, trust=src_rec.trust,
        username=user.name,
    )
    dst_client = GridFTPClient(
        go.world, go.host, credential=dst_act.credential, trust=dst_rec.trust,
        username=user.name,
    )
    # pooled: repeat jobs between the same (user, endpoint) pair reuse the
    # authenticated control channel instead of re-running the handshake
    src_session = src_client.connect(src_rec.gridftp_address, pooled=True)
    dst_session = dst_client.connect(dst_rec.gridftp_address, pooled=True)
    return src_rec, dst_rec, src_act, dst_act, src_session, dst_session


def _release(*sessions: ClientSession) -> None:
    """Give each session back (to the pool when it qualifies), whatever befell it."""
    for session in sessions:
        try:
            session.release()
        except Exception:
            pass


def _fail(world, job: "TransferJob | BatchTransferJob", exc: ReproError) -> None:
    """Mark ``job`` FAILED with ``exc``.

    An :class:`ActivationExpiredError` is the execution-time pre-flight
    catching a credential that lapsed while the job sat in the queue: the
    job must not be retried with the stale activation — the user
    re-activates.
    """
    job.error = str(exc)
    job.status = JobStatus.FAILED
    if isinstance(exc, ActivationExpiredError):
        job.needs_reactivation = True
        world.emit(
            "globusonline.job.reactivation_required",
            "activation expired while queued; re-activate the endpoint",
            job=job.job_id, endpoint=exc.endpoint, expired_at=exc.expired_at,
        )


def _cross_domain(src_rec, dst_rec) -> bool:
    """Do the endpoints share any trust anchor?  If not, DCSC is required."""
    src_fps = set(src_rec.trust.anchors)
    dst_fps = set(dst_rec.trust.anchors)
    return not (src_fps & dst_fps)


def run_job(
    go: "GlobusOnline",
    user: "GOUser",
    job: TransferJob,
    options: TransferOptions | None = None,
) -> TransferJob:
    """Drive a job to SUCCEEDED or FAILED (advancing virtual time).

    The whole job runs under a ``globusonline.job`` tracer span; each
    attempt's transfer gets a child ``attempt`` span and re-attempts
    count into ``retries_total{component="globusonline"}``.
    """
    with go.world.tracer.span("globusonline.job", job=job.job_id, user=job.user):
        return _run_job(go, user, job, options)


def _run_job(
    go: "GlobusOnline",
    user: "GOUser",
    job: TransferJob,
    options: TransferOptions | None = None,
) -> TransferJob:
    world = go.world
    job.status = JobStatus.ACTIVE
    engine = RecoveryEngine(
        world,
        policy=go.retry_policy.with_(max_attempts=job.max_attempts),
        breaker=go.breaker,
        component="globusonline",
        loop_span_name="globusonline.retry",
        attempt_span_name="attempt",
    )

    def job_routes():
        """The data route and both control routes; outages there stall the job."""
        src_host = go.endpoint(job.src_endpoint).gridftp_address[0]
        dst_host = go.endpoint(job.dst_endpoint).gridftp_address[0]
        return ((src_host, dst_host), (go.host, src_host), (go.host, dst_host))

    def operation(att) -> TransferResult:
        job.attempts = att.number
        # re-authentication with the stored short-term certificate is
        # exactly the Figure 6 story: each attempt opens fresh channels.
        src_rec, dst_rec, src_act, _, src_session, dst_session = _connect_sessions(
            go, user, job
        )
        try:
            opts = options
            if opts is None:
                size = src_session.size(job.src_path)
                path = world.network.path(
                    src_rec.gridftp_address[0], dst_rec.gridftp_address[0]
                )
                opts = autotune(DatasetShape(file_count=1, total_bytes=size), path)
            # Globus Online transfers are always third-party; cross-domain
            # endpoint pairs get a DCSC context built from the source
            # activation credential (the Figure 5 strategy).
            dcsc_credential = src_act.credential if _cross_domain(src_rec, dst_rec) else None
            result = third_party_transfer(
                src_session,
                job.src_path,
                dst_session,
                job.dst_path,
                opts,
                use_dcsc=dcsc_credential,
                restart=att.checkpoint,
            )
            # post-transfer integrity: CKSM on both endpoints must agree
            # (the hosted service's end-to-end check).  A mismatch is not
            # restartable — the bytes landed but are wrong.
            src_sum = src_session.checksum(job.src_path)
            dst_sum = dst_session.checksum(job.dst_path)
            if src_sum != dst_sum:
                raise TransferError(
                    f"checksum mismatch after transfer: {src_sum} != {dst_sum}"
                )
            job.checksum_verified = True
            return result
        finally:
            _release(src_session, dst_session)

    def on_failure(exc: BaseException, attempt: int, checkpoint) -> None:
        job.error = str(exc)
        if isinstance(exc, TransferFaultError):
            job.faults_survived += 1
            job.checkpoint = checkpoint.copy() if checkpoint is not None else ByteRangeSet()
            world.emit(
                "globusonline.job.fault", "transfer interrupted; will restart",
                job=job.job_id, checkpoint_bytes=job.bytes_at_checkpoint,
                attempt=attempt,
            )

    try:
        outcome = engine.run(
            operation,
            endpoint=f"{job.src_endpoint}->{job.dst_endpoint}",
            wait_clear=lambda _n: wait_paths_clear(world, job_routes()),
            retry_on=(TransferFaultError, LinkDownError),
            on_failure=on_failure,
            describe=f"job {job.job_id}",
            span_fields={"job": job.job_id},
        )
    except ReproError as exc:
        _fail(world, job, exc)
        world.emit("globusonline.job.failed", "job failed", job=job.job_id,
                   reason=job.error)
        return job

    job.status = JobStatus.SUCCEEDED
    job.result = outcome.result
    job.completed_at = world.now
    world.emit(
        "globusonline.job.succeeded", "job complete",
        job=job.job_id, attempts=job.attempts, nbytes=outcome.result.nbytes,
        faults_survived=job.faults_survived,
    )
    return job


def run_batch_job(
    go: "GlobusOnline",
    user: "GOUser",
    job: BatchTransferJob,
    options: TransferOptions | None = None,
) -> BatchTransferJob:
    """Drive a multi-file job: pipelined control, cached data channels,
    concurrent file lanes.

    Auto-tunes from the whole dataset shape when ``options`` is None.
    Fault handling is per-job: a mid-batch outage fails the job, and a
    resubmitted job sends every file again.  Nothing is verified: a batch
    sends no CKSM, so a file counts as done when the data channel
    delivered it.  The single-file path owns checkpoint restart and
    checksum verification.
    """
    with go.world.tracer.span(
        "globusonline.batch", job=job.job_id, files=len(job.pairs)
    ):
        return _run_batch_job(go, user, job, options)


def _run_batch_job(
    go: "GlobusOnline",
    user: "GOUser",
    job: BatchTransferJob,
    options: TransferOptions | None = None,
) -> BatchTransferJob:
    world = go.world
    job.status = JobStatus.ACTIVE
    try:
        src_rec, dst_rec, src_act, _, src_session, dst_session = _connect_sessions(
            go, user, job
        )
    except ReproError as exc:
        _fail(world, job, exc)
        return job
    try:
        # pipelined SIZE sweep for auto-tuning (and early missing-file errors)
        sizes = [size_of(r) for r in src_session.pipeline([f"SIZE {sp}" for sp, _ in job.pairs])]
        opts = options
        if opts is None:
            path = world.network.path(
                src_rec.gridftp_address[0], dst_rec.gridftp_address[0]
            )
            opts = autotune(DatasetShape.from_sizes(sizes), path)
        src_session.apply_options(opts)
        dst_session.apply_options(opts)
        if _cross_domain(src_rec, dst_rec):
            install_dcsc_contexts(src_session, dst_session, src_act.credential)
        addr = dst_session.passive()
        src_session.port(addr)

        # pipeline the STOR/RETR pairs on their respective channels
        dst_session.pipeline([f"STOR {dp}" for _, dp in job.pairs])
        src_session.pipeline([f"RETR {sp}" for sp, _ in job.pairs])

        src_ss = src_session.server_session
        dst_ss = dst_session.server_session
        files = [(src_ss.take_intent(), dst_ss.take_intent(), size) for size in sizes]
        lanes = src_session.client.engine.execute_lanes(
            files,
            lambda f: (src_ss.source_end(f[0]), dst_ss.sink_end(f[1], f[2])),
            opts,
        )
        for (send_intent, recv_intent, _), result in lanes:
            job.files_done += 1
            job.bytes_done += result.nbytes
            src_ss.record(result, "retrieve", send_intent)
            dst_ss.record(result, "store", recv_intent)
        job.status = JobStatus.SUCCEEDED
        job.completed_at = world.now
        world.emit("globusonline.batch.succeeded", "batch complete",
                   job=job.job_id, files=job.files_done, nbytes=job.bytes_done)
        return job
    except ReproError as exc:
        _fail(world, job, exc)
        world.emit("globusonline.batch.failed", "batch failed",
                   job=job.job_id, reason=job.error, files_done=job.files_done)
        return job
    finally:
        _release(src_session, dst_session)
