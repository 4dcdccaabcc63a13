"""The hosted Globus Online service.

"The Globus team operates this hosted service as a third-party
mediator/facilitator of file transfers between GridFTP servers" (paper
Section VI.A).  The service holds an endpoint registry and per-user
activation tables; all of its GridFTP activity originates from its own
host, using the short-term credentials activations obtained — it never
holds a user's long-term key and never stores a password.

Credential-exposure accounting: every time a password transits a party,
a ``credential.exposure`` event is emitted naming that party.  The
Figure 7 benchmark compares the party sets of password activation
(site + Globus Online) vs OAuth activation (site only).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.endpoint import EndpointInfo
from repro.core.gcmu import GCMUEndpoint
from repro.errors import ActivationExpiredError, AuthenticationError, ReproError
from repro.globusonline.oauth import OAuthServer
from repro.globusonline.transfer import (
    BatchTransferJob,
    JobStatus,
    TransferJob,
    run_batch_job,
    run_job,
)
from repro.gridftp.transfer import TransferOptions
from repro.myproxy.client import myproxy_logon
from repro.pki.credential import Credential
from repro.pki.validation import TrustStore
from repro.recovery import CircuitBreaker, RetryPolicy
from repro.scheduler import (
    CoalescedBatch,
    FleetScheduler,
    ScheduledTask,
    SchedulerConfig,
    ShardedFleetScheduler,
    TaskState,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.world import World
    from repro.telemetry.metrics import CounterChild


@dataclass
class Activation:
    """A user's live short-term credential for one endpoint."""

    endpoint_name: str
    credential: Credential
    activated_at: float

    def valid_at(self, t: float) -> bool:
        """True while the credential is within validity."""
        return self.credential.valid_at(t)


@dataclass
class GOUser:
    """A Globus Online account."""

    name: str
    activations: dict[str, Activation] = field(default_factory=dict)

    def activation_for(self, endpoint_name: str, now: float) -> Activation:
        """The live activation for an endpoint (or raise)."""
        act = self.activations.get(endpoint_name)
        if act is None:
            raise AuthenticationError(
                f"user {self.name!r} has not activated endpoint {endpoint_name!r}"
            )
        if not act.valid_at(now):
            raise ActivationExpiredError(
                f"activation for {endpoint_name!r} has expired; re-activate",
                endpoint=endpoint_name,
                expired_at=act.credential.expires_at(),
            )
        return act


@dataclass
class EndpointRecord:
    """One registered endpoint."""

    info: EndpointInfo
    gcmu: GCMUEndpoint | None = None
    oauth: OAuthServer | None = None
    #: trust anchors needed to validate this endpoint's GridFTP server
    trust: TrustStore = field(default_factory=TrustStore)

    @property
    def gridftp_address(self) -> tuple[str, int]:
        """The GridFTP server's (host, port)."""
        return self.info.gridftp_address


class GlobusOnline:
    """The SaaS itself, running on its own host."""

    def __init__(
        self,
        world: "World",
        host: str,
        scheduler_config: SchedulerConfig | None = None,
        shards: int | None = None,
    ) -> None:
        world.network.host(host)  # must exist in the topology
        self.world = world
        self.host = host
        self.endpoints: dict[str, EndpointRecord] = {}
        self.users: dict[str, GOUser] = {}
        self.jobs: dict[str, TransferJob | BatchTransferJob] = {}
        self._job_ids = itertools.count(1)
        # globusonline_activations_total{method}, bound at each method's
        # first activation
        self._activations: dict[str, CounterChild] = {}
        # recovery posture for all jobs: exponential backoff with seeded
        # jitter, and a breaker per endpoint pair so a dead site stops
        # consuming attempts across jobs.
        self.retry_policy = RetryPolicy(
            max_attempts=5, initial_backoff_s=15.0, multiplier=2.0,
            max_backoff_s=240.0, jitter=0.1,
        )
        self.breaker = CircuitBreaker(
            world.clock, failure_threshold=5, reset_timeout_s=600.0,
            on_open=self._on_breaker_open,
        )
        # every submission flows through the fleet scheduler: fair-share
        # queuing across accounts, lease-based workers, admission control,
        # and small-file coalescing into pipelined batch jobs.  With
        # shards=N the control plane hashes accounts across N scheduler
        # shards behind the work-stealing router (DESIGN.md §14);
        # shards=None keeps the single unsharded scheduler.
        if shards is None:
            self.scheduler: FleetScheduler | ShardedFleetScheduler = (
                FleetScheduler(
                    world, scheduler_config or SchedulerConfig(),
                    fold_batch=self._fold_batch,
                ))
        else:
            self.scheduler = ShardedFleetScheduler(
                world, scheduler_config or SchedulerConfig(),
                fold_batch=self._fold_batch, shards=shards,
            )

    def _on_breaker_open(self, key: str) -> None:
        """Flush pooled control channels when an endpoint pair's circuit opens.

        The breaker key is ``"<src endpoint>-><dst endpoint>"``; a circuit
        opening means the fabric has declared those sites unhealthy, so
        holding authenticated channels to them would hand the next job a
        connection the real world would have lost.  Safe unconditionally:
        invalidation only forces the full handshake, which charges and
        fails exactly as an unpooled world would.
        """
        pool = getattr(self.world, "_control_channel_pool", None)
        if pool is None:
            return
        for name in key.split("->"):
            record = self.endpoints.get(name)
            if record is not None:
                pool.invalidate_host(record.gridftp_address[0])

    # -- registry -----------------------------------------------------------

    def register_endpoint(
        self,
        info: EndpointInfo,
        gcmu: GCMUEndpoint | None = None,
        oauth: OAuthServer | None = None,
    ) -> EndpointRecord:
        """Publish an endpoint (GCMU's install option does this)."""
        record = EndpointRecord(info=info, gcmu=gcmu, oauth=oauth)
        if gcmu is not None:
            # registration carries the site CA certificate so the service
            # can validate the endpoint's host certificate.
            record.trust.add_anchor(gcmu.myproxy.ca.certificate)
        self.endpoints[info.name] = record
        self.world.emit("globusonline.register", "endpoint registered",
                        endpoint=info.name, site=info.site)
        return record

    def attach_oauth(self, endpoint_name: str, oauth: OAuthServer) -> None:
        """Enable the Figure 7 flow for an already-registered endpoint."""
        self.endpoint(endpoint_name).oauth = oauth

    def endpoint(self, name: str) -> EndpointRecord:
        """Look up a registered endpoint record."""
        try:
            return self.endpoints[name]
        except KeyError:
            raise ReproError(f"unknown endpoint {name!r}") from None

    def register_user(self, name: str) -> GOUser:
        """Create a Globus Online account."""
        user = GOUser(name=name)
        self.users[name] = user
        return user

    # -- activation (Figure 6) ------------------------------------------------

    def activate(
        self,
        user: GOUser,
        endpoint_name: str,
        username: str,
        password: str,
        lifetime_s: float | None = None,
    ) -> Activation:
        """Password activation: the user types credentials into the
        Globus Online web page, which relays them to the endpoint's
        MyProxy CA.  The password transits Globus Online (exposure is
        recorded) but is not stored — only the short-term certificate is.
        """
        record = self.endpoint(endpoint_name)
        if not record.info.supports_activation:
            raise AuthenticationError(
                f"endpoint {endpoint_name!r} has no MyProxy CA for activation"
            )
        with self.world.tracer.span(
            "globusonline.activate", endpoint=endpoint_name, method="password"
        ):
            self.world.emit(
                "credential.exposure", "password observed",
                party="globusonline", username=username, channel="web-activation",
            )
            self.world.emit(
                "credential.exposure", "password observed",
                party=f"site:{record.info.site}", username=username, channel="myproxy-logon",
            )
            credential = myproxy_logon(
                self.world,
                self.host,
                record.info.myproxy_address,
                username,
                password,
                lifetime_s=lifetime_s,
                trust=record.trust,
            )
            activation = Activation(
                endpoint_name=endpoint_name,
                credential=credential,
                activated_at=self.world.now,
            )
            user.activations[endpoint_name] = activation
            self._count_activation("password")
            self.world.emit("globusonline.activate", "endpoint activated",
                            user=user.name, endpoint=endpoint_name, method="password")
            return activation

    def _count_activation(self, method: str) -> None:
        child = self._activations.get(method)
        if child is None:
            child = self._activations[method] = self.world.metrics.counter(
                "globusonline_activations_total", "Endpoint activations by method",
                labelnames=("method",),
            ).labels(method=method)
        child.inc()

    def activate_oauth(
        self,
        user: GOUser,
        endpoint_name: str,
        username: str,
        password: str,
        lifetime_s: float | None = None,
    ) -> Activation:
        """OAuth activation (Figure 7): the password goes only to the
        site's own web page; Globus Online receives an authorization code
        and exchanges it for the short-term credential.
        """
        record = self.endpoint(endpoint_name)
        if record.oauth is None:
            raise AuthenticationError(
                f"endpoint {endpoint_name!r} has no OAuth server configured"
            )
        with self.world.tracer.span(
            "globusonline.activate", endpoint=endpoint_name, method="oauth"
        ):
            # the user's browser talks to the site directly: the exposure
            # event for the site is emitted by OAuthServer.authorize itself.
            code = record.oauth.authorize(username, password, lifetime_s)
            credential = record.oauth.exchange(code)
            if record.gcmu is not None:
                record.trust.add_anchor(record.gcmu.myproxy.ca.certificate)
            activation = Activation(
                endpoint_name=endpoint_name,
                credential=credential,
                activated_at=self.world.now,
            )
            user.activations[endpoint_name] = activation
            self._count_activation("oauth")
            self.world.emit("globusonline.activate", "endpoint activated",
                            user=user.name, endpoint=endpoint_name, method="oauth")
            return activation

    # -- transfers (Figure 6), through the fleet scheduler ---------------------

    def set_fair_share(self, user: GOUser | str, weight: float) -> None:
        """Assign a user's fair-share weight (byte shares track weights)."""
        name = user if isinstance(user, str) else user.name
        self.scheduler.set_weight(name, weight)

    def _size_hint(self, endpoint_name: str, path: str) -> int:
        """Best-effort size estimate for admission budgets and batching.

        Registered GCMU endpoints expose their storage; a superuser stat
        there mirrors the hosted service's metadata sweep.  Unknown sizes
        assume "large" so the file never coalesces and budgets stay safe.
        """
        from repro.scheduler import DEFAULT_BATCH_THRESHOLD_BYTES

        record = self.endpoints.get(endpoint_name)
        if record is not None and record.gcmu is not None:
            try:
                return record.gcmu.storage.stat(path, 0).size
            except ReproError:
                pass
        return DEFAULT_BATCH_THRESHOLD_BYTES

    def _bind_job(self, task: ScheduledTask, job) -> None:
        """Reflect scheduler task state onto the owning job."""

        def on_claim(t: ScheduledTask) -> None:
            job.status = JobStatus.CLAIMED

        def on_requeue(t: ScheduledTask) -> None:
            if t.state is TaskState.FAILED:
                job.status = JobStatus.FAILED
                job.error = t.error
            else:
                job.status = JobStatus.QUEUED

        task.on_claim = on_claim
        task.on_requeue = on_requeue

    def submit_transfer(
        self,
        user: GOUser,
        src_endpoint: str,
        src_path: str,
        dst_endpoint: str,
        dst_path: str,
        options: TransferOptions | None = None,
        max_attempts: int = 5,
        priority: int = 0,
        defer: bool = False,
    ) -> TransferJob:
        """Submit a transfer job through the fleet scheduler.

        With ``options=None`` the service auto-tunes (Section VI.A).
        The job survives injected faults by re-authenticating with the
        stored short-term credentials and restarting from the last
        checkpoint.  By default the call drains the queue before
        returning (synchronous in virtual time, as before); with
        ``defer=True`` the job stays QUEUED until :meth:`process_queue`
        runs — that is how fleet campaigns batch up contention.  A full
        queue or exhausted quota raises a typed admission error with a
        retry-after hint.
        """
        job = TransferJob(
            job_id=f"go-{next(self._job_ids):06d}",
            user=user.name,
            src_endpoint=src_endpoint,
            src_path=src_path,
            dst_endpoint=dst_endpoint,
            dst_path=dst_path,
            submitted_at=self.world.now,
            max_attempts=max_attempts,
        )
        task = ScheduledTask(
            task_id="",
            user=user.name,
            src_endpoint=src_endpoint,
            dst_endpoint=dst_endpoint,
            size_hint=self._size_hint(src_endpoint, src_path),
            execute=lambda: run_job(self, user, job, options),
            measure=lambda j: j.result.nbytes if j.result is not None else 0,
            priority=priority,
            job_id=job.job_id,
        )
        self._bind_job(task, job)
        self.scheduler.submit(task)  # may raise QueueFullError / QuotaExceededError
        self.jobs[job.job_id] = job
        if not defer:
            self.process_queue()
        return job

    def submit_batch_transfer(
        self,
        user: GOUser,
        src_endpoint: str,
        dst_endpoint: str,
        pairs: list[tuple[str, str]],
        options: TransferOptions | None = None,
        priority: int = 0,
        defer: bool = False,
    ) -> BatchTransferJob:
        """Submit a multi-file (directory-style) transfer.

        The batch path pipelines the control traffic, reuses mode E data
        channels, and moves several files concurrently — the reason a
        folder of small files through Globus Online does not cost one
        round trip per file.  Batch jobs never re-coalesce; they are
        already the coalesced form.
        """
        job = BatchTransferJob(
            job_id=f"go-batch-{next(self._job_ids):06d}",
            user=user.name,
            src_endpoint=src_endpoint,
            dst_endpoint=dst_endpoint,
            pairs=tuple(pairs),
            submitted_at=self.world.now,
        )
        task = ScheduledTask(
            task_id="",
            user=user.name,
            src_endpoint=src_endpoint,
            dst_endpoint=dst_endpoint,
            size_hint=sum(self._size_hint(src_endpoint, sp) for sp, _ in pairs),
            execute=lambda: run_batch_job(self, user, job, options),
            measure=lambda j: j.bytes_done,
            priority=priority,
            job_id=job.job_id,
            coalesce=False,
        )
        self._bind_job(task, job)
        self.scheduler.submit(task)
        self.jobs[job.job_id] = job
        if not defer:
            self.process_queue()
        return job

    def _fold_batch(self, bucket: "CoalescedBatch") -> ScheduledTask:
        """Coalesce queued sub-threshold single-file tasks into one batch.

        The member jobs stay visible under their own ids; their statuses
        track the folded batch job's fate.
        """
        members = [self.jobs[t.job_id] for t in bucket.tasks]
        batch = BatchTransferJob(
            job_id=f"go-batch-{next(self._job_ids):06d}",
            user=bucket.user,
            src_endpoint=bucket.src_endpoint,
            dst_endpoint=bucket.dst_endpoint,
            pairs=tuple((m.src_path, m.dst_path) for m in members),
            submitted_at=self.world.now,
        )
        self.jobs[batch.job_id] = batch
        user = self.users[bucket.user]

        def execute() -> BatchTransferJob:
            run_batch_job(self, user, batch, None)
            for member in members:
                member.status = batch.status
                member.error = batch.error
                member.needs_reactivation = batch.needs_reactivation
                member.completed_at = batch.completed_at
            return batch

        task = ScheduledTask(
            task_id="",
            user=bucket.user,
            src_endpoint=bucket.src_endpoint,
            dst_endpoint=bucket.dst_endpoint,
            size_hint=bucket.total_bytes,
            execute=execute,
            measure=lambda b: b.bytes_done,
            job_id=batch.job_id,
            coalesce=False,
        )
        self._bind_job(task, batch)
        return task

    def process_queue(self) -> int:
        """Drain the scheduler (advancing virtual time); tasks serviced."""
        return self.scheduler.run_until_idle()

    def job_status(self, job_id: str) -> JobStatus:
        """Status of a submitted job by id."""
        return self.jobs[job_id].status
