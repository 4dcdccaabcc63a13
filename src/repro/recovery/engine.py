"""The recovery engine: checkpoint-restart under a retry policy.

``RecoveryEngine.run`` drives one *operation* (a callable receiving an
:class:`Attempt`) to success or exhaustion:

1. gate the attempt through the circuit breaker (if any);
2. wait out known outages (caller-supplied ``wait_clear``);
3. run the operation inside an attempt span;
4. on a retryable failure, absorb the receiver's restart marker into the
   accumulated checkpoint — round-tripped through the wire format and
   the world's chaos channel, so corrupted markers are *detected and
   discarded* (re-fetch more, never trust garbage) and truncated markers
   merely re-fetch a little extra;
5. back off per the policy (deterministic jitter from the world seed)
   and try again, respecting the max-elapsed budget.

Telemetry: the loop opens one span (default ``recovery.loop``) whose
children are exactly the per-attempt spans; backoff is events+counters
only, so span trees stay stable for assertions.  Counters:
``recovery_attempts_total``, ``recovery_retries_total`` (and the legacy
``retries_total``), ``recovery_faults_total``, ``recovery_backoff_seconds_total``,
``recovery_recovered_total``, ``recovery_exhausted_total``,
``recovery_marker_corruptions_total``, ``recovery_deadline_exceeded_total``
— all labelled by ``component``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import LinkDownError, ProtocolError, TransferFaultError
from repro.gridftp.restart import ByteRangeSet, format_restart_marker, parse_restart_marker
from repro.recovery.breaker import CircuitBreaker
from repro.recovery.policy import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    import random

    from repro.sim.world import World


@dataclass(frozen=True)
class Attempt:
    """What an operation gets to see about the loop driving it."""

    number: int  # 1-based
    checkpoint: ByteRangeSet | None  # accumulated restart marker (None on attempt 1)


@dataclass(frozen=True)
class RecoveryOutcome:
    """A successful loop: the result plus how hard recovery had to work."""

    result: Any
    attempts: int
    checkpoint: ByteRangeSet | None
    faults_survived: int
    total_backoff_s: float


class _Series:
    """One component's recovery series, bound once per world.

    Globus Online builds an engine per job; binding the component's ten
    children here, at the first engine, leaves the loop and every later
    engine no registry lookup or label to resolve.
    """

    __slots__ = ("attempts", "retries", "retries_legacy", "faults", "backoff",
                 "recovered", "exhausted", "deadline", "marker_corruptions",
                 "attempt_seconds")

    def __init__(self, world: "World", component: str) -> None:
        metrics = world.metrics

        def counter(name: str, help: str):
            return metrics.counter(name, help, labelnames=("component",)).labels(
                component=component)

        self.attempts = counter(
            "recovery_attempts_total", "Operation attempts made under recovery loops")
        self.retries = counter(
            "recovery_retries_total", "Attempts that were retries of a failed attempt")
        self.retries_legacy = counter(
            "retries_total", "Transfer attempts retried after a failure")
        self.faults = counter(
            "recovery_faults_total", "Retryable failures absorbed by recovery loops")
        self.backoff = counter(
            "recovery_backoff_seconds_total", "Virtual seconds spent backing off")
        self.recovered = counter(
            "recovery_recovered_total", "Loops that succeeded after at least one failure")
        self.exhausted = counter(
            "recovery_exhausted_total", "Loops that gave up after exhausting their policy")
        self.deadline = counter(
            "recovery_deadline_exceeded_total",
            "Attempts that overran the per-attempt deadline")
        self.marker_corruptions = counter(
            "recovery_marker_corruptions_total",
            "Restart markers discarded or truncated by recovery loops")
        self.attempt_seconds = metrics.histogram(
            "recovery_attempt_seconds",
            "Virtual seconds one recovery attempt spent executing",
            labelnames=("component",)).labels(component=component)

    @classmethod
    def for_world(cls, world: "World", component: str) -> "_Series":
        """The component's series in ``world`` (bound on first use)."""
        bound = world.__dict__.setdefault("_recovery_series", {})
        series = bound.get(component)
        if series is None:
            series = bound[component] = cls(world, component)
        return series


class RecoveryEngine:
    """Drives operations under a :class:`RetryPolicy` (+ optional breaker)."""

    def __init__(
        self,
        world: "World",
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        component: str = "recovery",
        loop_span_name: str = "recovery.loop",
        attempt_span_name: str = "recovery.attempt",
    ) -> None:
        self.world = world
        self.policy = policy or RetryPolicy()
        self.breaker = breaker
        self.component = component
        self.loop_span_name = loop_span_name
        self.attempt_span_name = attempt_span_name
        # the jitter stream, derived at the first backoff: most loops
        # never back off, and deriving it later draws the same values
        self._rng: random.Random | None = None
        self._series = _Series.for_world(world, component)

    # -- the loop -----------------------------------------------------------------

    def run(
        self,
        operation: Callable[[Attempt], Any],
        *,
        endpoint: str | None = None,
        wait_clear: Callable[[int], None] | None = None,
        retry_on: tuple[type[BaseException], ...] = (TransferFaultError, LinkDownError),
        on_failure: Callable[[BaseException, int, ByteRangeSet | None], None] | None = None,
        describe: str = "operation",
        span_fields: dict[str, Any] | None = None,
        wrap_exhausted: bool = False,
    ) -> RecoveryOutcome:
        """Run ``operation`` to success, or raise after exhausting the policy.

        Exceptions in ``retry_on`` are survivable; anything else
        propagates immediately (fatal).  On exhaustion the last
        :class:`TransferFaultError` is re-raised carrying the accumulated
        checkpoint, so a later loop can resume where this one gave up;
        ``wrap_exhausted=True`` wraps *any* final failure that way (for
        callers whose contract is "always raise a restartable fault").
        """
        world = self.world
        policy = self.policy
        component = self.component
        series = self._series

        started = world.now
        checkpoint: ByteRangeSet | None = None
        faults_survived = 0
        total_backoff = 0.0
        last_exc: BaseException | None = None
        attempt_no = 0

        with world.tracer.span(
            self.loop_span_name,
            component=component,
            max_attempts=policy.max_attempts,
            **(span_fields or {}),
        ):
            while attempt_no < policy.max_attempts:
                attempt_no += 1
                if self.breaker is not None and endpoint is not None:
                    self.breaker.check(endpoint)
                if wait_clear is not None:
                    wait_clear(attempt_no)
                series.attempts.inc()
                if attempt_no > 1:
                    series.retries.inc()
                    series.retries_legacy.inc()
                attempt_started = world.now
                try:
                    try:
                        with world.tracer.span(
                            self.attempt_span_name, attempt=attempt_no
                        ):
                            result = operation(Attempt(attempt_no, checkpoint))
                    finally:
                        # inner finally: duration excludes the backoff the
                        # except handler sleeps through below
                        ctx = world.tracer.current
                        series.attempt_seconds.observe(
                            world.now - attempt_started,
                            exemplar=ctx.trace_id if ctx is not None else None)
                except retry_on as exc:
                    last_exc = exc
                    faults_survived += 1
                    series.faults.inc()
                    if self.breaker is not None and endpoint is not None:
                        self.breaker.record_failure(endpoint)
                    if (
                        policy.attempt_timeout_s is not None
                        and world.now - attempt_started > policy.attempt_timeout_s
                    ):
                        series.deadline.inc()
                    if isinstance(exc, TransferFaultError) and exc.received is not None:
                        checkpoint = self._absorb_marker(checkpoint, exc.received)
                    if on_failure is not None:
                        on_failure(exc, attempt_no, checkpoint)
                    world.emit(
                        "recovery.fault", "attempt failed; recovery engaged",
                        component=component, attempt=attempt_no,
                        error=type(exc).__name__,
                        checkpoint_bytes=checkpoint.total_bytes() if checkpoint else 0,
                    )
                    if attempt_no >= policy.max_attempts:
                        break
                    if self._rng is None:
                        self._rng = world.rng.python(f"recovery:{component}")
                    delay = policy.backoff_s(attempt_no, self._rng)
                    if (
                        policy.max_elapsed_s is not None
                        and (world.now - started) + delay > policy.max_elapsed_s
                    ):
                        world.emit(
                            "recovery.budget_exhausted",
                            "max-elapsed budget leaves no room for another attempt",
                            component=component, attempt=attempt_no,
                            elapsed_s=world.now - started,
                            budget_s=policy.max_elapsed_s,
                        )
                        break
                    series.backoff.inc(delay)
                    total_backoff += delay
                    world.emit(
                        "recovery.backoff", "backing off before retry",
                        component=component, attempt=attempt_no, delay_s=delay,
                    )
                    world.advance(delay)
                else:
                    if self.breaker is not None and endpoint is not None:
                        self.breaker.record_success(endpoint)
                    if attempt_no > 1:
                        series.recovered.inc()
                    world.emit(
                        "recovery.succeeded", f"{describe} complete",
                        component=component, attempts=attempt_no,
                        faults_survived=faults_survived,
                        backoff_s=total_backoff,
                    )
                    return RecoveryOutcome(
                        result=result,
                        attempts=attempt_no,
                        checkpoint=checkpoint,
                        faults_survived=faults_survived,
                        total_backoff_s=total_backoff,
                    )

            series.exhausted.inc()
            world.emit(
                "recovery.exhausted", f"{describe} failed after {attempt_no} attempts",
                component=component, attempts=attempt_no,
                error=type(last_exc).__name__ if last_exc else None,
            )
            if wrap_exhausted or isinstance(last_exc, TransferFaultError):
                raise TransferFaultError(
                    f"{describe} failed after {attempt_no} attempts",
                    received=checkpoint,
                    at_time=world.now,
                ) from last_exc
            assert last_exc is not None
            raise last_exc

    # -- restart-marker hygiene --------------------------------------------------

    def _absorb_marker(
        self, checkpoint: ByteRangeSet | None, received: ByteRangeSet
    ) -> ByteRangeSet | None:
        """Union a receiver marker into the checkpoint, surviving corruption.

        The marker crosses the wire format (``format`` → chaos channel →
        ``parse``).  A garbled marker fails to parse: we *discard* it and
        keep the previous checkpoint — recovery re-fetches more than
        strictly needed, which is always safe.  A truncated marker
        parses to a subset: also safe, for the same reason.
        """
        text = format_restart_marker(received)
        filtered = self.world.chaos.filter_marker(text)
        corruptions = self._series.marker_corruptions
        try:
            marker = parse_restart_marker(filtered)
        except ProtocolError as exc:
            corruptions.inc()
            self.world.emit(
                "recovery.marker_corrupt", "restart marker unparseable; discarded",
                component=self.component, error=str(exc),
            )
            return checkpoint
        if filtered != text:
            corruptions.inc()
            self.world.emit(
                "recovery.marker_truncated", "restart marker truncated in flight",
                component=self.component,
                claimed_bytes=marker.total_bytes(),
                actual_bytes=received.total_bytes(),
            )
        return checkpoint.union(marker) if checkpoint is not None else marker
