"""RecoveryEngine: the loop itself, against a bare world."""

import pytest

from repro.errors import (
    AuthenticationError,
    CircuitOpenError,
    LinkDownError,
    TransferFaultError,
)
from repro.gridftp.restart import ByteRangeSet
from repro.recovery import CircuitBreaker, RecoveryEngine, RetryPolicy
from repro.sim.faults import ChaosConfig
from repro.sim.world import World
from tests.conftest import traced


@pytest.fixture
def world(request):
    return World(seed=7, trace=traced(request))


def flaky(n_failures, marker_per_attempt=None, exc=TransferFaultError):
    """An operation failing its first ``n_failures`` calls."""
    calls = {"n": 0}

    def op(att):
        calls["n"] += 1
        if calls["n"] <= n_failures:
            received = None
            if marker_per_attempt is not None:
                received = ByteRangeSet(marker_per_attempt[calls["n"] - 1])
            if exc is TransferFaultError:
                raise TransferFaultError("boom", received=received)
            raise exc("boom")
        return f"ok after {calls['n']}"

    return op


def test_first_attempt_success(world):
    engine = RecoveryEngine(world, RetryPolicy(max_attempts=3))
    outcome = engine.run(flaky(0))
    assert outcome.result == "ok after 1"
    assert outcome.attempts == 1
    assert outcome.faults_survived == 0
    assert outcome.total_backoff_s == 0.0
    assert world.metrics.counter(
        "recovery_attempts_total", labelnames=("component",)
    ).value(component="recovery") == 1


def test_retries_until_success_and_counts(world):
    engine = RecoveryEngine(world, RetryPolicy(max_attempts=5, initial_backoff_s=2.0),
                            component="t")
    t0 = world.now
    outcome = engine.run(flaky(2))
    assert outcome.attempts == 3
    assert outcome.faults_survived == 2
    # backoff actually advanced the virtual clock
    assert world.now - t0 == pytest.approx(outcome.total_backoff_s)
    assert outcome.total_backoff_s >= 2.0 + 4.0  # base schedule, jitter adds
    m = world.metrics
    assert m.counter("recovery_retries_total", labelnames=("component",)).value(component="t") == 2
    assert m.counter("retries_total", labelnames=("component",)).value(component="t") == 2
    assert m.counter("recovery_recovered_total", labelnames=("component",)).value(component="t") == 1


def test_checkpoint_accumulates_markers(world):
    engine = RecoveryEngine(world, RetryPolicy(max_attempts=4, initial_backoff_s=0.1))
    seen = []

    def op(att):
        seen.append(att.checkpoint.copy() if att.checkpoint else None)
        if att.number == 1:
            raise TransferFaultError("cut", received=ByteRangeSet([(0, 100)]))
        if att.number == 2:
            raise TransferFaultError("cut", received=ByteRangeSet([(100, 250)]))
        return "done"

    outcome = engine.run(op)
    assert seen[0] is None
    assert list(seen[1]) == [(0, 100)]
    assert list(seen[2]) == [(0, 250)]  # coalesced union
    assert list(outcome.checkpoint) == [(0, 250)]


def test_exhaustion_reraises_with_checkpoint(world):
    engine = RecoveryEngine(world, RetryPolicy(max_attempts=3, initial_backoff_s=0.1))
    with pytest.raises(TransferFaultError, match="failed after 3 attempts") as exc:
        engine.run(
            flaky(99, marker_per_attempt=[[(0, 10)], [(10, 20)], [(20, 30)]]),
            describe="the transfer",
        )
    assert list(exc.value.received) == [(0, 30)]
    assert world.metrics.counter(
        "recovery_exhausted_total", labelnames=("component",)
    ).value(component="recovery") == 1


def test_non_retryable_propagates_immediately(world):
    engine = RecoveryEngine(world, RetryPolicy(max_attempts=5))
    calls = {"n": 0}

    def op(att):
        calls["n"] += 1
        raise AuthenticationError("bad password")

    with pytest.raises(AuthenticationError):
        engine.run(op)
    assert calls["n"] == 1


def test_wrap_exhausted_wraps_link_down(world):
    engine = RecoveryEngine(world, RetryPolicy(max_attempts=2, initial_backoff_s=0.1))
    with pytest.raises(TransferFaultError, match="attempts"):
        engine.run(flaky(99, exc=LinkDownError), retry_on=(LinkDownError,),
                   wrap_exhausted=True)


def test_unwrapped_exhaustion_reraises_original(world):
    engine = RecoveryEngine(world, RetryPolicy(max_attempts=2, initial_backoff_s=0.1))
    with pytest.raises(LinkDownError):
        engine.run(flaky(99, exc=LinkDownError), retry_on=(LinkDownError,))


def test_max_elapsed_budget_stops_early(world):
    policy = RetryPolicy(max_attempts=10, initial_backoff_s=100.0, jitter=0.0,
                         max_elapsed_s=150.0)
    engine = RecoveryEngine(world, policy)
    calls = {"n": 0}

    def op(att):
        calls["n"] += 1
        raise TransferFaultError("boom", received=None)

    with pytest.raises(TransferFaultError):
        engine.run(op)
    # attempt 1 fails, backoff 100 fits; attempt 2 fails, next backoff
    # (200 elapsed-with-delay) busts the budget -> stop at 2 attempts
    assert calls["n"] == 2


def test_breaker_integration_opens_and_refuses(world):
    breaker = CircuitBreaker(world.clock, failure_threshold=2, reset_timeout_s=1e6)
    policy = RetryPolicy(max_attempts=2, initial_backoff_s=0.1)
    engine = RecoveryEngine(world, policy, breaker=breaker)
    with pytest.raises(TransferFaultError):
        engine.run(flaky(99), endpoint="a->b")
    # two failures opened the circuit; a new loop is refused up front
    with pytest.raises(CircuitOpenError):
        engine.run(flaky(0), endpoint="a->b")
    # a different endpoint is unaffected
    assert engine.run(flaky(0), endpoint="a->c").attempts == 1


def test_breaker_success_closes(world):
    breaker = CircuitBreaker(world.clock, failure_threshold=3, reset_timeout_s=60.0)
    engine = RecoveryEngine(world, RetryPolicy(max_attempts=5, initial_backoff_s=0.1),
                            breaker=breaker)
    outcome = engine.run(flaky(2), endpoint="x")
    assert outcome.attempts == 3
    assert breaker.failures("x") == 0


def test_wait_clear_called_per_attempt(world):
    calls = []
    engine = RecoveryEngine(world, RetryPolicy(max_attempts=3, initial_backoff_s=0.1))
    engine.run(flaky(1), wait_clear=calls.append)
    assert calls == [1, 2]


def test_on_failure_hook_sees_checkpoint(world):
    engine = RecoveryEngine(world, RetryPolicy(max_attempts=3, initial_backoff_s=0.1))
    hooks = []
    engine.run(
        flaky(1, marker_per_attempt=[[(0, 50)]]),
        on_failure=lambda exc, n, cp: hooks.append((type(exc).__name__, n, list(cp))),
    )
    assert hooks == [("TransferFaultError", 1, [(0, 50)])]


@pytest.mark.traced
def test_span_names_are_configurable(world):
    engine = RecoveryEngine(world, RetryPolicy(max_attempts=3, initial_backoff_s=0.1),
                            loop_span_name="retry_loop", attempt_span_name="attempt")
    engine.run(flaky(1))
    names = [s.name for s in world.tracer.spans]
    assert "retry_loop" in names
    assert names.count("attempt") == 2


def test_jitter_schedule_replays_per_seed():
    def backoffs(seed, runs=1):
        """Virtual seconds each of ``runs`` failing loops on one engine took."""
        w = World(seed=seed)
        engine = RecoveryEngine(w, RetryPolicy(max_attempts=4, initial_backoff_s=1.0))
        totals = []
        for _ in range(runs):
            t0 = w.now
            with pytest.raises(TransferFaultError):
                engine.run(flaky(99))
            totals.append(w.now - t0)
        return totals

    # totals pinned from a stream derived at engine construction: one
    # derived at the first backoff must draw the same, seed by seed
    assert backoffs(11) == [7.31253063419077]
    assert backoffs(12) == [7.243212367609638]
    # a second failing loop on the same engine continues the stream
    assert backoffs(11, runs=2) == [7.31253063419077, 7.159732477322855]
    assert backoffs(12, runs=2) == [7.243212367609638, 7.3418504585434645]


def test_garbled_marker_is_discarded_not_trusted(world):
    """A chaos-garbled restart marker must never enter the checkpoint."""
    world.chaos.configure(ChaosConfig(marker_corruption_prob=1.0))
    engine = RecoveryEngine(world, RetryPolicy(max_attempts=6, initial_backoff_s=0.1))
    checkpoints = []

    def op(att):
        checkpoints.append(att.checkpoint)
        if att.number < 4:
            raise TransferFaultError("cut", received=ByteRangeSet([(0, 100 * att.number)]))
        return "done"

    engine.run(op)
    corruptions = world.metrics.counter(
        "chaos_marker_corruptions_total", labelnames=("mode",)
    )
    assert corruptions.value(mode="garbled") + corruptions.value(mode="truncated") >= 1
    # every checkpoint the operation saw is a subset of what was really received
    for cp, bound in zip(checkpoints[1:], (100, 200, 300)):
        if cp is not None:
            assert cp.total_bytes() <= bound
