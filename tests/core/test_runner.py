"""Tests for the fault-tolerant executor (repro.core.runner)."""

import functools
import time
from pathlib import Path

import pytest

from repro.core.runner import (
    ResilientExecutor,
    RetryPolicy,
    TaskError,
    _stable_seed,
)
from repro.testing.chaos import ChaosError, ChaosPlan, ChaosPool, FlakyPoolFactory

FAST = RetryPolicy(max_retries=3, base_delay=0.01, max_delay=0.05)


def square_worker(keys):
    """Pure worker: one squared value per key."""
    return [key * key for key in keys]


def flaky_worker(keys, state_dir):
    """Fails the first time each key is seen (marker files), then works."""
    for key in keys:
        marker = Path(state_dir) / f"seen-{key}"
        try:
            marker.touch(exist_ok=False)
        except FileExistsError:
            continue
        raise RuntimeError(f"transient failure for {key}")
    return [key * key for key in keys]


def poison_worker(keys, bad_key):
    """Always fails for one key, works for the rest."""
    if bad_key in keys:
        raise RuntimeError(f"poison {bad_key}")
    return [key * key for key in keys]


def slow_worker(keys, duration):
    """Sleeps ``duration`` seconds, then squares — well under any sane
    deadline, so timeouts in a test mean the clock started too early."""
    time.sleep(duration)
    return [key * key for key in keys]


class TestBackoff:
    def test_deterministic_jitter(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0)
        first = policy.backoff_delay(("unit", 3), 2)
        again = policy.backoff_delay(("unit", 3), 2)
        assert first == again
        assert first != policy.backoff_delay(("unit", 4), 2)

    def test_capped_exponential_envelope(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0)
        for attempt in range(1, 12):
            delay = policy.backoff_delay("k", attempt)
            cap = min(1.0, 0.1 * 2 ** (attempt - 1))
            assert cap / 2 <= delay <= cap

    def test_stable_seed_is_process_stable(self):
        # CRC32 of the repr, not the salted hash() builtin.
        assert _stable_seed(("a", 1), 2) == _stable_seed(("a", 1), 2)


class TestHappyPath:
    def test_all_results_collected(self):
        executor = ResilientExecutor(square_worker, max_workers=2, policy=FAST)
        results = executor.run(list(range(10)), chunk_size=3)
        assert results == {k: k * k for k in range(10)}
        assert executor.stats.retries == 0

    def test_empty_task_list(self):
        executor = ResilientExecutor(square_worker, max_workers=2)
        assert executor.run([]) == {}

    def test_on_result_fires_per_task(self):
        seen = {}
        executor = ResilientExecutor(square_worker, max_workers=2, policy=FAST)
        executor.run(list(range(6)), chunk_size=2, on_result=seen.__setitem__)
        assert seen == {k: k * k for k in range(6)}

    def test_default_chunk_size_from_public_config(self):
        executor = ResilientExecutor(square_worker, max_workers=4)
        # Roughly four chunks per worker; never zero.
        assert executor.default_chunk_size(100) == 7
        assert executor.default_chunk_size(1) == 1

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True])
    def test_bad_max_workers_rejected_naming_the_value(self, bad):
        # 0 once died in default_chunk_size with ZeroDivisionError; -1
        # once failed three pool builds and silently ran serially.
        with pytest.raises(ValueError, match=f"max_workers.*{bad!r}"):
            ResilientExecutor(square_worker, max_workers=bad)

    def test_none_max_workers_means_available_cpus(self):
        from repro.core.runner import available_cpu_count

        executor = ResilientExecutor(square_worker)
        assert executor.max_workers == available_cpu_count()


class TestRecovery:
    def test_transient_raise_is_retried(self, tmp_path):
        executor = ResilientExecutor(flaky_worker, max_workers=2, policy=FAST)
        results = executor.run(
            list(range(6)), args=(str(tmp_path),), chunk_size=2
        )
        assert results == {k: k * k for k in range(6)}
        assert executor.stats.retries > 0

    def test_poison_task_named_in_error(self):
        executor = ResilientExecutor(
            poison_worker,
            max_workers=2,
            policy=RetryPolicy(max_retries=1, base_delay=0.01, max_delay=0.02),
        )
        with pytest.raises(TaskError, match="3") as excinfo:
            executor.run(list(range(6)), args=(3,), chunk_size=3)
        assert excinfo.value.key == 3
        # The chunk was split before the single task was condemned.
        assert executor.stats.splits >= 1

    def test_worker_kill_recovers_via_pool_rebuild(self, tmp_path):
        plan = ChaosPlan(state_dir=str(tmp_path), faults={2: "kill"})
        executor = ResilientExecutor(
            square_worker,
            max_workers=2,
            policy=FAST,
            pool_factory=functools.partial(ChaosPool, plan=plan),
        )
        results = executor.run(list(range(6)), chunk_size=1)
        assert results == {k: k * k for k in range(6)}
        assert executor.stats.pool_rebuilds >= 1

    def test_hang_recovers_via_deadline(self, tmp_path):
        plan = ChaosPlan(
            state_dir=str(tmp_path), faults={1: "hang"}, hang_seconds=5.0
        )
        executor = ResilientExecutor(
            square_worker,
            max_workers=2,
            policy=RetryPolicy(
                max_retries=3, base_delay=0.01, max_delay=0.05, timeout=1.0
            ),
            pool_factory=functools.partial(ChaosPool, plan=plan),
        )
        start = time.monotonic()
        results = executor.run(list(range(4)), chunk_size=1)
        assert results == {k: k * k for k in range(4)}
        assert executor.stats.timeouts >= 1
        # Recovery means not waiting out the full 5s hang.
        assert time.monotonic() - start < 4.5

    def test_queued_chunks_do_not_accrue_deadline(self):
        # 8 chunks on 2 workers run in ~4 waves of 0.4s each.  If the
        # deadline clock started when all chunks were submitted at once,
        # the later waves would blow the 1.2s timeout while merely
        # queued; with capacity-capped submission none of them should.
        executor = ResilientExecutor(
            slow_worker,
            max_workers=2,
            policy=RetryPolicy(
                max_retries=1, base_delay=0.01, max_delay=0.02, timeout=1.2
            ),
        )
        results = executor.run(list(range(8)), args=(0.4,), chunk_size=1)
        assert results == {k: k * k for k in range(8)}
        assert executor.stats.timeouts == 0
        assert executor.stats.retries == 0

    def test_persistent_hang_raises_task_error_not_serial_hang(self, tmp_path):
        # A task that hangs on every attempt must end in TaskError once
        # its retries run out — never in serial fallback, which has no
        # deadline and would block on the hang forever.
        plan = ChaosPlan(
            state_dir=str(tmp_path),
            faults={1: "hang"},
            hang_seconds=30.0,
            once=False,
        )
        executor = ResilientExecutor(
            square_worker,
            max_workers=2,
            policy=RetryPolicy(
                max_retries=1,
                base_delay=0.01,
                max_delay=0.02,
                timeout=0.75,
                fallback_after=1,
            ),
            pool_factory=functools.partial(ChaosPool, plan=plan),
        )
        start = time.monotonic()
        with pytest.raises(TaskError) as excinfo:
            executor.run([0, 1, 2], chunk_size=1)
        assert excinfo.value.key == 1
        assert not executor.stats.fell_back_serial
        assert executor.stats.timeouts >= 2
        # Failing fast is the point: nowhere near the 30s hang.
        assert time.monotonic() - start < 20.0

    def test_serial_fallback_when_pool_never_comes_up(self):
        factory = FlakyPoolFactory(fail_creations=10**9)
        executor = ResilientExecutor(
            square_worker,
            max_workers=2,
            policy=RetryPolicy(base_delay=0.01, fallback_after=2),
            pool_factory=factory,
        )
        results = executor.run(list(range(6)), chunk_size=2)
        assert results == {k: k * k for k in range(6)}
        assert executor.stats.fell_back_serial
        assert factory.created == 2

    def test_serial_fallback_still_isolates_poison(self):
        executor = ResilientExecutor(
            poison_worker,
            max_workers=2,
            policy=RetryPolicy(
                max_retries=1, base_delay=0.01, fallback_after=1
            ),
            pool_factory=FlakyPoolFactory(fail_creations=10**9),
        )
        with pytest.raises(TaskError) as excinfo:
            executor.run(list(range(4)), args=(2,), chunk_size=2)
        assert excinfo.value.key == 2


class TestChaosPlan:
    def test_fire_once_markers(self, tmp_path):
        plan = ChaosPlan(state_dir=str(tmp_path), faults={(1,): "raise"})
        assert plan.fault_for((1,)) == "raise"
        assert plan.arm((1,)) is True
        assert plan.arm((1,)) is False
        plan.reset()
        assert plan.arm((1,)) is True

    def test_persistent_faults(self, tmp_path):
        plan = ChaosPlan(
            state_dir=str(tmp_path), faults={(1,): "raise"}, once=False
        )
        assert plan.arm((1,)) is True
        assert plan.arm((1,)) is True

    def test_seeded_probability_is_deterministic(self, tmp_path):
        plan = ChaosPlan(state_dir=str(tmp_path), probability=0.5, seed=3)
        picks = [plan.fault_for((k,)) for k in range(64)]
        again = [plan.fault_for((k,)) for k in range(64)]
        assert picks == again
        assert any(pick is not None for pick in picks)
        assert any(pick is None for pick in picks)

    def test_unknown_fault_kind_rejected(self, tmp_path):
        plan = ChaosPlan(state_dir=str(tmp_path), faults={(1,): "frobnicate"})
        with pytest.raises(ValueError, match="unknown fault kind"):
            plan.fault_for((1,))

    def test_chaos_error_raised_inline(self, tmp_path):
        from repro.testing.chaos import chaos_worker

        plan = ChaosPlan(state_dir=str(tmp_path), faults={(1,): "raise"})
        with pytest.raises(ChaosError, match="injected"):
            chaos_worker(plan, [(0,), (1,)])
        # Fire-once: the second call runs clean.
        chaos_worker(plan, [(0,), (1,)])
