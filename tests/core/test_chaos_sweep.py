"""Chaos suites: sweeps under injected faults and interruption.

The acceptance contract of the resilient sweep layer, as tests:

* under injected worker kill/hang/raise faults, ``parallel_sweep``
  completes and its points are bit-identical to the fault-free serial
  sweep with the same seed;
* a sweep killed mid-run and resumed from its store reproduces the
  uninterrupted result exactly, re-running only the missing replicates —
  across the serial, batched and ensemble engines;
* a poison task is isolated and named;
* a store from different sweep parameters is rejected loudly.
"""

import functools

import pytest

from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.core.checkpoint import CheckpointMismatchError
from repro.core.runner import RetryPolicy, TaskError
from repro.core.store import ColumnarSweepStore
from repro.core.sweep import latency_sweep, parallel_sweep
from repro.testing.chaos import ChaosPlan, ChaosPool

SWEEP = dict(steps=8_000, repeats=3, seed=5)
N_VALUES = [2, 4]
FAST_RETRY = RetryPolicy(max_retries=3, base_delay=0.01, max_delay=0.1)


@pytest.fixture(scope="module")
def reference():
    """The fault-free serial-process sweep every chaos run must match."""
    return latency_sweep(
        cas_counter, make_counter_memory, N_VALUES, engine="batched", **SWEEP
    )


class TestFaultsAreInvisible:
    def test_kill_hang_and_raise_leave_results_bit_identical(
        self, tmp_path, reference
    ):
        # Faults here key the executor's pickle-transport task keys,
        # the (n, replicate) tuples; the shared-memory transport names
        # tasks by row index, and its chaos twin lives in
        # tests/core/test_shm_dispatch.py.
        plan = ChaosPlan(
            state_dir=str(tmp_path),
            faults={(2, 1): "kill", (4, 0): "raise", (4, 2): "hang"},
            hang_seconds=5.0,
        )
        points = parallel_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            chunk_size=1,
            dispatch="pickle",
            retry=RetryPolicy(
                max_retries=3, base_delay=0.01, max_delay=0.1, timeout=1.5
            ),
            pool_factory=functools.partial(ChaosPool, plan=plan),
            **SWEEP,
        )
        assert points == reference

    def test_seeded_probability_storm_completes(self, tmp_path, reference):
        # Every task has a coin-flip chance of an injected raise; the
        # sweep must still finish with exact numbers.
        plan = ChaosPlan(
            state_dir=str(tmp_path), probability=0.5, kinds=("raise",), seed=9
        )
        points = parallel_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            retry=FAST_RETRY,
            pool_factory=functools.partial(ChaosPool, plan=plan),
            **SWEEP,
        )
        assert points == reference


class TestPoisonIsolation:
    def test_failing_replicate_named_in_error(self, tmp_path):
        plan = ChaosPlan(
            state_dir=str(tmp_path), faults={(4, 1): "raise"}, once=False
        )
        with pytest.raises(TaskError, match=r"\(4, 1\)") as excinfo:
            parallel_sweep(
                cas_counter,
                make_counter_memory,
                N_VALUES,
                max_workers=2,
                dispatch="pickle",
                retry=RetryPolicy(max_retries=1, base_delay=0.01, max_delay=0.02),
                pool_factory=functools.partial(ChaosPool, plan=plan),
                **SWEEP,
            )
        assert excinfo.value.key == (4, 1)


class _Interrupter:
    """An on_progress hook that aborts the sweep after ``after`` tasks."""

    def __init__(self, after):
        self.after = after
        self.calls = 0

    def __call__(self, done, total, key):
        self.calls += 1
        if self.calls >= self.after:
            raise KeyboardInterrupt


class TestCheckpointResume:
    @pytest.mark.parametrize("engine", ["serial", "batched", "ensemble"])
    def test_interrupted_sweep_resumes_bit_identically(self, tmp_path, engine):
        kwargs = dict(steps=6_000, repeats=3, seed=11, engine=engine)
        uninterrupted = latency_sweep(
            cas_counter, make_counter_memory, N_VALUES, **kwargs
        )
        path = tmp_path / f"{engine}.store"
        with pytest.raises(KeyboardInterrupt):
            latency_sweep(
                cas_counter,
                make_counter_memory,
                N_VALUES,
                store=path,
                on_progress=_Interrupter(after=2),
                **kwargs,
            )
        rerun = []
        resumed = latency_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            store=path,
            resume=True,
            on_progress=lambda done, total, key: rerun.append(key),
            **kwargs,
        )
        assert resumed == uninterrupted
        # Only the missing replicates were re-run.
        total = len(N_VALUES) * kwargs["repeats"]
        assert len(rerun) == total - 2

    def test_parallel_resume_of_killed_parallel_sweep(self, tmp_path, reference):
        # A mid-run abort (poison task) leaves a valid store; a
        # clean resume re-runs only what is missing and matches the
        # fault-free reference exactly.
        path = tmp_path / "parallel.store"
        plan = ChaosPlan(
            state_dir=str(tmp_path), faults={(4, 2): "raise"}, once=False
        )
        with pytest.raises(TaskError):
            parallel_sweep(
                cas_counter,
                make_counter_memory,
                N_VALUES,
                max_workers=2,
                chunk_size=1,
                dispatch="pickle",
                store=path,
                retry=RetryPolicy(max_retries=1, base_delay=0.01, max_delay=0.02),
                pool_factory=functools.partial(ChaosPool, plan=plan),
                **SWEEP,
            )
        recorded = set(ColumnarSweepStore.load_completed(path))
        rerun = []
        resumed = parallel_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            store=path,
            resume=True,
            on_progress=lambda done, total, key: rerun.append(key),
            **SWEEP,
        )
        assert resumed == reference
        all_keys = {(n, r) for n in N_VALUES for r in range(SWEEP["repeats"])}
        assert set(rerun) == all_keys - recorded
        assert (4, 2) in rerun

    def test_serial_checkpoint_resumable_by_parallel_sweep(
        self, tmp_path, reference
    ):
        # Engines agree bit-for-bit, so a batched latency_sweep
        # store is a valid warm start for parallel_sweep.
        path = tmp_path / "handoff.store"
        with pytest.raises(KeyboardInterrupt):
            latency_sweep(
                cas_counter,
                make_counter_memory,
                N_VALUES,
                engine="batched",
                store=path,
                on_progress=_Interrupter(after=3),
                **SWEEP,
            )
        resumed = parallel_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            store=path,
            resume=True,
            **SWEEP,
        )
        assert resumed == reference

    def test_mismatched_resume_rejected(self, tmp_path):
        path = tmp_path / "cp.store"
        parallel_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            store=path,
            **SWEEP,
        )
        different = dict(SWEEP, seed=SWEEP["seed"] + 1)
        with pytest.raises(CheckpointMismatchError, match="seed"):
            parallel_sweep(
                cas_counter,
                make_counter_memory,
                N_VALUES,
                max_workers=2,
                store=path,
                resume=True,
                **different,
            )

    def test_resume_without_checkpoint_rejected(self):
        with pytest.raises(ValueError, match="resume"):
            parallel_sweep(
                cas_counter,
                make_counter_memory,
                N_VALUES,
                resume=True,
                **SWEEP,
            )

    def test_completed_checkpoint_resumes_without_recomputing(
        self, tmp_path, reference
    ):
        path = tmp_path / "full.store"
        parallel_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            store=path,
            **SWEEP,
        )
        rerun = []
        resumed = parallel_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            store=path,
            resume=True,
            on_progress=lambda done, total, key: rerun.append(key),
            **SWEEP,
        )
        assert resumed == reference
        assert rerun == []


class TestBurnInValidation:
    def test_latency_sweep_rejects_burn_in_at_steps(self):
        with pytest.raises(ValueError, match="burn_in"):
            latency_sweep(
                cas_counter,
                make_counter_memory,
                N_VALUES,
                steps=1_000,
                repeats=2,
                burn_in=1_000,
            )

    def test_parallel_sweep_rejects_burn_in_at_steps(self):
        with pytest.raises(ValueError, match="burn_in"):
            parallel_sweep(
                cas_counter,
                make_counter_memory,
                N_VALUES,
                steps=1_000,
                repeats=2,
                burn_in=2_000,
            )

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            latency_sweep(
                cas_counter,
                make_counter_memory,
                N_VALUES,
                steps=1_000,
                repeats=2,
                burn_in=-1,
            )
