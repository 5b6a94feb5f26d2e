"""Ensemble sweeps sharded across the replicate pool stay bit-identical.

``latency_sweep(engine="ensemble", max_workers=N)`` splits the missing
``(n, replicate)`` keys into chunks, and each pool worker resolves its
chunk as one ensemble grid; this suite pins the contract that the pool
changes wall-clock only:

* worker-count invariance — ``max_workers`` 1/2/4 produce bit-identical
  sweep points, with and without crash schedules, across resolver
  families (a mixed CAS-counter / ``SCU(2, 1)`` grid);
* chaos — injected worker kill/hang/raise faults are absorbed by the
  executor's recovery ladder without changing a bit, persistent poison
  ends in :class:`~repro.core.runner.TaskError` naming the replicate,
  and in every case the dispatch ``/dev/shm`` segments are unlinked
  (autouse assertion);
* the pool's telemetry and the validation of ``max_workers``.
"""

import glob
import os

import pytest

from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.algorithms.scu import make_scu_memory, scu_algorithm
from repro.core import shm
from repro.core.runner import RetryPolicy, TaskError
from repro.core.sweep import latency_sweep
from repro.core.telemetry import MetricsRegistry
from repro.testing.chaos import ChaosPlan, ChaosPool, FlakyPoolFactory

STEPS = 400
N_VALUES = [3, 4, 5]
FAST_RETRY = RetryPolicy(max_retries=3, base_delay=0.01, max_delay=0.1)

pytestmark = pytest.mark.skipif(
    not shm.sharedmem_available(), reason="no multiprocessing.shared_memory"
)


def leaked_segments():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover — non-Linux
        return []
    return glob.glob("/dev/shm/repro-*")


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this file ends with a clean /dev/shm — worker
    kills, hangs and poison replicates included."""
    assert leaked_segments() == []
    yield
    assert leaked_segments() == []


def scu21():
    return scu_algorithm(2, 1)


def scu21_memory():
    return make_scu_memory(1)


def crash_schedule(n):
    return {0: 40 + n, 1: 90}


class _Interrupt(Exception):
    pass


def run_grid(workers=1, *, crashes=False, **kwargs):
    """Both resolver families (flat and heap), several n, optionally
    with crash schedules — one sweep per family."""
    common = dict(
        steps=STEPS,
        repeats=4,
        seed=5,
        engine="ensemble",
        crash_times=crash_schedule if crashes else None,
        max_workers=workers,
        **kwargs,
    )
    return [
        latency_sweep(cas_counter, make_counter_memory, N_VALUES, **common),
        latency_sweep(scu21, scu21_memory, N_VALUES, **common),
    ]


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("crashes", [False, True], ids=["clean", "crashing"])
    def test_1_2_4_workers_bit_identical(self, crashes):
        reference = run_grid(crashes=crashes)
        for workers in (1, 2, 4):
            assert run_grid(workers, crashes=crashes, retry=FAST_RETRY) == reference

    def test_single_block_stays_in_process(self, tmp_path):
        """One missing replicate is one ensemble block: no pool starts, no
        segments are made, and the resumed sweep still matches."""
        common = dict(steps=STEPS, repeats=4, seed=5, engine="ensemble")
        reference = latency_sweep(
            cas_counter, make_counter_memory, N_VALUES, **common
        )
        path = tmp_path / "sweep.store"

        def stop_before_last(done, total, key):
            if done == total - 1:
                raise _Interrupt

        with pytest.raises(_Interrupt):
            latency_sweep(
                cas_counter,
                make_counter_memory,
                N_VALUES,
                store=path,
                on_progress=stop_before_last,
                **common,
            )
        telemetry = MetricsRegistry()
        resumed = latency_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            pool_factory=FlakyPoolFactory(fail_creations=10**9),
            store=path,
            resume=True,
            telemetry=telemetry,
            **common,
        )
        assert resumed == reference
        assert "executor.runs" not in telemetry.counters
        assert "shm.segments" not in telemetry.counters


class TestChaos:
    def test_kill_hang_and_raise_leave_results_bit_identical(self, tmp_path):
        reference = run_grid()[0]
        plan = ChaosPlan(
            state_dir=tmp_path,
            faults={(3, 0): "kill", (4, 1): "raise", (5, 3): "hang"},
            hang_seconds=5.0,
        )
        chaotic = latency_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            steps=STEPS,
            repeats=4,
            seed=5,
            engine="ensemble",
            max_workers=2,
            dispatch="pickle",
            pool_factory=lambda max_workers=None: ChaosPool(
                max_workers=max_workers, plan=plan
            ),
            retry=RetryPolicy(
                max_retries=3, base_delay=0.01, max_delay=0.1, timeout=1.5
            ),
        )
        assert chaotic == reference

    def poison(self, tmp_path, dispatch, fault_key):
        plan = ChaosPlan(state_dir=tmp_path, faults={fault_key: "raise"}, once=False)
        with pytest.raises(TaskError) as excinfo:
            run_grid(
                2,
                dispatch=dispatch,
                pool_factory=lambda max_workers=None: ChaosPool(
                    max_workers=max_workers, plan=plan
                ),
                retry=RetryPolicy(max_retries=1, base_delay=0.01, max_delay=0.02),
            )
        # The autouse fixture re-checks, but the leak-free contract
        # under poison is the point of these tests.
        assert leaked_segments() == []
        return excinfo.value.key

    def test_persistent_poison_block_raises_task_error(self, tmp_path):
        assert self.poison(tmp_path, "pickle", (4, 1)) == (4, 1)

    def test_persistent_poison_row_is_named_by_its_replicate(self, tmp_path):
        # Shared-memory chaos plans key faults by row; row 5 of the
        # n-major task table is (4, 1), and the error names the pair.
        assert self.poison(tmp_path, "sharedmem", 5) == (4, 1)

    def test_serial_fallback_reuses_the_segments(self):
        """Pool creation failing forever degrades to in-parent serial
        execution through the same shared buffers — bit-identical."""
        reference = run_grid()
        telemetry = MetricsRegistry()
        fallback = run_grid(
            2,
            dispatch="sharedmem",
            pool_factory=FlakyPoolFactory(fail_creations=10**9),
            retry=FAST_RETRY,
            telemetry=telemetry,
        )
        assert fallback == reference
        assert telemetry.counters["executor.serial_fallbacks"] == 2
        assert telemetry.counters["shm.segments"] == 4


class TestValidationAndTelemetry:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, "three", True])
    def test_bad_max_workers_rejected(self, bad):
        with pytest.raises(ValueError, match="max_workers"):
            run_grid(bad)

    def test_shard_metric_group(self):
        """A pooled ensemble sweep reports the executor and ``shm.*``
        groups from the parent: every replicate completed, both
        dispatch segments created and unlinked."""
        telemetry = MetricsRegistry()
        latency_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            steps=STEPS,
            repeats=4,
            seed=5,
            engine="ensemble",
            max_workers=2,
            dispatch="sharedmem",
            retry=FAST_RETRY,
            telemetry=telemetry,
        )
        assert telemetry.counters["executor.runs"] == 1
        assert telemetry.counters["executor.tasks_completed"] == 12
        assert telemetry.counters["sweep.replicates"] == 12
        assert telemetry.counters["sweep.points"] == len(N_VALUES)
        assert telemetry.counters["shm.segments"] == 2
        assert telemetry.counters["shm.unlinked"] == 2

    def test_in_process_run_emits_no_shard_metrics(self):
        telemetry = MetricsRegistry()
        run_grid(telemetry=telemetry)
        assert "executor.runs" not in telemetry.counters
        assert "shm.segments" not in telemetry.counters
        assert telemetry.counters["ensemble.fused_blocks"] >= 2
