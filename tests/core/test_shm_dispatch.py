"""Zero-copy shared-memory dispatch: identity, recovery, and no leaks.

``parallel_sweep(dispatch="sharedmem")`` moves tasks and results through
``multiprocessing.shared_memory`` instead of pickle.  Transport must be
invisible: points bit-identical to pickle dispatch and the serial sweep,
the recovery ladder (retry, poison isolation, pool rebuild, serial
fallback) untouched, and — the chaos contract — **zero** orphaned
``/dev/shm`` segments no matter how workers die.  Under this dispatch
the executor's task keys are row indices, so chaos plans here key faults
by row (row ``i`` is ``tasks[i]`` in ``(n, replicate)`` n-major order)
and :class:`TaskError` must be remapped back to the real pair.
"""

import functools
import glob
import os

import numpy as np
import pytest

from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.core import shm
from repro.core.runner import RetryPolicy, TaskError
from repro.core.shm import SweepTaskBuffers, attach_array, release, segment_digest
from repro.core.sweep import latency_sweep, parallel_sweep
from repro.core.telemetry import MetricsRegistry
from repro.testing.chaos import ChaosPlan, ChaosPool, FlakyPoolFactory

SWEEP = dict(steps=8_000, repeats=3, seed=5)
N_VALUES = [2, 4]
#: Row-index view of the task list: rows 0..2 are n=2, rows 3..5 are n=4.
ROW_OF = {
    (n, r): i
    for i, (n, r) in enumerate(
        (n, r) for n in N_VALUES for r in range(SWEEP["repeats"])
    )
}
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
    """Every test in this file ends with a clean /dev/shm."""
    assert leaked_segments() == []
    yield
    assert leaked_segments() == []


@pytest.fixture(scope="module")
def reference():
    return latency_sweep(
        cas_counter, make_counter_memory, N_VALUES, engine="batched", **SWEEP
    )


class TestTransportIsInvisible:
    def test_sharedmem_matches_pickle_and_serial(self, reference):
        shared = parallel_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            dispatch="sharedmem",
            **SWEEP,
        )
        pickled = parallel_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            dispatch="pickle",
            **SWEEP,
        )
        assert shared == pickled == reference

    def test_auto_prefers_sharedmem_and_counts_segments(self, reference):
        telemetry = MetricsRegistry()
        points = parallel_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            telemetry=telemetry,
            **SWEEP,
        )
        assert points == reference
        assert telemetry.counters["shm.segments"] == 2
        assert telemetry.counters["shm.unlinked"] == 2
        assert telemetry.counters["shm.bytes"] == 6 * 2 * 8 + 6 * 3 * 8
        assert "shm.fallbacks" not in telemetry.counters

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ValueError, match="unknown dispatch"):
            parallel_sweep(
                cas_counter,
                make_counter_memory,
                N_VALUES,
                dispatch="carrier-pigeon",
                **SWEEP,
            )


class TestChaos:
    def test_kill_hang_raise_leave_results_exact_and_no_orphans(
        self, tmp_path, reference
    ):
        plan = ChaosPlan(
            state_dir=str(tmp_path),
            faults={
                ROW_OF[(2, 1)]: "kill",
                ROW_OF[(4, 0)]: "raise",
                ROW_OF[(4, 2)]: "hang",
            },
            hang_seconds=5.0,
        )
        points = parallel_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            chunk_size=1,
            dispatch="sharedmem",
            retry=RetryPolicy(
                max_retries=3, base_delay=0.01, max_delay=0.1, timeout=1.5
            ),
            pool_factory=functools.partial(ChaosPool, plan=plan),
            **SWEEP,
        )
        assert points == reference
        # The autouse fixture re-checks, but the point of this test is
        # the chaos contract — assert it explicitly at the scene.
        assert leaked_segments() == []

    def test_poison_task_error_names_the_replicate(self, tmp_path):
        plan = ChaosPlan(
            state_dir=str(tmp_path),
            faults={ROW_OF[(4, 1)]: "raise"},
            once=False,
        )
        with pytest.raises(TaskError, match=r"\(4, 1\)") as excinfo:
            parallel_sweep(
                cas_counter,
                make_counter_memory,
                N_VALUES,
                max_workers=2,
                chunk_size=1,
                dispatch="sharedmem",
                retry=RetryPolicy(max_retries=1, base_delay=0.01, max_delay=0.02),
                pool_factory=functools.partial(ChaosPool, plan=plan),
                **SWEEP,
            )
        # Remapped from the executor's row index to the real task key.
        assert excinfo.value.key == (4, 1)

    def test_serial_fallback_still_uses_the_buffers(self, reference):
        telemetry = MetricsRegistry()
        points = parallel_sweep(
            cas_counter,
            make_counter_memory,
            N_VALUES,
            max_workers=2,
            dispatch="sharedmem",
            retry=RetryPolicy(
                max_retries=1, base_delay=0.01, max_delay=0.02, fallback_after=1
            ),
            pool_factory=FlakyPoolFactory(fail_creations=10**9),
            telemetry=telemetry,
            **SWEEP,
        )
        assert points == reference
        assert telemetry.counters["executor.serial_fallbacks"] == 1
        assert telemetry.counters["shm.unlinked"] == 2


class TestBuffers:
    TASKS = [(2, 0), (2, 1), (4, 0)]

    def test_roundtrip_and_cleanup(self):
        telemetry = MetricsRegistry()
        buffers = SweepTaskBuffers(
            self.TASKS, segment_digest({"seed": 1}), telemetry=telemetry
        )
        try:
            assert buffers.task_count == 3
            assert [buffers.key_of(i) for i in range(3)] == self.TASKS
            assert all(np.isnan(buffers.triple(0)))
            buffers.results[1] = (1.5, 2.5, 3.5)
            assert buffers.triple(1) == (1.5, 2.5, 3.5)
            # Both segments exist while open...
            assert len(leaked_segments()) == 2
        finally:
            buffers.close()
        # ...and close() is idempotent and total.
        buffers.close()
        assert telemetry.counters["shm.segments"] == 2
        assert telemetry.counters["shm.unlinked"] == 2

    def test_worker_side_attach_cache(self):
        buffers = SweepTaskBuffers(self.TASKS, segment_digest({"seed": 2}))
        try:
            seen = attach_array(buffers.task_name, (3, 2), np.int64)
            again = attach_array(buffers.task_name, (3, 2), np.int64)
            assert seen is again  # cached, not re-opened
            assert [tuple(row) for row in seen.tolist()] == self.TASKS
        finally:
            release(buffers.task_name)
            buffers.close()

    def test_stale_segment_is_steamrolled(self):
        """A same-named corpse from a killed previous run must not make
        the next run fail — it is unlinked and recreated."""
        from multiprocessing import shared_memory

        name = f"repro-stale-{os.getpid()}-t"
        corpse = shared_memory.SharedMemory(name=name, create=True, size=16)
        corpse.close()  # leave it linked: simulates a SIGKILLed parent
        fresh = shm._create_segment(name, 64)
        try:
            assert fresh.size >= 64
        finally:
            fresh.close()
            fresh.unlink()

    def test_empty_task_list_rejected(self):
        with pytest.raises(ValueError, match="at least one task"):
            SweepTaskBuffers([], segment_digest({}))

    def test_digest_is_stable_and_order_insensitive(self):
        left = segment_digest({"seed": 3, "steps": 100})
        right = segment_digest({"steps": 100, "seed": 3})
        assert left == right
        assert len(left) == 8
        assert left != segment_digest({"seed": 4, "steps": 100})
