"""A reused :class:`EnsembleWorkspace` must be invisible in results.

``EnsembleSimulator(..., workspace=ws)`` carves every block's schedule
stack and the kernels' success rows out of a caller-owned workspace, and
sweeps keep one per thread so steady-state runs stop re-faulting their
memory.  This suite pins the contract:

* runs that grow, shrink and switch shapes in one workspace match a run
  without one and ``Simulator.run_batched``, replicate for replicate;
* both kernel backends (numpy, cc) return the same arrays with and
  without ``out=``;
* a result whose workspace ran again refuses to measure;
* buffers are sized exactly, reused across same-shape sweeps, never held
  past the cap, and private to a thread and to a forked worker.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.algorithms.counter import (
    CounterStepKernel,
    cas_counter,
    make_counter_memory,
)
from repro.algorithms.scu import ScuStepKernel, make_scu_memory, scu_algorithm
from repro.core import sweep as sweep_module
from repro.core.scheduler import UniformStochasticScheduler
from repro.core.sweep import latency_sweep
from repro.sim import (
    EnsembleReplicate,
    EnsembleSimulator,
    EnsembleWorkspace,
    Simulator,
)
from repro.sim import ensemble as ensemble_module
from repro.sim.kernels import (
    NumpyKernel,
    available_backends,
    get_kernel,
    kernel_diagnostics,
    resolve_flat,
    resolve_heap,
    success_capacity,
)

#: name -> (step kernel, process factory builder, memory builder)
SHAPES = {
    "cas": (CounterStepKernel(), cas_counter, make_counter_memory),
    "scu22": (
        ScuStepKernel(2, 2),
        lambda: scu_algorithm(2, 2),
        lambda: make_scu_memory(2),
    ),
}

#: One workspace runs these in order: CAS, a larger CAS (the buffers
#: grow), SCU(2, 2) (another shape, inside the grown buffers), then a
#: smaller ensemble of crashing CAS replicates (a prefix of them).
SEQUENCE = [
    ("cas", [3, 5, 3, 4], 300, None),
    ("cas", [4, 6, 2, 5, 3, 8], 900, None),
    ("scu22", [3, 5, 4, 2], 600, None),
    ("cas", [3, 4], 400, {0: 40, 2: 95}),
]


def members(shape, n_values, seed, crash_times, memory=True):
    kernel, _, memory_builder = SHAPES[shape]
    return [
        EnsembleReplicate(
            kernel,
            n,
            UniformStochasticScheduler(),
            memory_builder() if memory else None,
            rng=(seed, n, r),
            crash_times=dict(crash_times) if crash_times else None,
        )
        for r, n in enumerate(n_values)
    ]


def batched(shape, n_values, seed, crash_times, steps):
    _, factory_builder, memory_builder = SHAPES[shape]
    return [
        Simulator(
            factory_builder(),
            UniformStochasticScheduler(),
            n_processes=n,
            memory=memory_builder(),
            record_schedule=True,
            rng=(seed, n, r),
            crash_times=dict(crash_times) if crash_times else None,
        ).run_batched(steps)
        for r, n in enumerate(n_values)
    ]


def outcome_fields(outcome):
    return (
        outcome.steps_executed,
        outcome.stopped_early,
        outcome.schedule.tolist(),
        outcome.completion_times.tolist(),
        outcome.completion_pids.tolist(),
        outcome.step_counts.tolist(),
        outcome.memory.total_operations,
    )


def batched_fields(result, n):
    recorder = result.recorder
    return (
        result.steps_executed,
        result.stopped_early,
        recorder.schedule.as_array().tolist(),
        recorder.completion_times,
        recorder.completion_pids,
        [recorder.steps[pid] for pid in range(n)],
        result.memory.total_operations,
    )


def run(shape, n_values, steps, crash_times, seed, backend, workspace=None):
    return EnsembleSimulator(
        members(shape, n_values, seed, crash_times),
        record_schedule=True,
        engine_kernel=backend,
        workspace=workspace,
    ).run(steps)


def compiled_or_skip(name):
    if name not in available_backends():
        pytest.skip(f"{name} backend unavailable: {kernel_diagnostics()[name]}")
    return get_kernel(name)


def data_address(array):
    return array.__array_interface__["data"][0]


@pytest.mark.parametrize("backend", available_backends())
def test_runs_that_grow_shrink_and_switch_shapes_stay_exact(backend):
    workspace = EnsembleWorkspace()
    for seed, (shape, n_values, steps, crash_times) in enumerate(SEQUENCE):
        shared = run(shape, n_values, steps, crash_times, seed, backend, workspace)
        alone = run(shape, n_values, steps, crash_times, seed, backend)
        oracle = batched(shape, n_values, seed, crash_times, steps)
        assert workspace.generation == seed + 1
        for outcome, lone, reference, n in zip(shared, alone, oracle, n_values):
            assert outcome_fields(outcome) == outcome_fields(lone)
            assert outcome_fields(outcome) == batched_fields(reference, n)
        assert shared.measurements() == alone.measurements()


@pytest.mark.parametrize("backend", available_backends())
def test_buffers_are_sized_exactly_from_the_plan(backend):
    # Short CAS replicates stack into one block on every backend, so a
    # run needs one stack slot per step plus the block's 3 success rows.
    # Buffers grow to exactly the largest need so far, never beyond it.
    workspace = EnsembleWorkspace()
    largest = 0
    for steps, n_values in [(200, [3, 4]), (500, [3, 4, 5]), (300, [2])]:
        EnsembleSimulator(
            members("cas", n_values, 1, None, memory=False),
            engine_kernel=backend,
            workspace=workspace,
        ).run(steps)
        largest = max(largest, steps * len(n_values))
        assert workspace.nbytes == 8 * (
            largest + 3 * success_capacity(largest, 0, 1)
        )


@pytest.mark.parametrize("backend_name", ["numpy", "cc"])
@pytest.mark.parametrize("q,s", [(0, 1), (0, 3), (2, 1), (2, 2)])
def test_out_matches_fresh_buffers(backend_name, q, s):
    kernel = (
        NumpyKernel() if backend_name == "numpy" else compiled_or_skip(backend_name)
    )
    rng = np.random.default_rng(29)
    for trial in range(12):
        n = int(rng.integers(1, 10))
        steps = int(rng.integers(0, 2000))
        sched = rng.integers(0, n, size=steps).astype(np.int64)
        out = np.full((3, success_capacity(steps, q, s) + trial), -7, np.int64)
        resolvers = [lambda **kw: resolve_heap(sched, n, q, s, kernel, **kw)]
        if q == 0:
            resolvers.append(lambda **kw: resolve_flat(sched, n, s, kernel, **kw))
        for resolve in resolvers:
            fresh = resolve()
            into = resolve(out=out)
            assert len(fresh) == len(into) == 6
            for left, right in zip(fresh, into):
                assert left.dtype == right.dtype == np.int64
                assert np.array_equal(left, right)
            for row, target in zip(into[:3], out):
                assert data_address(row) == data_address(target)


@pytest.mark.parametrize("backend_name", ["numpy", "cc"])
def test_out_too_small_or_mistyped_raises(backend_name):
    kernel = (
        NumpyKernel() if backend_name == "numpy" else compiled_or_skip(backend_name)
    )
    sched = np.zeros(10, dtype=np.int64)
    capacity = success_capacity(10, 0, 1)
    read_only = np.empty((3, capacity), np.int64)
    read_only.flags.writeable = False
    for out in [
        np.empty((3, capacity - 1), np.int64),
        np.empty((3, capacity), np.int32),
        np.empty((2, capacity), np.int64),
        np.empty((capacity, 3), np.int64).T,
        read_only,
    ]:
        with pytest.raises(ValueError, match="out must be"):
            resolve_heap(sched, 1, 0, 1, kernel, out=out)


def test_stale_result_raises():
    workspace = EnsembleWorkspace()
    first = run("cas", [3, 4], 400, None, 1, "auto", workspace)
    expected = run("cas", [3, 4], 400, None, 1, "auto").measurements()
    assert first.measurements() == expected
    assert first.replicates[0].measurement() == expected[0]
    second = run("cas", [3, 4], 400, None, 2, "auto", workspace)
    outcome = first.replicates[0]
    for stale in [
        first.measurements,
        outcome.measurement,
        outcome.recorder,
        outcome.to_simulation_result,
    ]:
        with pytest.raises(RuntimeError, match="reused by a later run"):
            stale()
    assert second.measurements() == run(
        "cas", [3, 4], 400, None, 2, "auto"
    ).measurements()


GRIDS = [
    (cas_counter, make_counter_memory, [2, 3, 5], 3),
    (lambda: scu_algorithm(2, 2), lambda: make_scu_memory(2), [3, 4], 4),
]


def sweep_grid(index, seed):
    factory, memory, n_values, repeats = GRIDS[index]
    return latency_sweep(
        factory,
        memory,
        n_values,
        steps=1500,
        repeats=repeats,
        seed=seed,
        engine="ensemble",
    )


def test_two_threads_sweeping_at_once_match_serial():
    seeds = range(6)
    serial = {(i, seed): sweep_grid(i, seed) for i in range(2) for seed in seeds}
    got = {}
    workspaces = {}
    errors = []

    def worker(index):
        try:
            workspaces[index] = sweep_module._thread_workspace()
            for seed in seeds:
                got[(index, seed)] = sweep_grid(index, seed)
        except BaseException as error:  # surfaced by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert workspaces[0] is not workspaces[1]
    assert got == serial


def test_same_shape_sweeps_on_one_thread_reuse_the_buffers():
    addresses = []

    def worker():
        workspace = sweep_module._thread_workspace()
        for seed in (3, 4):
            sweep_grid(0, seed)
            addresses.append(data_address(workspace._buffer))

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert len(addresses) == 2
    assert addresses[0] == addresses[1]


def test_idle_thread_releases_its_workspace():
    held = []

    def worker():
        workspace = sweep_module._thread_workspace()
        sweep_grid(0, 5)
        held.append(workspace.nbytes)
        sweep_module.release_thread_workspace()
        held.append(workspace.nbytes)
        assert sweep_grid(0, 5) == sweep_grid(0, 5)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert held[0] > 0 and held[1] == 0


def test_run_over_the_cap_is_not_retained(monkeypatch):
    workspace = EnsembleWorkspace()
    small = run("cas", [3], 100, None, 1, "auto", workspace)
    held = workspace.nbytes
    address = data_address(workspace._buffer)
    monkeypatch.setattr(ensemble_module, "_WORKSPACE_CAP_BYTES", held + 64)
    big = run("cas", [3, 4], 400, None, 2, "auto", workspace)
    # The big run allocated for itself: the workspace kept its buffers,
    # did not count a run, and the small result is still valid.
    assert workspace.nbytes == held
    assert data_address(workspace._buffer) == address
    assert workspace.generation == 1
    assert small.measurements() == run("cas", [3], 100, None, 1, "auto").measurements()
    assert big.measurements() == run(
        "cas", [3, 4], 400, None, 2, "auto"
    ).measurements()


def _sweep_in_child(workspace):
    EnsembleSimulator(
        members("scu22", [5, 6], 9, None, memory=False), workspace=workspace
    ).run(900)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_forked_worker_writes_its_own_copy():
    workspace = EnsembleWorkspace()
    result = run("cas", [3, 4], 900, None, 1, "auto", workspace)
    child = multiprocessing.get_context("fork").Process(
        target=_sweep_in_child, args=(workspace,)
    )
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert result.measurements() == run(
        "cas", [3, 4], 900, None, 1, "auto"
    ).measurements()
