"""The ensemble engine's hard requirement: bit-identity with run_batched.

Every replicate of an :class:`EnsembleSimulator` run — seeded with the
same tuple — must produce the identical schedule, completion times and
pids, per-process step/completion accounting, and final memory (values
*and* access counters) as a fresh :class:`Simulator` driven through
``run_batched``.  These tests enforce that replicate-by-replicate across
the scheduler families of Definition 1 and across kernels (the CAS
counter and several ``SCU(q, s)`` members), for both resolution paths
(the vectorized ``q == 0`` scan and the heap-driven general scan).
"""

import numpy as np
import pytest

from repro.algorithms.counter import (
    CounterStepKernel,
    cas_counter,
    make_counter_memory,
)
from repro.algorithms.scu import (
    Proposal,
    ScuStepKernel,
    make_scu_memory,
    scu_algorithm,
)
from repro.core.latency import measure_latencies, measure_latencies_ensemble
from repro.core.scheduler import (
    _COMPILED_DRAW_MIN_SIZE,
    HardwareLikeScheduler,
    LotteryScheduler,
    SkewedStochasticScheduler,
    UniformStochasticScheduler,
)
from repro.sim import (
    EnsembleReplicate,
    EnsembleSimulator,
    Simulator,
)

# -- fixtures-in-spirit: kernels, workloads, schedulers --------------------------

KERNEL_CASES = {
    "counter": (
        CounterStepKernel(),
        cas_counter,
        make_counter_memory,
    ),
    "scu01": (
        ScuStepKernel(0, 1),
        lambda: scu_algorithm(0, 1),
        lambda: make_scu_memory(1),
    ),
    "scu03": (
        ScuStepKernel(0, 3),
        lambda: scu_algorithm(0, 3),
        lambda: make_scu_memory(3),
    ),
    "scu21": (
        ScuStepKernel(2, 1),
        lambda: scu_algorithm(2, 1),
        lambda: make_scu_memory(1),
    ),
    "scu32": (
        ScuStepKernel(3, 2),
        lambda: scu_algorithm(3, 2),
        lambda: make_scu_memory(2),
    ),
}

SCHEDULER_CASES = {
    "uniform": UniformStochasticScheduler,
    "skewed": lambda: SkewedStochasticScheduler([0.4, 0.3, 0.2, 0.05, 0.05]),
    "lottery": lambda: LotteryScheduler([5, 1, 1, 2, 3]),
    "hardware": lambda: HardwareLikeScheduler(),
}


class SelectOnlyScheduler:
    """A duck-typed scheduler without the select_batch protocol; the
    ensemble engine must fall back to sequential selection."""

    def select(self, time, active, rng):
        return active[int(rng.integers(len(active)))]


def assert_proposal_chains_equal(left, right):
    """Compare decision-register values without recursing: committed
    Proposal chains can be thousands of payload links deep."""
    while isinstance(left, Proposal) or isinstance(right, Proposal):
        assert isinstance(left, Proposal) and isinstance(right, Proposal)
        assert (left.pid, left.sequence) == (right.pid, right.sequence)
        left, right = left.payload, right.payload
    assert left == right


def assert_replicate_matches_batched(
    kernel,
    factory_builder,
    memory_builder,
    scheduler_builder,
    *,
    n,
    steps,
    seed,
    resolver="auto",
    serial=False,
):
    simulator = Simulator(
        factory_builder(),
        scheduler_builder(),
        n_processes=n,
        memory=memory_builder(),
        record_schedule=True,
        rng=seed,
    )
    reference = simulator.run(steps) if serial else simulator.run_batched(steps)
    ensemble = EnsembleSimulator(
        [
            EnsembleReplicate(
                kernel,
                n,
                scheduler_builder(),
                memory_builder(),
                rng=seed,
            )
        ],
        record_schedule=True,
        _resolver=resolver,
    )
    outcome = ensemble.run(steps).replicates[0]
    recorder = outcome.recorder()
    expected = reference.recorder

    assert np.array_equal(
        expected.schedule.as_array(), recorder.schedule.as_array()
    )
    assert expected.completion_times == recorder.completion_times
    assert expected.completion_pids == recorder.completion_pids
    assert expected.completions == recorder.completions
    assert expected.steps == recorder.steps
    assert expected.total_steps == recorder.total_steps

    assert reference.memory.total_operations == outcome.memory.total_operations
    expected_registers = reference.memory.registers()
    actual_registers = outcome.memory.registers()
    assert set(expected_registers) == set(actual_registers)
    for name in expected_registers:
        want, got = expected_registers[name], actual_registers[name]
        assert (
            want.reads,
            want.writes,
            want.cas_attempts,
            want.cas_successes,
            want.rmws,
        ) == (
            got.reads,
            got.writes,
            got.cas_attempts,
            got.cas_successes,
            got.rmws,
        ), name
        assert_proposal_chains_equal(want.value, got.value)


# -- the bit-identity matrix -----------------------------------------------------


@pytest.mark.parametrize("kernel_name", sorted(KERNEL_CASES))
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULER_CASES))
def test_bit_identical_to_batched(kernel_name, scheduler_name):
    kernel, factory_builder, memory_builder = KERNEL_CASES[kernel_name]
    scheduler_builder = SCHEDULER_CASES[scheduler_name]
    kernel_index = sorted(KERNEL_CASES).index(kernel_name)
    scheduler_index = sorted(SCHEDULER_CASES).index(scheduler_name)
    assert_replicate_matches_batched(
        kernel,
        factory_builder,
        memory_builder,
        scheduler_builder,
        n=5,
        steps=3000,
        seed=(17, kernel_index, scheduler_index),
    )


@pytest.mark.parametrize("kernel_name", sorted(KERNEL_CASES))
def test_edge_sizes_bit_identical(kernel_name):
    kernel, factory_builder, memory_builder = KERNEL_CASES[kernel_name]
    for n, steps in [(1, 200), (2, 500), (5, 1), (5, 0), (7, 4096 + 17)]:
        assert_replicate_matches_batched(
            kernel,
            factory_builder,
            memory_builder,
            UniformStochasticScheduler,
            n=n,
            steps=steps,
            seed=(n, steps),
        )


@pytest.mark.parametrize("kernel_name", ["counter", "scu21"])
def test_draw_above_compiled_crossover_matches_serial(kernel_name):
    # The serial engine draws one pid per step with numpy's scalar
    # rng.integers and seeds with default_rng; the ensemble seeds its
    # (seed, n, r)-style tuple in the compiled pass and draws this
    # replicate's whole schedule in one select_batch call, past the
    # size from which the compiled PCG64 draw serves it.
    steps = 3 * _COMPILED_DRAW_MIN_SIZE + 5
    kernel, factory_builder, memory_builder = KERNEL_CASES[kernel_name]
    for n in (3, 8):
        assert_replicate_matches_batched(
            kernel,
            factory_builder,
            memory_builder,
            UniformStochasticScheduler,
            n=n,
            steps=steps,
            seed=(29, n, 2**40 + 3),
            serial=True,
        )


@pytest.mark.parametrize("kernel_name", ["counter", "scu01", "scu03"])
def test_heap_resolver_matches_on_flat_kernels(kernel_name):
    # The q == 0 vectorized scan and the general heap scan implement the
    # same greedy; forcing the heap onto flat kernels cross-checks both.
    kernel, factory_builder, memory_builder = KERNEL_CASES[kernel_name]
    assert_replicate_matches_batched(
        kernel,
        factory_builder,
        memory_builder,
        UniformStochasticScheduler,
        n=6,
        steps=2500,
        seed=23,
        resolver="heap",
    )


def test_duck_typed_scheduler_falls_back_to_sequential_select():
    kernel, factory_builder, memory_builder = KERNEL_CASES["counter"]
    assert_replicate_matches_batched(
        kernel,
        factory_builder,
        memory_builder,
        SelectOnlyScheduler,
        n=4,
        steps=1500,
        seed=3,
    )


def test_heterogeneous_ensemble_matches_batched_per_replicate():
    # Mixed process counts AND mixed kernels in one ensemble, mirroring
    # the FIG5/THM4 benchmark shape: replicate r must equal the
    # standalone batched run with replicate r's own seed.
    specs = [
        ("counter", 3, 31),
        ("counter", 6, 32),
        ("scu03", 4, 33),
        ("scu21", 5, 34),
    ]
    replicates = []
    for kernel_name, n, seed in specs:
        kernel, _, memory_builder = KERNEL_CASES[kernel_name]
        replicates.append(
            EnsembleReplicate(
                kernel,
                n,
                UniformStochasticScheduler(),
                memory_builder(),
                rng=seed,
            )
        )
    result = EnsembleSimulator(replicates, record_schedule=True).run(2000)
    for outcome, (kernel_name, n, seed) in zip(result, specs):
        _, factory_builder, memory_builder = KERNEL_CASES[kernel_name]
        reference = Simulator(
            factory_builder(),
            UniformStochasticScheduler(),
            n_processes=n,
            memory=memory_builder(),
            record_schedule=True,
            rng=seed,
        ).run_batched(2000)
        recorder = outcome.recorder()
        assert np.array_equal(
            reference.recorder.schedule.as_array(),
            recorder.schedule.as_array(),
        )
        assert reference.recorder.completion_times == recorder.completion_times
        assert reference.recorder.completion_pids == recorder.completion_pids


# -- engine contract -------------------------------------------------------------


class TestEnsembleContract:
    def test_rejects_unknown_crash_pids(self):
        # Crash schedules over known pids are supported since PR 3 (see
        # test_ensemble_crash_equivalence); what remains rejected is a
        # crash map naming a pid the replicate does not have.
        replicate = EnsembleReplicate(
            CounterStepKernel(),
            4,
            UniformStochasticScheduler(),
            crash_times={9: 50},
        )
        with pytest.raises(
            ValueError, match=r"replicate 0:.*unknown process 9.*run_batched"
        ):
            EnsembleSimulator([replicate])

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError, match="at least one replicate"):
            EnsembleSimulator([])

    @pytest.mark.parametrize(
        "kernel",
        [CounterStepKernel(), ScuStepKernel(2, 2)],
        ids=["counter", "scu22"],
    )
    def test_memoryless_replicate_skips_final_memory(self, kernel):
        # Without a memory there is nothing to rebuild into, and a fresh
        # register holds ``None``, which the counter cannot add to.
        replicate = EnsembleReplicate(
            kernel, 4, UniformStochasticScheduler(), rng=1
        )
        outcome = EnsembleSimulator([replicate]).run(1000)[0]
        assert outcome.memory is None
        assert outcome.to_simulation_result().memory is None
        assert outcome.total_completions > 0
        assert outcome.measurement().system_latency > 0

    def test_rejects_non_kernel(self):
        replicate = EnsembleReplicate(
            object(), 4, UniformStochasticScheduler()
        )
        with pytest.raises(TypeError, match="vector_kernel"):
            EnsembleSimulator([replicate])

    def test_run_is_one_shot(self):
        ensemble = EnsembleSimulator(
            [
                EnsembleReplicate(
                    CounterStepKernel(),
                    3,
                    UniformStochasticScheduler(),
                    make_counter_memory(),
                    rng=0,
                )
            ]
        )
        ensemble.run(100)
        with pytest.raises(RuntimeError, match="one-shot"):
            ensemble.run(100)

    def test_rejects_negative_steps(self):
        ensemble = EnsembleSimulator(
            [
                EnsembleReplicate(
                    CounterStepKernel(), 3, UniformStochasticScheduler()
                )
            ]
        )
        with pytest.raises(ValueError, match="non-negative"):
            ensemble.run(-1)

    def test_invalid_scheduler_selection_raises(self):
        class OutOfRangeScheduler:
            def select(self, time, active, rng):
                return len(active)  # one past the end

        ensemble = EnsembleSimulator(
            [
                EnsembleReplicate(
                    CounterStepKernel(), 3, OutOfRangeScheduler()
                )
            ]
        )
        with pytest.raises(RuntimeError, match="inactive process"):
            ensemble.run(10)


# -- measurement plumbing --------------------------------------------------------


class TestEnsembleMeasurements:
    def test_measurements_match_measure_latencies(self):
        seeds = [(9, 4, r) for r in range(3)]
        ensemble_measurements = measure_latencies_ensemble(
            cas_counter(),
            UniformStochasticScheduler,
            4,
            6000,
            seeds,
        )
        for seed, measurement in zip(seeds, ensemble_measurements):
            reference = measure_latencies(
                cas_counter(),
                UniformStochasticScheduler(),
                4,
                6000,
                memory=make_counter_memory(),
                rng=seed,
                batched=True,
            )
            assert measurement == reference

    def test_metric_arrays_cover_replicates(self):
        replicates = [
            EnsembleReplicate(
                CounterStepKernel(),
                4,
                UniformStochasticScheduler(),
                make_counter_memory(),
                rng=seed,
            )
            for seed in range(5)
        ]
        result = EnsembleSimulator(replicates).run(5000)
        assert len(result) == 5
        measurements = result.measurements(burn_in=500)
        assert len(measurements) == 5
        for outcome, measurement in zip(result, measurements):
            assert measurement.system_latency > 0
            assert measurement.completion_rate == (
                outcome.total_completions / outcome.steps_executed
            )
            assert measurement.fairness_ratio > 0
            assert outcome.total_completions > 0

    #: (kernel name, n, crash map) per replicate: two shapes, so two
    #: blocks whose replicates interleave in replicate order; crashes
    #: that leave survivors, and two that stop the run early (replicate
    #: 3 after 299 steps, replicate 5 after 699).
    BLOCK_SPECS = [
        ("counter", 3, None),
        ("scu21", 4, None),
        ("counter", 1, None),
        ("scu21", 2, {0: 300, 1: 300}),
        ("counter", 5, {1: 200, 3: 900}),
        ("counter", 2, {0: 700, 1: 700}),
        ("scu21", 6, {2: 400}),
    ]

    def block_run(self, steps):
        members = [
            EnsembleReplicate(
                KERNEL_CASES[name][0],
                n,
                UniformStochasticScheduler(),
                rng=(13, index),
                crash_times=crash,
            )
            for index, (name, n, crash) in enumerate(self.BLOCK_SPECS)
        ]
        return EnsembleSimulator(members).run(steps)

    def test_block_measurements_match_serial_estimators(self):
        """Whole-block measurement equals ``measure_latencies`` on each
        replicate run alone, for default, zero, large and exactly-on-a-
        completion burn-ins, early-stopped replicates included."""
        steps = 1500
        result = self.block_run(steps)
        assert len(result._blocks) == 2
        on_completion = int(result[0].completion_times[7])
        for burn_in in (None, 0, on_completion, 120):
            measurements = result.measurements(burn_in=burn_in)
            for index, (name, n, crash) in enumerate(self.BLOCK_SPECS):
                _, factory, memory = KERNEL_CASES[name]
                reference = measure_latencies(
                    factory(),
                    UniformStochasticScheduler(),
                    n,
                    steps,
                    burn_in=burn_in,
                    memory=memory(),
                    crash_times=crash,
                    rng=(13, index),
                    batched=True,
                )
                assert measurements[index] == reference
                assert result[index].measurement(burn_in=burn_in) == reference

    def test_first_failing_replicate_in_replicate_order_raises(self):
        """Replicates 3 (second block) and 5 (first block) stop before
        the burn-in ends, so no process completes twice after it; the
        error names replicate 3, the first in replicate order, although
        its block is measured second."""
        result = self.block_run(1500)
        assert [block.indices for block in result._blocks] == [
            [0, 2, 4, 5],
            [1, 3, 6],
        ]
        with pytest.raises(ValueError, match=r"\(n=2, steps=299\)"):
            result.measurements(burn_in=700)
        for index, steps in ((3, 299), (5, 699)):
            with pytest.raises(ValueError, match=rf"\(n=2, steps={steps}\)"):
                result[index].measurement(burn_in=700)

    def test_to_simulation_result_roundtrip(self):
        replicate = EnsembleReplicate(
            CounterStepKernel(),
            4,
            UniformStochasticScheduler(),
            make_counter_memory(),
            rng=1,
        )
        outcome = EnsembleSimulator([replicate]).run(2000)[0]
        result = outcome.to_simulation_result()
        assert result.steps_executed == 2000
        assert result.completions_this_run == outcome.total_completions
        assert result.completion_rate == outcome.total_completions / 2000
        assert result.memory is outcome.memory

    def test_kernel_required_for_workloads_without_one(self):
        with pytest.raises(ValueError, match="vector_kernel"):
            measure_latencies_ensemble(
                cas_counter(calls=3),  # finite workload: no kernel tagged
                UniformStochasticScheduler,
                4,
                1000,
                [0, 1],
            )
