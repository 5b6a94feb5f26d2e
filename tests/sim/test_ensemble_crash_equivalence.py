"""Bit-identity of the crash-aware ensemble engine with ``run_batched``.

PR 3's tentpole: segmented whole-schedule execution extends the ensemble
engine to halting failures.  A replicate carrying ``crash_times`` —
seeded with the same tuple — must produce the identical schedule,
completion times and pids, per-process accounting, early-stop behaviour
and final memory (values *and* access counters) as a fresh
:class:`Simulator` driven through ``run_batched`` with the same crash
map.  These tests enforce that across the scheduler families of
Definition 1 and the crash shapes of the Corollary 2 experiments:
single crashes, simultaneous crashes, crashes that never fire (t <= 0
or beyond the horizon), crashes after the last completion, all-crash
early stops, and heterogeneous ensembles mixing crashing and
crash-free replicates.
"""

import sys

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
    AdversarialScheduler,
    HardwareLikeScheduler,
    LotteryScheduler,
    MarkovModulatedScheduler,
    SkewedStochasticScheduler,
    UniformStochasticScheduler,
)
from repro.core.sweep import latency_sweep
from repro.sim import EnsembleReplicate, EnsembleSimulator, Simulator

# Committed SCU proposals chain recursively through their payloads.
sys.setrecursionlimit(100_000)

N = 8
STEPS = 2_000

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
    "uniform": lambda: UniformStochasticScheduler(),
    "skewed": lambda: SkewedStochasticScheduler(
        [1.0 + 0.5 * pid for pid in range(N)]
    ),
    "lottery": lambda: LotteryScheduler([1 + pid for pid in range(N)]),
    "hardware": lambda: HardwareLikeScheduler(),
    "hardware-q4": lambda: HardwareLikeScheduler(mean_quantum=4.0),
    "markov": lambda: MarkovModulatedScheduler(),
    "round-robin": lambda: AdversarialScheduler.round_robin(),
}

# The crash shapes the tentpole must cover.  "t=0" and "beyond horizon"
# never fire (crashes apply on exact time equality); "late" lands inside
# the horizon but after essentially all completions of interest.
CRASH_CASES = {
    "single": {2: 400},
    "simultaneous": {1: 300, 5: 300, 6: 301},
    "at-t0": {3: 0},
    "after-last-completion": {0: STEPS - 1, 4: STEPS + 1000},
}


def assert_proposal_chains_equal(left, right):
    while isinstance(left, Proposal) or isinstance(right, Proposal):
        assert isinstance(left, Proposal) and isinstance(right, Proposal)
        assert (left.pid, left.sequence) == (right.pid, right.sequence)
        left, right = left.payload, right.payload
    assert left == right


def assert_crash_replicate_matches_batched(
    kernel,
    factory_builder,
    memory_builder,
    scheduler_builder,
    *,
    n,
    steps,
    seed,
    crash_times,
    resolver="auto",
):
    reference = Simulator(
        factory_builder(),
        scheduler_builder(),
        n_processes=n,
        memory=memory_builder(),
        crash_times=dict(crash_times) if crash_times else None,
        record_schedule=True,
        rng=seed,
    ).run_batched(steps)
    ensemble = EnsembleSimulator(
        [
            EnsembleReplicate(
                kernel,
                n,
                scheduler_builder(),
                memory_builder(),
                rng=seed,
                crash_times=dict(crash_times) if crash_times else None,
            )
        ],
        record_schedule=True,
        _resolver=resolver,
    )
    outcome = ensemble.run(steps).replicates[0]
    recorder = outcome.recorder()
    expected = reference.recorder

    assert reference.steps_executed == outcome.steps_executed
    assert reference.stopped_early == outcome.stopped_early
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


# -- the crash bit-identity matrix ----------------------------------------------


@pytest.mark.parametrize("crash_name", sorted(CRASH_CASES))
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULER_CASES))
def test_crash_bit_identical_all_schedulers(scheduler_name, crash_name):
    kernel, factory_builder, memory_builder = KERNEL_CASES["counter"]
    scheduler_index = sorted(SCHEDULER_CASES).index(scheduler_name)
    crash_index = sorted(CRASH_CASES).index(crash_name)
    assert_crash_replicate_matches_batched(
        kernel,
        factory_builder,
        memory_builder,
        SCHEDULER_CASES[scheduler_name],
        n=N,
        steps=STEPS,
        seed=(41, scheduler_index, crash_index),
        crash_times=CRASH_CASES[crash_name],
    )


@pytest.mark.parametrize("kernel_name", sorted(KERNEL_CASES))
def test_crash_bit_identical_all_kernels(kernel_name):
    kernel, factory_builder, memory_builder = KERNEL_CASES[kernel_name]
    assert_crash_replicate_matches_batched(
        kernel,
        factory_builder,
        memory_builder,
        SCHEDULER_CASES["uniform"],
        n=N,
        steps=STEPS,
        seed=(43, sorted(KERNEL_CASES).index(kernel_name)),
        crash_times={1: 250, 3: 250, 6: 900},
    )


@pytest.mark.parametrize("kernel_name", ["counter", "scu01", "scu03"])
def test_crash_heap_resolver_matches_on_flat_kernels(kernel_name):
    kernel, factory_builder, memory_builder = KERNEL_CASES[kernel_name]
    assert_crash_replicate_matches_batched(
        kernel,
        factory_builder,
        memory_builder,
        SCHEDULER_CASES["uniform"],
        n=6,
        steps=2500,
        seed=47,
        crash_times={0: 600, 5: 601},
        resolver="heap",
    )


def test_all_processes_crash_stops_early():
    kernel, factory_builder, memory_builder = KERNEL_CASES["counter"]
    assert_crash_replicate_matches_batched(
        kernel,
        factory_builder,
        memory_builder,
        SCHEDULER_CASES["uniform"],
        n=4,
        steps=5000,
        seed=51,
        crash_times={0: 700, 1: 700, 2: 650, 3: 701},
    )


def test_crash_on_every_boundary_shape():
    # Crash boundaries at t=1 (first step), back-to-back times, and a
    # survivor set of one: the segment walk's edge geometry.
    kernel, factory_builder, memory_builder = KERNEL_CASES["counter"]
    assert_crash_replicate_matches_batched(
        kernel,
        factory_builder,
        memory_builder,
        SCHEDULER_CASES["uniform"],
        n=5,
        steps=3000,
        seed=53,
        crash_times={0: 1, 1: 2, 2: 3, 3: 4},
    )


def test_heterogeneous_crash_and_crash_free_ensemble():
    # Crashing and crash-free replicates of different kernels and sizes in
    # one ensemble: each must equal its own standalone batched run.
    specs = [
        ("counter", 3, 61, None),
        ("counter", 6, 62, {1: 300, 4: 300}),
        ("scu03", 4, 63, {0: 500}),
        ("scu21", 5, 64, {2: 0, 3: 4000}),
        ("counter", 4, 65, {0: 100, 1: 100, 2: 100, 3: 100}),
    ]
    replicates = []
    for kernel_name, n, seed, crash_times in specs:
        kernel, _, memory_builder = KERNEL_CASES[kernel_name]
        replicates.append(
            EnsembleReplicate(
                kernel,
                n,
                UniformStochasticScheduler(),
                memory_builder(),
                rng=seed,
                crash_times=dict(crash_times) if crash_times else None,
            )
        )
    result = EnsembleSimulator(replicates, record_schedule=True).run(2000)
    for outcome, (kernel_name, n, seed, crash_times) in zip(result, specs):
        _, factory_builder, memory_builder = KERNEL_CASES[kernel_name]
        reference = Simulator(
            factory_builder(),
            UniformStochasticScheduler(),
            n_processes=n,
            memory=memory_builder(),
            crash_times=dict(crash_times) if crash_times else None,
            record_schedule=True,
            rng=seed,
        ).run_batched(2000)
        recorder = outcome.recorder()
        assert reference.steps_executed == outcome.steps_executed
        assert reference.stopped_early == outcome.stopped_early
        assert np.array_equal(
            reference.recorder.schedule.as_array(),
            recorder.schedule.as_array(),
        )
        assert reference.recorder.completion_times == recorder.completion_times
        assert reference.recorder.completion_pids == recorder.completion_pids


# -- measurement and sweep plumbing ----------------------------------------------


class TestCrashMeasurementPlumbing:
    def test_measure_latencies_ensemble_accepts_crash_times(self):
        seeds = [(71, 6, r) for r in range(3)]
        crash_times = {4: 300, 5: 300}
        ensemble_measurements = measure_latencies_ensemble(
            cas_counter(),
            UniformStochasticScheduler,
            6,
            6000,
            seeds,
            crash_times=crash_times,
        )
        for seed, measurement in zip(seeds, ensemble_measurements):
            reference = measure_latencies(
                cas_counter(),
                UniformStochasticScheduler(),
                6,
                6000,
                memory=make_counter_memory(),
                crash_times=crash_times,
                rng=seed,
                batched=True,
            )
            assert measurement == reference

    def test_latency_sweep_crash_times_identical_across_engines(self):
        def crashes(n):
            return {pid: 400 for pid in range(max(1, n // 2), n)}

        kwargs = dict(
            steps=5000,
            repeats=3,
            seed=73,
            burn_in=800,
            crash_times=crashes,
        )
        serial = latency_sweep(
            cas_counter, make_counter_memory, [4, 6], engine="serial", **kwargs
        )
        batched = latency_sweep(
            cas_counter, make_counter_memory, [4, 6], engine="batched", **kwargs
        )
        ensemble = latency_sweep(
            cas_counter, make_counter_memory, [4, 6], engine="ensemble", **kwargs
        )
        assert serial == batched == ensemble


# -- contract --------------------------------------------------------------------


class TestCrashContract:
    def test_unknown_crash_pid_names_replicate_and_engine(self):
        good = EnsembleReplicate(
            CounterStepKernel(),
            4,
            UniformStochasticScheduler(),
            crash_times={1: 50},
        )
        bad = EnsembleReplicate(
            CounterStepKernel(),
            4,
            UniformStochasticScheduler(),
            crash_times={7: 50},
        )
        with pytest.raises(
            ValueError, match=r"replicate 1:.*unknown process 7"
        ):
            EnsembleSimulator([good, bad])

    def test_known_pid_crash_configs_are_accepted(self):
        replicate = EnsembleReplicate(
            CounterStepKernel(),
            4,
            UniformStochasticScheduler(),
            make_counter_memory(),
            rng=0,
            crash_times={1: 50},
        )
        result = EnsembleSimulator([replicate]).run(200)
        assert result[0].steps_executed == 200
