"""Stacked multi-replicate resolution must be invisible in results.

The ensemble engine stacks same-shape replicates into one schedule and
resolves each block in a single vectorized pass; this suite pins the
contract that every observable of every replicate — schedule, completion
stream, per-process accounting, final memory, derived measurements — is
bit-identical to a fresh ``Simulator.run_batched`` of the same replicate,
on every available kernel backend, across resolver families, crash
schedules, heterogeneous ensembles and block caps small enough to force
multi-block packing.  It pins the block rule (which backends stack, and
the numpy length boundary) through the ``ensemble.fused_*`` counters, and
covers the one-shot guard semantics around :meth:`EnsembleSimulator.run`.
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
from repro.core.latency import measure_latencies
from repro.core.scheduler import (
    SkewedStochasticScheduler,
    UniformStochasticScheduler,
)
from repro.core.telemetry import MetricsRegistry
from repro.sim import EnsembleReplicate, EnsembleSimulator, Simulator
from repro.sim import ensemble as ensemble_module
from repro.sim.kernels import available_backends

#: name -> (step kernel, process factory builder, memory builder)
KERNEL_CASES = {
    "counter": (CounterStepKernel(), cas_counter, make_counter_memory),
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

CRASH_CASES = {
    "crash_free": None,
    "crashing": {0: 40, 2: 95},
}

COMPILED = [name for name in available_backends() if name != "numpy"]


def build_specs(kernel_name, *, crash_times=None, seed=0):
    """A small mixed-n ensemble of one kernel shape, as replicate specs
    ``(kernel_name, n, scheduler_builder, rng, crash_times)``."""
    return [
        (kernel_name, n, UniformStochasticScheduler, (seed, n, r), crash_times)
        for r, n in enumerate([3, 5, 3, 4])
    ]


def ensemble_members(specs, rng=None):
    members = []
    for kernel_name, n, scheduler_builder, seed, crash_times in specs:
        kernel, _, memory_builder = KERNEL_CASES[kernel_name]
        members.append(
            EnsembleReplicate(
                kernel,
                n,
                scheduler_builder(),
                memory_builder(),
                rng=seed if rng is None else rng,
                crash_times=dict(crash_times) if crash_times else None,
            )
        )
    return members


def run_batched_reference(specs, steps, rng=None):
    """The oracle: each replicate run alone through ``run_batched``."""
    results = []
    for kernel_name, n, scheduler_builder, seed, crash_times in specs:
        _, factory_builder, memory_builder = KERNEL_CASES[kernel_name]
        results.append(
            Simulator(
                factory_builder(),
                scheduler_builder(),
                n_processes=n,
                memory=memory_builder(),
                record_schedule=True,
                rng=seed if rng is None else rng,
                crash_times=dict(crash_times) if crash_times else None,
            ).run_batched(steps)
        )
    return results


def assert_proposal_chains_equal(left, right):
    """Compare decision-register values without recursing: committed
    Proposal chains can be hundreds of payload links deep."""
    while isinstance(left, Proposal) or isinstance(right, Proposal):
        assert isinstance(left, Proposal) and isinstance(right, Proposal)
        assert (left.pid, left.sequence) == (right.pid, right.sequence)
        left, right = left.payload, right.payload
    assert left == right


def assert_outcome_matches_batched(outcome, reference):
    expected = reference.recorder
    assert outcome.steps_executed == reference.steps_executed
    assert outcome.stopped_early == reference.stopped_early
    assert np.array_equal(outcome.schedule, expected.schedule.as_array())
    assert outcome.completion_times.tolist() == expected.completion_times
    assert outcome.completion_pids.tolist() == expected.completion_pids
    assert outcome.step_counts.tolist() == [
        expected.steps[pid] for pid in range(outcome.n_processes)
    ]
    assert outcome.memory.total_operations == reference.memory.total_operations
    want_registers = reference.memory.registers()
    got_registers = outcome.memory.registers()
    assert set(want_registers) == set(got_registers)
    for name, want in want_registers.items():
        got = got_registers[name]
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


def run_both(specs, steps):
    """Every backend's ensemble against the per-replicate ``run_batched``
    oracle, replicate by replicate."""
    reference = run_batched_reference(specs, steps)
    for backend in available_backends():
        result = EnsembleSimulator(
            ensemble_members(specs), record_schedule=True, engine_kernel=backend
        ).run(steps)
        assert len(result) == len(reference)
        for outcome, expected in zip(result, reference):
            assert_outcome_matches_batched(outcome, expected)


@pytest.mark.parametrize("kernel_name", sorted(KERNEL_CASES))
@pytest.mark.parametrize("crash_name", sorted(CRASH_CASES))
def test_fused_matches_per_replicate(kernel_name, crash_name):
    run_both(
        build_specs(kernel_name, crash_times=CRASH_CASES[crash_name], seed=11),
        600,
    )


@pytest.mark.parametrize("kernel_name", ["counter", "scu21"])
def test_small_block_cap_forces_multi_block_packing(kernel_name, monkeypatch):
    # Cap far below one replicate's steps: every replicate must land in
    # its own (oversized) block and still resolve identically.
    monkeypatch.setattr(ensemble_module, "_BLOCK_STEPS", 200)
    specs = build_specs(kernel_name, seed=3)
    run_both(specs, 500)
    for backend in COMPILED:
        blocks, replicates = block_counts(
            ensemble_members(specs), 500, backend
        )
        assert blocks == replicates == len(specs)


def test_heterogeneous_shapes_fuse_by_group():
    """Mixed (q, s) replicates group independently and all stay exact."""
    specs = [
        (
            name,
            4,
            lambda: SkewedStochasticScheduler([0.4, 0.3, 0.2, 0.1]),
            (7, index),
            None,
        )
        for index, name in enumerate(
            ("counter", "scu03", "scu21", "counter", "scu21")
        )
    ]
    run_both(specs, 400)


def test_shared_generator_instance_preserves_draw_order():
    """Replicates sharing one Generator must consume it in replicate
    order, exactly as running them one after another through
    ``run_batched`` does — the engine draws everything up front."""
    specs = [
        ("counter", 3, UniformStochasticScheduler, None, None)
        for _ in range(4)
    ]
    reference = run_batched_reference(
        specs, 300, rng=np.random.default_rng(19)
    )
    result = EnsembleSimulator(
        ensemble_members(specs, rng=np.random.default_rng(19)),
        record_schedule=True,
    ).run(300)
    for outcome, expected in zip(result, reference):
        assert_outcome_matches_batched(outcome, expected)


def test_fused_telemetry_counters():
    telemetry = MetricsRegistry()
    EnsembleSimulator(
        ensemble_members(build_specs("counter", seed=2)), telemetry=telemetry
    ).run(250)
    counters = telemetry.counters
    assert counters["ensemble.fused_replicates"] == 4
    assert counters["ensemble.fused_blocks"] >= 1
    assert counters["ensemble.fused_steps"] == 4 * 250
    # Per-replicate accounting is unchanged by stacking.
    assert counters["ensemble.replicates"] == 4


def test_measurements_match_unfused():
    """Measurements of a stacked run equal ``measure_latencies`` on each
    replicate run alone through ``run_batched``."""
    specs = build_specs("scu21", seed=23)
    result = EnsembleSimulator(ensemble_members(specs)).run(800)
    for measurement, (_, n, scheduler_builder, seed, _) in zip(
        result.measurements(burn_in=80), specs
    ):
        assert measurement == measure_latencies(
            scu_algorithm(2, 1),
            scheduler_builder(),
            n_processes=n,
            steps=800,
            burn_in=80,
            memory=make_scu_memory(1),
            rng=seed,
            batched=True,
        )


# -- one-shot guard semantics --------------------------------------------------


def one_member():
    return [
        EnsembleReplicate(
            CounterStepKernel(),
            2,
            UniformStochasticScheduler(),
            make_counter_memory(),
            rng=1,
        ),
        EnsembleReplicate(
            CounterStepKernel(),
            2,
            UniformStochasticScheduler(),
            make_counter_memory(),
            rng=2,
        ),
    ]


def test_reuse_error_names_size_and_remedy():
    simulator = EnsembleSimulator(one_member())
    simulator.run(50)
    with pytest.raises(RuntimeError, match=r"2-replicate.*build a new"):
        simulator.run(50)


def test_plan_error_releases_the_guard():
    """A pure validation failure must not poison the simulator: the
    same ValueError surfaces on every retry, never the one-shot error."""
    simulator = EnsembleSimulator(one_member(), _resolver="flat")
    simulator.replicates[0].kernel = ScuStepKernel(2, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="flat resolver requires q == 0"):
            simulator.run(50)


def test_guard_holds_after_drawing_starts():
    """Failures past the planning stage keep the guard: RNG state has
    been consumed, so a silent retry would differ."""
    simulator = EnsembleSimulator(one_member())
    simulator.replicates[1].scheduler = None  # draw will explode
    with pytest.raises(Exception):
        simulator.run(50)
    with pytest.raises(RuntimeError, match="one-shot"):
        simulator.run(50)


# -- the automatic fusion decision: which blocks stack ---------------------------


def block_counts(members, steps, engine_kernel):
    """``(blocks, replicates)`` resolved by one run, from telemetry."""
    telemetry = MetricsRegistry()
    EnsembleSimulator(
        members, engine_kernel=engine_kernel, telemetry=telemetry
    ).run(steps)
    counters = telemetry.counters
    return counters["ensemble.fused_blocks"], counters["ensemble.fused_replicates"]


def test_auto_fuse_decision_boundary_pinned():
    """The numpy flat resolver stacks strictly below
    ``_NUMPY_FLAT_STACK_MAX_STEPS`` steps per replicate and resolves one
    replicate per block from there on."""
    boundary = ensemble_module._NUMPY_FLAT_STACK_MAX_STEPS
    assert boundary == 4096
    blocks, replicates = block_counts(one_member(), boundary - 1, "numpy")
    assert blocks < replicates == 2
    blocks, replicates = block_counts(one_member(), boundary, "numpy")
    assert blocks == replicates == 2


def test_auto_fuse_numpy_observed_through_telemetry():
    """Compiled backends stack both resolvers; the numpy heap resolver
    never stacks, whatever the length (the numpy flat side of the rule
    is pinned at its boundary above)."""
    heap_specs = build_specs("scu21", seed=5)
    for steps in (300, 5000):
        blocks, replicates = block_counts(
            ensemble_members(heap_specs), steps, "numpy"
        )
        assert blocks == replicates == len(heap_specs)
    for backend in COMPILED:
        for specs in (build_specs("counter", seed=5), heap_specs):
            blocks, replicates = block_counts(
                ensemble_members(specs), 5000, backend
            )
            assert blocks < replicates == len(specs)


def test_auto_fuse_results_identical_across_the_boundary():
    """The stacking decision trades wall-clock only — outcomes on both
    sides of the numpy boundary match ``run_batched`` bit for bit."""
    boundary = ensemble_module._NUMPY_FLAT_STACK_MAX_STEPS
    specs = [
        ("counter", 2, UniformStochasticScheduler, seed, None)
        for seed in (1, 2)
    ]
    for steps in (boundary - 1, boundary):
        run_both(specs, steps)
