"""Unit tests for repro.core.latency."""

import pytest

from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.algorithms.parallel import parallel_code
from repro.core.latency import (
    completion_rate,
    individual_latencies,
    individual_latency,
    measure_latencies,
    system_latency,
)
from repro.core.scheduler import AdversarialScheduler, UniformStochasticScheduler
from repro.sim.trace import TraceRecorder


def recorder_with_completions(times_pids, n=2):
    recorder = TraceRecorder(n)
    for time, pid in times_pids:
        recorder.on_completion(time, pid)
    return recorder


class TestSystemLatency:
    def test_uniform_gaps(self):
        recorder = recorder_with_completions([(10, 0), (20, 1), (30, 0)])
        assert system_latency(recorder) == pytest.approx(10.0)

    def test_burn_in_drops_early_completions(self):
        recorder = recorder_with_completions([(1, 0), (100, 0), (110, 1)])
        assert system_latency(recorder, burn_in=50) == pytest.approx(10.0)

    def test_too_few_completions_raises(self):
        recorder = recorder_with_completions([(5, 0)])
        with pytest.raises(ValueError, match="completions"):
            system_latency(recorder)

    def test_error_names_run_parameters(self):
        # The diagnostic must tell the user what run produced too little
        # data and how to fix it (Theorem 4 latency grows with n).
        recorder = recorder_with_completions([(5, 0)], n=7)
        recorder.on_step(1, 0)
        with pytest.raises(
            ValueError, match=r"n=7.*steps=1.*increase steps"
        ):
            system_latency(recorder)


class TestIndividualLatency:
    def test_per_process_gaps(self):
        recorder = recorder_with_completions(
            [(10, 0), (15, 1), (30, 0), (35, 1), (50, 0)]
        )
        assert individual_latency(recorder, 0) == pytest.approx(20.0)
        assert individual_latency(recorder, 1) == pytest.approx(20.0)

    def test_individual_latencies_skips_sparse_processes(self):
        recorder = recorder_with_completions([(10, 0), (20, 0), (30, 1)])
        lats = individual_latencies(recorder)
        assert 0 in lats and 1 not in lats

    def test_missing_process_raises(self):
        recorder = recorder_with_completions([(10, 0), (20, 0)])
        with pytest.raises(ValueError, match="completed"):
            individual_latency(recorder, 1)


class TestMethodLatencies:
    def test_per_method_split(self):
        from repro.core.latency import method_latencies
        from repro.sim.history import History

        history = History()
        history.invoke(1, 0, "push")
        history.respond(2, 0, "push")
        history.invoke(3, 1, "pop")
        history.respond(4, 1, "pop")
        history.invoke(5, 0, "push")
        history.respond(8, 0, "push")
        history.invoke(9, 1, "pop")
        history.respond(16, 1, "pop")
        lats = method_latencies(history)
        assert lats["push"] == pytest.approx(6.0)
        assert lats["pop"] == pytest.approx(12.0)

    def test_sparse_methods_skipped(self):
        from repro.core.latency import method_latencies
        from repro.sim.history import History

        history = History()
        history.invoke(1, 0, "once")
        history.respond(2, 0, "once")
        assert method_latencies(history) == {}

    def test_stack_workload_methods(self):
        from repro.algorithms.treiber import (
            TreiberWorkload,
            make_stack_memory,
            treiber_workload,
        )
        from repro.core.latency import method_latencies
        from repro.sim.executor import Simulator

        sim = Simulator(
            treiber_workload(TreiberWorkload(push_fraction=0.7, seed=1)),
            UniformStochasticScheduler(),
            n_processes=4,
            memory=make_stack_memory(),
            record_history=True,
            rng=0,
        )
        result = sim.run(20_000)
        lats = method_latencies(result.history, burn_in=2_000)
        assert set(lats) == {"push", "pop"}
        # Pops are rarer (30%) so their inter-completion gap is larger.
        assert lats["pop"] > lats["push"]


class TestCompletionRate:
    def test_rate(self):
        recorder = recorder_with_completions([(1, 0), (2, 0), (3, 0)])
        assert completion_rate(recorder, 6) == pytest.approx(0.5)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            completion_rate(TraceRecorder(1), 0)


class TestMeasureLatencies:
    def test_parallel_code_exact(self):
        # Lemma 11: W = q exactly, W_i = n q exactly (deterministic
        # completion pattern, so even a finite run nails it).
        m = measure_latencies(
            parallel_code(4),
            UniformStochasticScheduler(),
            n_processes=5,
            steps=50_000,
            rng=0,
        )
        assert m.system_latency == pytest.approx(4.0, rel=0.01)
        assert m.mean_individual_latency == pytest.approx(20.0, rel=0.05)
        assert m.fairness_ratio == pytest.approx(1.0, abs=0.1)

    def test_counter_under_round_robin_adversary(self):
        # Round-robin over n=2 on the CAS counter: a completion every few
        # steps; just verify the plumbing returns sane values.
        m = measure_latencies(
            cas_counter(),
            AdversarialScheduler.round_robin(),
            n_processes=2,
            steps=10_000,
            memory=make_counter_memory(),
            rng=0,
        )
        assert m.system_latency > 0
        assert m.total_completions > 0

    def test_memory_factory_alternative(self):
        m = measure_latencies(
            cas_counter(),
            UniformStochasticScheduler(),
            n_processes=2,
            steps=5_000,
            memory_factory=make_counter_memory,
            rng=1,
        )
        assert m.total_completions > 0

    def test_memory_and_factory_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            measure_latencies(
                cas_counter(),
                UniformStochasticScheduler(),
                n_processes=2,
                steps=100,
                memory=make_counter_memory(),
                memory_factory=make_counter_memory,
            )

    def test_default_burn_in(self):
        m = measure_latencies(
            parallel_code(2),
            UniformStochasticScheduler(),
            n_processes=2,
            steps=1_000,
            rng=2,
        )
        assert m.burn_in == 100

    def test_insufficient_run_raises(self):
        with pytest.raises(ValueError, match="increase steps|completions"):
            measure_latencies(
                parallel_code(50),
                UniformStochasticScheduler(),
                n_processes=10,
                steps=60,
                rng=3,
            )

    def test_insufficient_run_error_names_parameters(self):
        with pytest.raises(ValueError, match=r"n=10.*steps=60"):
            measure_latencies(
                parallel_code(50),
                UniformStochasticScheduler(),
                n_processes=10,
                steps=60,
                rng=3,
            )


class TestEnsembleLatencies:
    def test_matches_batched_measure_latencies(self):
        from repro.core.latency import measure_latencies_ensemble

        seeds = [(2, 3, r) for r in range(4)]
        measurements = measure_latencies_ensemble(
            cas_counter(),
            UniformStochasticScheduler,
            3,
            8_000,
            seeds,
        )
        assert len(measurements) == 4
        for seed, measurement in zip(seeds, measurements):
            assert measurement == measure_latencies(
                cas_counter(),
                UniformStochasticScheduler(),
                n_processes=3,
                steps=8_000,
                memory=make_counter_memory(),
                rng=seed,
                batched=True,
            )

    def test_resolve_vector_kernel_requires_kernel(self):
        from repro.core.latency import resolve_vector_kernel

        with pytest.raises(ValueError, match="vector_kernel"):
            resolve_vector_kernel(cas_counter(calls=2))

    def test_resolve_vector_kernel_accepts_kernel_directly(self):
        from repro.algorithms.counter import CounterStepKernel
        from repro.core.latency import resolve_vector_kernel

        kernel = CounterStepKernel()
        assert resolve_vector_kernel(kernel) is kernel
        assert resolve_vector_kernel(cas_counter()) == kernel


class TestBurnInValidation:
    def test_measure_latencies_rejects_burn_in_at_steps(self):
        with pytest.raises(ValueError, match="burn_in=5000 must be < steps"):
            measure_latencies(
                cas_counter(),
                UniformStochasticScheduler(),
                n_processes=2,
                steps=5_000,
                burn_in=5_000,
                memory=make_counter_memory(),
                rng=0,
            )

    def test_measure_latencies_rejects_negative_burn_in(self):
        with pytest.raises(ValueError, match="non-negative"):
            measure_latencies(
                cas_counter(),
                UniformStochasticScheduler(),
                n_processes=2,
                steps=5_000,
                burn_in=-1,
                memory=make_counter_memory(),
                rng=0,
            )

    def test_measure_latencies_ensemble_rejects_burn_in_at_steps(self):
        from repro.core.latency import measure_latencies_ensemble

        with pytest.raises(ValueError, match="must be < steps"):
            measure_latencies_ensemble(
                cas_counter(),
                UniformStochasticScheduler,
                2,
                5_000,
                [(0, 2, 0)],
                burn_in=6_000,
            )

    def test_default_burn_in_still_valid(self):
        # None (the steps // 10 default) is always accepted.
        from repro.core.latency import validate_burn_in

        validate_burn_in(None, 10)
        validate_burn_in(0, 1)
