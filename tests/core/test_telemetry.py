"""Tests for repro.core.telemetry and the instrumentation it feeds.

The contract under test is double-sided: with telemetry *off* (the
default ``telemetry=None`` / :data:`NULL_TELEMETRY`) nothing is
recorded and nothing changes; with telemetry *on* the counters match
the ground truth recorded by the engines themselves — and in neither
case may a single output bit differ, on any of the three engines.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.core.checkpoint import sweep_fingerprint
from repro.core.latency import measure_latencies, measure_latencies_ensemble
from repro.core.runner import ResilientExecutor, RetryPolicy
from repro.core.scheduler import (
    AdversarialScheduler,
    ContentionScheduler,
    UniformStochasticScheduler,
)
from repro.core.store import ColumnarSweepStore
from repro.core.sweep import latency_sweep, parallel_sweep
from repro.core.telemetry import (
    EVENT_RUN,
    NULL_TELEMETRY,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    SchedulerUniformityObserver,
    write_run_report,
)
from repro.sim.executor import Simulator

FAST = RetryPolicy(max_retries=3, base_delay=0.001, max_delay=0.002)


def square_worker(keys):
    return [key * key for key in keys]


def flaky_worker(keys, state_dir):
    """Fails the first time each key is seen, then works."""
    for key in keys:
        marker = Path(state_dir) / f"seen-{key}"
        try:
            marker.touch(exist_ok=False)
        except FileExistsError:
            continue
        raise RuntimeError(f"transient failure for {key}")
    return [key * key for key in keys]


def run_simulator(steps=20_000, n=4, seed=7, *, batched=False, telemetry=None,
                  crash_times=None):
    simulator = Simulator(
        cas_counter(),
        UniformStochasticScheduler(),
        n_processes=n,
        memory=make_counter_memory(),
        rng=seed,
        crash_times=crash_times,
        telemetry=telemetry,
    )
    result = simulator.run_batched(steps) if batched else simulator.run(steps)
    return simulator, result


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        registry.inc("b", 2.5)
        assert registry.counters == {"a": 5, "b": 2.5}

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 1.0)
        registry.set_gauge("g", 3.0)
        assert registry.gauges == {"g": 3.0}

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["total"] == 6.0
        assert summary["mean"] == 2.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0

    def test_empty_histogram_reports_null_extremes(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["min"] is None and summary["max"] is None

    def test_span_times_block(self):
        registry = MetricsRegistry()
        with registry.span("t"):
            pass
        summary = registry.histograms["t"].summary()
        assert summary["count"] == 1
        assert summary["min"] >= 0

    def test_span_records_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("t"):
                raise RuntimeError("boom")
        assert registry.histograms["t"].count == 1

    def test_emit_reaches_subscribers(self):
        registry = MetricsRegistry()
        seen = []
        registry.subscribe("evt", seen.append)
        registry.emit("evt", {"x": 1})
        registry.emit("other", {"x": 2})
        assert seen == [{"x": 1}]

    def test_report_shape(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.set_gauge("g", 2.0)
        registry.observe("h", 1.5)
        report = registry.report()
        assert report["counters"] == {"c": 1}
        assert report["gauges"] == {"g": 2.0}
        assert report["histograms"]["h"]["count"] == 1


class TestNullRegistry:
    def test_disabled_and_stateless(self):
        null = NullMetricsRegistry()
        assert null.enabled is False
        null.inc("a", 5)
        null.set_gauge("g", 1.0)
        null.observe("h", 2.0)
        null.emit("evt", {"x": 1})
        assert null.counters == {}
        assert null.gauges == {}
        assert null.histograms == {}
        assert null.report() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_span_reuses_shared_noop_instance(self):
        # The hot-path contract: a null span allocates nothing per call.
        null = NullMetricsRegistry()
        assert null.span("a") is null.span("b")

    def test_subscribers_never_fire(self):
        null = NullMetricsRegistry()
        seen = []
        null.subscribe(EVENT_RUN, seen.append)
        null.emit(EVENT_RUN, {"x": 1})
        assert seen == []

    def test_null_telemetry_records_nothing_on_a_run(self):
        run_simulator(steps=5_000, telemetry=NULL_TELEMETRY)
        assert NULL_TELEMETRY.report() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestEngineCounters:
    def test_serial_counters_match_trace_exactly(self):
        registry = MetricsRegistry()
        simulator, result = run_simulator(telemetry=registry)
        recorder = simulator.recorder
        attempts = sum(
            r.cas_attempts for r in simulator.memory._registers.values()
        )
        successes = sum(
            r.cas_successes for r in simulator.memory._registers.values()
        )
        assert registry.counters["sim.runs"] == 1
        assert registry.counters["sim.steps"] == recorder.total_steps
        assert (
            registry.counters["sim.completions"] == recorder.total_completions
        )
        assert registry.counters["sim.cas_wins"] == successes
        assert registry.counters["sim.cas_losses"] == attempts - successes
        assert registry.counters["sim.crashes"] == 0
        assert "sim.blocks" not in registry.counters
        assert result.steps_this_run == 20_000

    def test_batched_counters_match_serial(self):
        serial_registry = MetricsRegistry()
        run_simulator(telemetry=serial_registry)
        batched_registry = MetricsRegistry()
        run_simulator(telemetry=batched_registry, batched=True)
        blocks = batched_registry.counters.pop("sim.blocks")
        assert blocks >= 1
        assert batched_registry.counters == serial_registry.counters

    def test_contention_batched_run_reports_the_batched_engine(self):
        """An observed (contention) scheduler runs run_batched's own block
        loop: the event says ``batched`` and blocks are counted, while
        steps, completions and per-process step counts match run()."""

        def contention_run(batched):
            registry = MetricsRegistry()
            events = []
            registry.subscribe(EVENT_RUN, events.append)
            simulator = Simulator(
                cas_counter(),
                ContentionScheduler(focus=4.0),
                n_processes=4,
                memory=make_counter_memory(),
                rng=5,
                crash_times={2: 700},
                telemetry=registry,
            )
            if batched:
                simulator.run_batched(3_000, batch_size=512)
            else:
                simulator.run(3_000)
            return registry.counters, events

        serial_counters, serial_events = contention_run(False)
        batched_counters, batched_events = contention_run(True)
        assert [event["engine"] for event in serial_events] == ["serial"]
        assert [event["engine"] for event in batched_events] == ["batched"]
        # 700 - 1 steps up to the crash (two 512-step blocks), then the
        # rest of the budget in 512-step blocks.
        assert batched_counters.pop("sim.blocks") == 2 + 5
        assert "sim.blocks" not in serial_counters
        assert batched_counters == serial_counters
        assert batched_counters["sim.steps"] == 3_000
        for key in ("steps", "completions", "step_counts"):
            assert batched_events[0][key] == serial_events[0][key]

    def test_crash_events_counted(self):
        registry = MetricsRegistry()
        run_simulator(
            steps=10_000, telemetry=registry, crash_times={0: 50, 1: 100}
        )
        assert registry.counters["sim.crashes"] == 2

    def test_crash_outside_horizon_not_counted(self):
        registry = MetricsRegistry()
        run_simulator(steps=1_000, telemetry=registry, crash_times={0: 10**9})
        assert registry.counters["sim.crashes"] == 0

    def test_repeated_runs_report_per_call_deltas(self):
        registry = MetricsRegistry()
        simulator = Simulator(
            cas_counter(),
            UniformStochasticScheduler(),
            n_processes=4,
            memory=make_counter_memory(),
            rng=3,
            telemetry=registry,
        )
        simulator.run(5_000)
        simulator.run(5_000)
        assert registry.counters["sim.runs"] == 2
        assert registry.counters["sim.steps"] == 10_000
        assert (
            registry.counters["sim.completions"]
            == simulator.recorder.total_completions
        )

    def test_ensemble_counters_match_batched(self):
        batched_registry = MetricsRegistry()
        run_simulator(telemetry=batched_registry, batched=True)
        ensemble_registry = MetricsRegistry()
        measure_latencies_ensemble(
            cas_counter(),
            UniformStochasticScheduler,
            4,
            20_000,
            [7],
            telemetry=ensemble_registry,
        )
        counters = ensemble_registry.counters
        assert counters["ensemble.replicates"] == 1
        assert counters["ensemble.segments"] == 1
        assert counters["ensemble.steps"] == batched_registry.counters["sim.steps"]
        assert (
            counters["ensemble.completions"]
            == batched_registry.counters["sim.completions"]
        )
        assert (
            counters["ensemble.cas_wins"]
            == batched_registry.counters["sim.cas_wins"]
        )
        assert (
            counters["ensemble.cas_losses"]
            == batched_registry.counters["sim.cas_losses"]
        )

    def test_ensemble_crash_segments_counted(self):
        registry = MetricsRegistry()
        measure_latencies_ensemble(
            cas_counter(),
            UniformStochasticScheduler,
            4,
            10_000,
            [7],
            crash_times={0: 50, 1: 100},
            telemetry=registry,
        )
        assert registry.counters["ensemble.crashes"] == 2
        # Two crash boundaries split the horizon into three segments.
        assert registry.counters["ensemble.segments"] == 3


class TestBitIdentity:
    """Telemetry must never change a single output bit, on any engine."""

    @pytest.mark.parametrize("batched", [False, True])
    def test_simulator_identical_with_telemetry(self, batched):
        baseline = measure_latencies(
            cas_counter(),
            UniformStochasticScheduler(),
            n_processes=4,
            steps=20_000,
            memory=make_counter_memory(),
            rng=7,
            batched=batched,
        )
        observed = measure_latencies(
            cas_counter(),
            UniformStochasticScheduler(),
            n_processes=4,
            steps=20_000,
            memory=make_counter_memory(),
            rng=7,
            batched=batched,
            telemetry=MetricsRegistry(),
        )
        assert observed == baseline

    def test_ensemble_identical_with_telemetry(self):
        seeds = [(0, 4, r) for r in range(3)]
        baseline = measure_latencies_ensemble(
            cas_counter(),
            UniformStochasticScheduler,
            4,
            20_000,
            seeds,
        )
        observed = measure_latencies_ensemble(
            cas_counter(),
            UniformStochasticScheduler,
            4,
            20_000,
            seeds,
            telemetry=MetricsRegistry(),
        )
        assert observed == baseline

    @pytest.mark.parametrize("engine", ["serial", "batched", "ensemble"])
    def test_sweep_identical_with_telemetry(self, engine):
        kwargs = dict(steps=15_000, repeats=2, seed=11, engine=engine)
        baseline = latency_sweep(
            cas_counter, make_counter_memory, [2, 4], **kwargs
        )
        observed = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            telemetry=MetricsRegistry(),
            **kwargs,
        )
        assert observed == baseline

    def test_parallel_sweep_identical_with_telemetry(self):
        kwargs = dict(steps=15_000, repeats=2, seed=5, max_workers=2)
        baseline = parallel_sweep(
            cas_counter, make_counter_memory, [2, 4], **kwargs
        )
        observed = parallel_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            telemetry=MetricsRegistry(),
            **kwargs,
        )
        assert observed == baseline


class TestSweepTelemetry:
    def test_point_counters_and_timing(self):
        registry = MetricsRegistry()
        latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            steps=10_000,
            repeats=2,
            engine="serial",
            telemetry=registry,
        )
        assert registry.counters["sweep.points"] == 2
        assert registry.counters["sweep.replicates"] == 4
        assert registry.histograms["sweep.point_seconds"].count == 2
        assert registry.gauges["sweep.replicates_per_sec"] > 0
        # The engine counters rode along.
        assert registry.counters["sim.runs"] == 4

    def test_sweep_point_events_emitted(self):
        registry = MetricsRegistry()
        points = []
        registry.subscribe("sweep.point", points.append)
        latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            steps=10_000,
            repeats=2,
            engine="ensemble",
            telemetry=registry,
        )
        assert [p["n"] for p in points] == [2, 4]
        assert all(p["replicates"] == 2 for p in points)

    def test_checkpoint_counters_and_resume(self, tmp_path):
        path = tmp_path / "sweep.store"
        kwargs = dict(steps=10_000, repeats=2, seed=3)
        write_registry = MetricsRegistry()
        fingerprint = sweep_fingerprint(
            seed=3,
            steps=10_000,
            scheduler=UniformStochasticScheduler(),
            n_values=[2, 4],
            repeats=2,
            burn_in=None,
            crash_times=None,
        )
        # A store compacting every two records turns the four records
        # into two chunks; close() fsyncs, so at least one batch landed.
        with ColumnarSweepStore.open(
            path, fingerprint, compact_every=2, telemetry=write_registry
        ) as store:
            latency_sweep(
                cas_counter,
                make_counter_memory,
                [2, 4],
                store=store,
                telemetry=write_registry,
                **kwargs,
            )
        assert write_registry.counters["store.records"] == 4
        assert write_registry.counters["store.compactions"] == 2
        assert write_registry.counters["store.compacted_records"] == 4
        assert write_registry.counters["store.fsync_batches"] >= 1

        resume_registry = MetricsRegistry()
        latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            store=path,
            resume=True,
            telemetry=resume_registry,
            **kwargs,
        )
        assert resume_registry.counters["store.resume_hits"] == 4
        assert resume_registry.counters.get("store.resume_misses", 0) == 0
        assert "store.records" not in resume_registry.counters

    def test_partial_resume_counts_misses(self, tmp_path):
        path = tmp_path / "sweep.store"
        kwargs = dict(steps=10_000, repeats=2, seed=3)

        class Interrupt(Exception):
            pass

        def stop_after_first(done, total, key):
            raise Interrupt

        # Interrupt the sweep after its first replicate lands.
        with pytest.raises(Interrupt):
            latency_sweep(
                cas_counter,
                make_counter_memory,
                [2],
                store=path,
                on_progress=stop_after_first,
                **kwargs,
            )
        registry = MetricsRegistry()
        latency_sweep(
            cas_counter,
            make_counter_memory,
            [2],
            store=path,
            resume=True,
            telemetry=registry,
            **kwargs,
        )
        assert registry.counters["store.resume_hits"] == 1
        assert registry.counters["store.resume_misses"] == 1
        assert registry.counters["store.records"] == 1


class TestExecutorTelemetry:
    def test_clean_run_counts_tasks(self):
        registry = MetricsRegistry()
        executor = ResilientExecutor(
            square_worker, max_workers=2, policy=FAST, telemetry=registry
        )
        results = executor.run(list(range(8)))
        assert len(results) == 8
        assert registry.counters["executor.runs"] == 1
        assert registry.counters["executor.tasks_completed"] == 8
        assert registry.counters["executor.retries"] == 0
        assert "executor.backoff_seconds" not in registry.histograms

    def test_retries_and_backoff_recorded(self, tmp_path):
        registry = MetricsRegistry()
        executor = ResilientExecutor(
            flaky_worker, max_workers=2, policy=FAST, telemetry=registry
        )
        results = executor.run(list(range(4)), args=(str(tmp_path),))
        assert len(results) == 4
        assert registry.counters["executor.retries"] >= 1
        backoff = registry.histograms["executor.backoff_seconds"]
        assert backoff.count == 1
        assert backoff.total > 0
        assert backoff.total == pytest.approx(executor.stats.backoff_seconds)


class TestUniformityObserver:
    def test_uniform_scheduler_tv_near_zero(self):
        registry = MetricsRegistry()
        observer = SchedulerUniformityObserver().attach(registry)
        run_simulator(steps=50_000, n=4, telemetry=registry)
        assert observer.runs == 1
        assert observer.total_variation_distance(4) < 0.02
        assert observer.fairness_ratio(4) > 0.9

    def test_adversarial_scheduler_tv_clearly_positive(self):
        registry = MetricsRegistry()
        observer = SchedulerUniformityObserver().attach(registry)
        simulator = Simulator(
            cas_counter(),
            AdversarialScheduler.starve(victim=0),
            n_processes=4,
            memory=make_counter_memory(),
            rng=1,
            telemetry=registry,
        )
        simulator.run(10_000)
        # The starvation adversary never schedules the victim: its share
        # is 0, so TV distance is exactly 1/n and fairness collapses.
        assert observer.total_variation_distance(4) == pytest.approx(0.25)
        assert observer.fairness_ratio(4) == 0.0

    def test_buckets_are_per_process_count(self):
        observer = SchedulerUniformityObserver()
        observer.observe_counts([10, 10])
        observer.observe_counts([5, 5, 5, 5])
        assert observer.n_values == [2, 4]
        assert observer.total_variation_distance(2) == 0.0
        with pytest.raises(ValueError, match="pass n="):
            observer.total_variation_distance()
        with pytest.raises(ValueError, match="no runs with n=8"):
            observer.total_variation_distance(8)

    def test_observe_recorder(self):
        simulator, _ = run_simulator(steps=5_000)
        observer = SchedulerUniformityObserver()
        observer.observe_recorder(simulator.recorder)
        assert observer.n_values == [4]
        np.testing.assert_array_equal(
            observer._counts[4],
            [simulator.recorder.steps[pid] for pid in range(4)],
        )

    def test_report_aggregates(self):
        observer = SchedulerUniformityObserver()
        observer.observe_counts([10, 10])
        observer.observe_counts([20, 0])
        report = observer.report()
        assert report["runs"] == 2
        assert report["per_n"]["2"]["steps"] == 40
        assert report["max_tv_distance"] == pytest.approx(0.25)

    def test_empty_observer_rejects_queries(self):
        observer = SchedulerUniformityObserver()
        with pytest.raises(ValueError, match="no runs observed"):
            observer.total_variation_distance()
        assert observer.report() == {"runs": 0, "per_n": {}}


class TestRunReport:
    def test_round_trips_through_json(self, tmp_path):
        registry = MetricsRegistry()
        observer = SchedulerUniformityObserver().attach(registry)
        run_simulator(steps=10_000, telemetry=registry)
        registry.set_gauge("g", 1.5)
        with registry.span("block_seconds"):
            pass
        path = tmp_path / "report.json"
        written = write_run_report(
            path,
            registry,
            command="test",
            observer=observer,
            extra={"workload": "cas-counter"},
        )
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert loaded["schema"] == 2
        assert loaded["command"] == "test"
        assert loaded["extra"] == {"workload": "cas-counter"}
        assert loaded["metrics"] == registry.report()
        assert loaded["uniformity"]["runs"] == 1

    def test_extras_cannot_clobber_reserved_keys(self, tmp_path):
        # Schema 1 merged ``extra`` into the top level *before* setting
        # metrics/uniformity: caller keys silently overwrote
        # schema/command and were in turn overwritten by reserved keys.
        # Schema 2 namespaces extras, preserving both sides verbatim.
        registry = MetricsRegistry()
        registry.inc("c")
        path = tmp_path / "report.json"
        extra = {"schema": "bogus", "command": "evil", "metrics": {"x": 1}}
        written = write_run_report(
            path, registry, command="real", extra=extra
        )
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert loaded["schema"] == 2
        assert loaded["command"] == "real"
        assert loaded["metrics"] == registry.report()
        assert loaded["extra"] == extra

    def test_observer_optional(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("c")
        path = tmp_path / "report.json"
        write_run_report(path, registry)
        loaded = json.loads(path.read_text())
        assert "uniformity" not in loaded
        assert loaded["metrics"]["counters"] == {"c": 1}
