"""Tests for the sweep helpers (repro.core.sweep)."""

import random

import pytest

from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.chains.scu import scu_system_latency_exact
from repro.core.sweep import (
    StreamingSweepAggregator,
    latency_sweep,
    parallel_sweep,
    sweep_table,
)
from repro.stats.estimators import mean_confidence_interval


class TestLatencySweep:
    def test_points_cover_n_values(self):
        points = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            steps=30_000,
            repeats=3,
        )
        assert [p.n for p in points] == [2, 4]

    def test_interval_contains_exact_value(self):
        points = latency_sweep(
            cas_counter,
            make_counter_memory,
            [4],
            steps=60_000,
            repeats=5,
        )
        estimate = points[0].system_latency
        exact = scu_system_latency_exact(4)
        # Generous width check: the CI should be near the exact value.
        assert abs(estimate.mean - exact) < max(3 * estimate.half_width, 0.05)

    def test_repeats_validated(self):
        with pytest.raises(ValueError, match="repeats"):
            latency_sweep(cas_counter, make_counter_memory, [2], repeats=1)

    def test_replicates_are_independent(self):
        # Different repeats use different seeds: the half-width is
        # strictly positive (identical runs would give zero).
        points = latency_sweep(
            cas_counter,
            make_counter_memory,
            [4],
            steps=20_000,
            repeats=4,
        )
        assert points[0].system_latency.half_width > 0

    def test_batched_sweep_matches_serial(self):
        # The fast path is trace-equivalent, so the sweep numbers are
        # bit-identical, not merely statistically close.
        kwargs = dict(steps=20_000, repeats=3, seed=11)
        serial = latency_sweep(
            cas_counter, make_counter_memory, [2, 4], **kwargs
        )
        batched = latency_sweep(
            cas_counter, make_counter_memory, [2, 4], engine="batched", **kwargs
        )
        assert serial == batched

    def test_ensemble_engine_matches_batched(self):
        # The ensemble engine resolves whole replicate sets as array
        # operations; the sweep points must still be bit-identical.
        kwargs = dict(steps=20_000, repeats=3, seed=11)
        batched = latency_sweep(
            cas_counter, make_counter_memory, [2, 4], engine="batched", **kwargs
        )
        ensemble = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            engine="ensemble",
            **kwargs,
        )
        assert batched == ensemble

    def test_sharded_ensemble_sweep_matches_single_core(self):
        # max_workers=2 shards the replicate grid across a process pool,
        # each chunk resolved as one fused grid; the sweep points must
        # stay bit-identical to the in-process fused path.
        kwargs = dict(steps=3_000, repeats=4, seed=11, engine="ensemble")
        single = latency_sweep(
            cas_counter, make_counter_memory, [2, 4], **kwargs
        )
        sharded = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            max_workers=2,
            **kwargs,
        )
        assert single == sharded

    def test_engine_names_validated(self):
        with pytest.raises(ValueError, match="unknown engine"):
            latency_sweep(
                cas_counter,
                make_counter_memory,
                [2],
                steps=5_000,
                repeats=2,
                engine="turbo",
            )


class TestParallelSweep:
    def test_bit_identical_to_serial(self):
        # Same (seed, n, replicate) seeding per task means worker
        # scheduling cannot influence the numbers.
        kwargs = dict(steps=20_000, repeats=3, seed=5)
        serial = latency_sweep(
            cas_counter, make_counter_memory, [2, 4], engine="batched", **kwargs
        )
        parallel = parallel_sweep(
            cas_counter, make_counter_memory, [2, 4], max_workers=2, **kwargs
        )
        assert serial == parallel

    def test_repeats_validated(self):
        with pytest.raises(ValueError, match="repeats"):
            parallel_sweep(cas_counter, make_counter_memory, [2], repeats=1)

    def test_chunked_dispatch_bit_identical(self):
        # Chunking only changes how tasks are grouped per pool future;
        # every chunk size must give the serial sweep's exact numbers.
        kwargs = dict(steps=20_000, repeats=3, seed=5)
        serial = latency_sweep(
            cas_counter, make_counter_memory, [2, 4], engine="batched", **kwargs
        )
        for chunk_size in (1, 3, None):
            chunked = parallel_sweep(
                cas_counter,
                make_counter_memory,
                [2, 4],
                max_workers=2,
                chunk_size=chunk_size,
                **kwargs,
            )
            assert serial == chunked, chunk_size

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError, match="chunk_size"):
            parallel_sweep(
                cas_counter,
                make_counter_memory,
                [2],
                repeats=2,
                chunk_size=0,
            )


class _Interrupt(Exception):
    pass


class TestPooledSweep:
    """``latency_sweep(max_workers=k)`` sends the missing replicates
    through the resilient pool for every engine; the worker count,
    the crash schedule and the transport never change a bit."""

    KWARGS = dict(steps=2_000, repeats=3, seed=7)

    @pytest.mark.parametrize("dispatch", ["pickle", "sharedmem"])
    @pytest.mark.parametrize("crash_times", [None, {0: 400}], ids=["clean", "crash"])
    @pytest.mark.parametrize("engine", ["serial", "batched", "ensemble"])
    def test_worker_count_never_changes_the_triples(
        self, engine, crash_times, dispatch
    ):
        kwargs = dict(self.KWARGS, engine=engine, crash_times=crash_times)
        reference = latency_sweep(
            cas_counter, make_counter_memory, [2, 4], **kwargs
        )
        for workers in (2, 4):
            pooled = latency_sweep(
                cas_counter,
                make_counter_memory,
                [2, 4],
                max_workers=workers,
                dispatch=dispatch,
                **kwargs,
            )
            assert pooled == reference, workers

    @pytest.mark.parametrize("first, second", [(1, 2), (2, 4), (4, 1)])
    @pytest.mark.parametrize("engine", ["serial", "batched", "ensemble"])
    def test_resume_from_store_written_at_another_worker_count(
        self, tmp_path, engine, first, second
    ):
        kwargs = dict(self.KWARGS, engine=engine)
        reference = latency_sweep(
            cas_counter, make_counter_memory, [2, 4], **kwargs
        )

        def interrupt(done, total, key):
            if done == 2:
                raise _Interrupt

        store = tmp_path / "store"
        with pytest.raises(_Interrupt):
            latency_sweep(
                cas_counter,
                make_counter_memory,
                [2, 4],
                max_workers=first,
                store=store,
                on_progress=interrupt,
                **kwargs,
            )
        resumed = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            max_workers=second,
            store=store,
            resume=True,
            **kwargs,
        )
        assert resumed == reference

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "two", True, None])
    def test_bad_max_workers_rejected_naming_the_value(self, bad):
        with pytest.raises(ValueError, match=f"max_workers.*{bad!r}"):
            latency_sweep(
                cas_counter, make_counter_memory, [2], max_workers=bad
            )

    @pytest.mark.parametrize("bad", [0, -1])
    def test_parallel_sweep_rejects_non_positive_workers(self, bad):
        # Once a ZeroDivisionError (0) and a silent serial fallback (-1).
        with pytest.raises(ValueError, match=f"max_workers.*{bad!r}"):
            parallel_sweep(
                cas_counter, make_counter_memory, [2], max_workers=bad
            )

    def test_parallel_sweep_forwards_with_batched_defaults(self, monkeypatch):
        from repro.core import sweep as sweep_mod

        seen = {}

        def fake(*args, **kwargs):
            seen.update(kwargs)
            return "points"

        monkeypatch.setattr(sweep_mod, "latency_sweep", fake)
        assert parallel_sweep(cas_counter, make_counter_memory, [2]) == "points"
        assert seen["engine"] == "batched"
        assert seen["max_workers"] == sweep_mod.available_cpu_count()


class TestSweepTable:
    def test_table_rendering(self):
        points = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2],
            steps=20_000,
            repeats=3,
        )
        table = sweep_table(points)
        assert "+-" in table
        assert "system latency" in table


class TestStreamingAggregator:
    def triples(self, n_values, repeats, offset=0.0):
        return {
            (n, r): (
                n + r / 7.0 + offset,
                1.0 / (n + r + 1),
                0.25 + 0.1 * r,
            )
            for n in n_values
            for r in range(repeats)
        }

    def test_matches_batch_estimator_to_float64_tolerance(self):
        n_values, repeats = [2, 4], 9
        triples = self.triples(n_values, repeats)
        aggregator = StreamingSweepAggregator(n_values, repeats)
        for key, triple in triples.items():
            aggregator.add(key, triple)
        points = aggregator.points(0.95)
        for point in points:
            batch = [
                mean_confidence_interval(
                    [triples[(point.n, r)][i] for r in range(repeats)],
                    confidence=0.95,
                )
                for i in range(3)
            ]
            streamed = (
                point.system_latency,
                point.completion_rate,
                point.fairness_ratio,
            )
            for stream_est, batch_est in zip(streamed, batch):
                assert stream_est.mean == pytest.approx(
                    batch_est.mean, rel=1e-12, abs=1e-15
                )
                assert stream_est.half_width == pytest.approx(
                    batch_est.half_width, rel=1e-12, abs=1e-15
                )
                assert stream_est.n_samples == batch_est.n_samples == repeats

    def test_out_of_order_add_is_bit_identical_to_in_order(self):
        # Parallel sweeps complete replicates in arbitrary order; the
        # pending-buffer canonical folding makes the result a function
        # of the task set alone.
        n_values, repeats = [2, 4], 6
        triples = self.triples(n_values, repeats)
        in_order = StreamingSweepAggregator(n_values, repeats)
        for key in sorted(triples):
            in_order.add(key, triples[key])
        shuffled = StreamingSweepAggregator(n_values, repeats)
        keys = list(triples)
        rng = random.Random(13)
        rng.shuffle(keys)
        for key in keys:
            shuffled.add(key, triples[key])
        assert shuffled.pending_count == 0
        assert shuffled.points(0.95) == in_order.points(0.95)

    def test_duplicate_replicate_rejected(self):
        aggregator = StreamingSweepAggregator([2], 3)
        aggregator.add((2, 0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="already added"):
            aggregator.add((2, 0), (1.0, 1.0, 1.0))
        # Out-of-order duplicates (still pending) are caught too.
        aggregator.add((2, 2), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="already added"):
            aggregator.add((2, 2), (2.0, 2.0, 2.0))

    def test_keys_outside_sweep_rejected(self):
        aggregator = StreamingSweepAggregator([2], 3)
        with pytest.raises(KeyError, match="outside the sweep"):
            aggregator.add((8, 0), (1.0, 1.0, 1.0))
        with pytest.raises(KeyError, match="outside"):
            aggregator.add((2, 3), (1.0, 1.0, 1.0))

    def test_points_with_missing_replicates_rejected(self):
        aggregator = StreamingSweepAggregator([2, 4], 2)
        aggregator.add((2, 0), (1.0, 1.0, 1.0))
        aggregator.add((2, 1), (2.0, 2.0, 2.0))
        with pytest.raises(ValueError, match=r"n=\[4\]"):
            aggregator.points(0.95)


class TestCrashScheduleResolution:
    def test_callable_schedule_resolved_once_per_n(self):
        # The resolve-once fix: the callable must be invoked exactly one
        # time per sweep point, not once for the fingerprint and again
        # per replicate (a nondeterministic callable used to crash
        # different replicates than the fingerprint recorded).
        calls = []

        def schedule(n):
            calls.append(n)
            return {0: 50}

        latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            steps=5_000,
            repeats=3,
            crash_times=schedule,
        )
        assert calls == [2, 4]

    def test_callable_and_equivalent_dict_schedules_agree(self):
        kwargs = dict(steps=5_000, repeats=3, seed=3)
        from_dict = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2],
            crash_times={0: 50},
            **kwargs,
        )
        from_callable = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2],
            crash_times=lambda n: {0: 50},
            **kwargs,
        )
        assert from_dict == from_callable

    def test_parallel_sweep_accepts_unpicklable_callable(self):
        # Resolution happens before dispatch, so lambdas (unpicklable
        # by the stdlib pickler) are fine for parallel sweeps now.
        kwargs = dict(steps=5_000, repeats=2, seed=3)
        serial = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2],
            crash_times=lambda n: {0: 50},
            **kwargs,
        )
        parallel = parallel_sweep(
            cas_counter,
            make_counter_memory,
            [2],
            max_workers=2,
            crash_times=lambda n: {0: 50},
            **kwargs,
        )
        assert serial == parallel
