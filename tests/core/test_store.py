"""Tests for the chunked columnar result store (repro.core.store)."""

import json

import pytest

from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    sweep_fingerprint,
)
from repro.core.scheduler import UniformStochasticScheduler
from repro.core.store import (
    METRIC_COLUMNS,
    STORE_SCHEMA_VERSION,
    ColumnarSweepStore,
)
from repro.core.sweep import latency_sweep, parallel_sweep


def fingerprint(**overrides):
    base = dict(
        seed=7,
        steps=10_000,
        scheduler=UniformStochasticScheduler(),
        n_values=[2, 4],
        repeats=3,
        burn_in=None,
        crash_times=None,
    )
    base.update(overrides)
    return sweep_fingerprint(**base)


class TestOpenAndLoad:
    def test_header_written_and_fingerprint_round_trips(self, tmp_path):
        path = tmp_path / "store"
        ColumnarSweepStore.open(path, fingerprint()).close()
        assert ColumnarSweepStore.load_fingerprint(path) == fingerprint()
        header = json.loads((path / "header.json").read_text())
        assert header["version"] == STORE_SCHEMA_VERSION
        assert header["metrics"] == list(METRIC_COLUMNS)

    def test_record_then_resume_restores_triples_exactly(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 0, (1.25, 0.5, 1.0))
        store.record(4, 2, (3.875, 0.125, 0.9999999999999999))
        store.close()
        resumed = ColumnarSweepStore.open(path, fingerprint(), resume=True)
        assert resumed.completed == {
            (2, 0): (1.25, 0.5, 1.0),
            (4, 2): (3.875, 0.125, 0.9999999999999999),
        }
        resumed.close()

    def test_existing_store_without_resume_refused(self, tmp_path):
        path = tmp_path / "store"
        ColumnarSweepStore.open(path, fingerprint()).close()
        with pytest.raises(CheckpointError, match="resume=True"):
            ColumnarSweepStore.open(path, fingerprint())

    def test_resume_on_missing_directory_starts_fresh(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint(), resume=True)
        assert store.completed == {}
        store.close()
        assert (path / "header.json").exists()

    def test_fingerprint_mismatch_rejected_loudly(self, tmp_path):
        path = tmp_path / "store"
        ColumnarSweepStore.open(path, fingerprint()).close()
        with pytest.raises(CheckpointMismatchError, match="steps"):
            ColumnarSweepStore.open(
                path, fingerprint(steps=20_000), resume=True
            )

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "store"
        ColumnarSweepStore.open(path, fingerprint()).close()
        header = json.loads((path / "header.json").read_text())
        header["version"] = STORE_SCHEMA_VERSION + 1
        (path / "header.json").write_text(json.dumps(header))
        with pytest.raises(CheckpointError, match="schema version"):
            ColumnarSweepStore.open(path, fingerprint(), resume=True)

    def test_corrupt_header_is_an_error(self, tmp_path):
        path = tmp_path / "store"
        ColumnarSweepStore.open(path, fingerprint()).close()
        (path / "header.json").write_text("not json")
        with pytest.raises(CheckpointError, match="header"):
            ColumnarSweepStore.open(path, fingerprint(), resume=True)


class TestHeaderlessDirectory:
    """A directory with results but no header.json is another sweep's
    leftovers: opening it must refuse, never write a header over them."""

    @pytest.mark.parametrize("resume", [False, True])
    def test_leftover_chunks_refused(self, tmp_path, resume):
        path = tmp_path / "store"
        sweep_a = fingerprint(n_values=[2, 4, 8], repeats=10)
        with ColumnarSweepStore.open(path, sweep_a, compact_every=10) as store:
            for n in (2, 4, 8):
                for r in range(10):
                    store.record(n, r, (float(n), float(r), 1.0))
        assert len(list(path.glob("chunk-*.npz"))) == 3
        (path / "header.json").unlink()
        with pytest.raises(CheckpointError) as info:
            ColumnarSweepStore.open(path, fingerprint(seed=8), resume=resume)
        message = str(info.value)
        assert str(path) in message
        assert "no header.json" in message
        assert "chunk-00000.npz" in message
        assert not (path / "header.json").exists()
        assert not (path / "writer.lock").exists()

    def test_leftover_tail_records_refused(self, tmp_path):
        path = tmp_path / "store"
        path.mkdir()
        (path / "tail.jsonl").write_text(
            '{"kind": "point", "n": 2, "r": 0, "v": [1.0, 2.0, 3.0]}\n'
        )
        with pytest.raises(CheckpointError, match="tail.jsonl"):
            ColumnarSweepStore.open(path, fingerprint())

    def test_crash_before_header_starts_fresh(self, tmp_path):
        # What a crash before the header landed can leave: a lock
        # sidecar, a temp header, an empty tail.  None of it is a result.
        path = tmp_path / "store"
        path.mkdir()
        (path / "writer.lock").write_text("999999\n")
        (path / "header.jsonab12.tmp").write_text("{")
        (path / "tail.jsonl").write_text("")
        with ColumnarSweepStore.open(path, fingerprint()) as store:
            store.record(2, 0, (1.0, 2.0, 3.0))
        assert ColumnarSweepStore.load_completed(path) == {
            (2, 0): (1.0, 2.0, 3.0)
        }


class TestCompaction:
    def test_tail_compacts_into_chunks_at_threshold(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(
            path, fingerprint(n_values=[2], repeats=10), compact_every=4
        )
        for r in range(10):
            store.record(2, r, (float(r), 0.5, 1.0))
        # Two full chunks compacted; two records still in the tail.
        assert store.chunk_count == 2
        assert store.pending_tail_records == 2
        store.close()
        # close() does not compact: the remainder stays in the tail.
        assert len(sorted(path.glob("chunk-*.npz"))) == 2
        tail_lines = (path / "tail.jsonl").read_text().splitlines()
        assert [json.loads(line)["r"] for line in tail_lines] == [8, 9]
        loaded = ColumnarSweepStore.load_completed(path)
        assert loaded == {
            (2, r): (float(r), 0.5, 1.0) for r in range(10)
        }

    def test_chunks_plus_tail_equal_tail_only(self, tmp_path):
        triples = {
            (n, r): (n + r / 7.0, 1.0 / (r + 1), 0.25 * r)
            for n in (2, 4)
            for r in range(5)
        }
        compacted_path = tmp_path / "compacted"
        tail_path = tmp_path / "tail-only"
        fp = fingerprint(repeats=5)
        with ColumnarSweepStore.open(
            compacted_path, fp, compact_every=3
        ) as compacted:
            with ColumnarSweepStore.open(
                tail_path, fp, compact_every=10_000
            ) as tail_only:
                for (n, r), triple in triples.items():
                    compacted.record(n, r, triple)
                    tail_only.record(n, r, triple)
                # Don't let the tail-only store compact on close.
                assert tail_only.pending_tail_records == len(triples)
                tail_only.flush()
                assert ColumnarSweepStore.load_completed(
                    tail_path
                ) == ColumnarSweepStore.load_completed(compacted_path) == {
                    key: triples[key] for key in triples
                }

    def test_crash_between_chunk_write_and_truncate_dedups(self, tmp_path):
        # Compaction renames the chunk into place *before* truncating
        # the tail; simulate a crash in that window by recreating the
        # tail lines after compaction.  Load must last-wins dedup.
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint(), compact_every=100)
        store.record(2, 0, (1.0, 2.0, 3.0))
        store.record(2, 1, (4.0, 5.0, 6.0))
        tail_bytes = (path / "tail.jsonl").read_bytes()
        store.compact()
        (path / "tail.jsonl").write_bytes(tail_bytes)  # the crash window
        store.close()
        assert ColumnarSweepStore.load_completed(path) == {
            (2, 0): (1.0, 2.0, 3.0),
            (2, 1): (4.0, 5.0, 6.0),
        }

    def test_corrupt_chunk_is_an_error(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint(), compact_every=1)
        store.record(2, 0, (1.0, 2.0, 3.0))
        store.close()
        chunk = next(path.glob("chunk-*.npz"))
        chunk.write_bytes(b"garbage not a zipfile")
        with pytest.raises(CheckpointError, match="corrupt"):
            ColumnarSweepStore.open(path, fingerprint(), resume=True)

    def test_chunk_with_foreign_dtypes_is_an_error(self, tmp_path):
        import numpy as np

        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint(), compact_every=1)
        store.record(2, 0, (1.0, 2.0, 3.0))
        store.close()
        chunk = next(path.glob("chunk-*.npz"))
        with np.load(chunk) as arrays:
            columns = {name: arrays[name] for name in arrays.files}
        columns["n"] = columns["n"].astype(np.float64)
        with chunk.open("wb") as handle:
            np.savez(handle, **columns)
        with pytest.raises(CheckpointError, match="dtypes"):
            ColumnarSweepStore.load_completed(path)

    def test_torn_final_tail_line_tolerated_and_repaired(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 0, (1.0, 2.0, 3.0))
        store.close()
        with (path / "tail.jsonl").open("a") as handle:
            handle.write('{"kind": "point", "n": 4, "r"')  # torn mid-append
        resumed = ColumnarSweepStore.open(path, fingerprint(), resume=True)
        assert resumed.completed == {(2, 0): (1.0, 2.0, 3.0)}
        resumed.record(4, 0, (4.0, 5.0, 6.0))
        resumed.close()
        assert ColumnarSweepStore.load_completed(path) == {
            (2, 0): (1.0, 2.0, 3.0),
            (4, 0): (4.0, 5.0, 6.0),
        }

    def test_corrupt_middle_tail_line_is_an_error(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 0, (1.0, 2.0, 3.0))
        store.record(2, 1, (4.0, 5.0, 6.0))
        store.close()
        # close() compacted; rebuild a tail with garbage in the middle —
        # a non-final garbage line is never a torn tail.
        (path / "tail.jsonl").write_text(
            '{"kind": "point", "n": 8, "r": 0, "v": [1.0, 2.0, 3.0]}\n'
            "garbage\n"
            '{"kind": "point", "n": 8, "r": 1, "v": [4.0, 5.0, 6.0]}\n'
        )
        with pytest.raises(CheckpointError, match="corrupt"):
            ColumnarSweepStore.open(path, fingerprint(), resume=True)

    def test_malformed_tail_record_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "store"
        ColumnarSweepStore.open(path, fingerprint()).close()
        (path / "tail.jsonl").write_text(
            '{"kind": "point", "n": 2, "r": 0, "v": [1.0]}\n'
        )
        with pytest.raises(CheckpointError, match="line 1"):
            ColumnarSweepStore.open(path, fingerprint(), resume=True)


class TestRecording:
    def test_missing_lists_unrecorded_pairs_in_sweep_order(self, tmp_path):
        store = ColumnarSweepStore.open(tmp_path / "store", fingerprint())
        store.record(2, 1, (1.0, 1.0, 1.0))
        assert store.missing([2, 4], 2) == [(2, 0), (4, 0), (4, 1)]
        store.close()

    def test_record_after_close_raises(self, tmp_path):
        store = ColumnarSweepStore.open(tmp_path / "store", fingerprint())
        store.close()
        with pytest.raises(CheckpointError, match="closed"):
            store.record(2, 0, (1.0, 1.0, 1.0))

    def test_rerecorded_key_last_wins(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint(), compact_every=1)
        store.record(2, 0, (1.0, 1.0, 1.0))
        store.record(2, 0, (2.0, 2.0, 2.0))
        store.close()
        assert ColumnarSweepStore.load_completed(path)[(2, 0)] == (
            2.0,
            2.0,
            2.0,
        )

    def test_contains_covers_loaded_and_appended(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint(), compact_every=1)
        store.record(2, 0, (1.0, 1.0, 1.0))
        store.close()
        resumed = ColumnarSweepStore.open(path, fingerprint(), resume=True)
        assert (2, 0) in resumed
        resumed.record(2, 1, (2.0, 2.0, 2.0))
        assert (2, 1) in resumed
        assert (4, 0) not in resumed
        resumed.close()

    def test_live_records_do_not_grow_completed(self, tmp_path):
        # ``completed`` is the resume state; a fresh million-replicate
        # sweep must not mirror every live record into it.
        store = ColumnarSweepStore.open(
            tmp_path / "store", fingerprint(), compact_every=4
        )
        for r in range(10):
            store.record(2, r, (float(r), 0.5, 1.0))
            assert store.pending_tail_records <= 4
        assert store.completed == {}
        store.close()


class TestTriples:
    def test_loaded_plus_recorded_last_wins(self, tmp_path):
        path = tmp_path / "store"
        with ColumnarSweepStore.open(
            path, fingerprint(), compact_every=2
        ) as store:
            for r in range(3):
                store.record(2, r, (float(r), 0.5, 1.0))
            assert store.triples() == {
                (2, r): (float(r), 0.5, 1.0) for r in range(3)
            }
        resumed = ColumnarSweepStore.open(
            path, fingerprint(), resume=True, compact_every=2
        )
        try:
            resumed.record(2, 0, (9.0, 9.0, 9.0))  # re-recorded: last wins
            resumed.record(4, 0, (4.0, 4.0, 4.0))  # compacts the tail
            resumed.record(4, 1, (5.0, 5.0, 5.0))
            expected = {
                (2, 0): (9.0, 9.0, 9.0),
                (2, 1): (1.0, 0.5, 1.0),
                (2, 2): (2.0, 0.5, 1.0),
                (4, 0): (4.0, 4.0, 4.0),
                (4, 1): (5.0, 5.0, 5.0),
            }
            assert resumed.triples() == expected
            assert resumed.completed == {
                (2, r): (float(r), 0.5, 1.0) for r in range(3)
            }
        finally:
            resumed.close()
        assert ColumnarSweepStore.load_completed(path) == expected

    def test_reads_back_only_chunks_compacted_since_open(self, tmp_path):
        path = tmp_path / "store"
        with ColumnarSweepStore.open(
            path, fingerprint(), compact_every=1
        ) as store:
            store.record(2, 0, (1.0, 2.0, 3.0))
        resumed = ColumnarSweepStore.open(
            path, fingerprint(), resume=True, compact_every=1
        )
        try:
            resumed.record(2, 1, (4.0, 5.0, 6.0))
            assert len(list(path.glob("chunk-*.npz"))) == 2
            # The chunk loaded at open is not read again.
            (path / "chunk-00000.npz").write_bytes(b"not a zipfile")
            assert resumed.triples() == {
                (2, 0): (1.0, 2.0, 3.0),
                (2, 1): (4.0, 5.0, 6.0),
            }
        finally:
            resumed.close()


class TestOpenStoreSweep:
    """``latency_sweep(store=<open store>)`` records into the caller's
    handle and leaves it open; misuse fails before any replicate runs."""

    KWARGS = dict(steps=2_000, repeats=3, seed=5)
    FP = dict(seed=5, steps=2_000, n_values=[2, 4], repeats=3)

    def sweep(self, store, **kwargs):
        ran = []
        points = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            store=store,
            on_progress=lambda done, total, key: ran.append(key),
            **{**self.KWARGS, **kwargs},
        )
        return points, ran

    def test_records_into_open_store_and_leaves_it_open(self, tmp_path):
        bare = latency_sweep(
            cas_counter, make_counter_memory, [2, 4], **self.KWARGS
        )
        path = tmp_path / "store"
        with ColumnarSweepStore.open(path, fingerprint(**self.FP)) as store:
            points, ran = self.sweep(store)
            assert not store.closed
            assert len(ran) == 6
            triples = store.triples()
        assert points == bare
        assert ColumnarSweepStore.load_completed(path) == triples
        assert len(triples) == 6

    def test_records_added_after_open_count_as_done(self, tmp_path):
        full = tmp_path / "full"
        bare, _ = self.sweep(full)
        known = ColumnarSweepStore.load_completed(full)
        with ColumnarSweepStore.open(
            tmp_path / "store", fingerprint(**self.FP)
        ) as store:
            for key in [(2, 0), (4, 2)]:
                store.record(*key, known[key])
            points, ran = self.sweep(store, resume=True)
            assert store.triples() == known
        assert points == bare
        assert sorted(ran) == [(2, 1), (2, 2), (4, 0), (4, 1)]

    @pytest.fixture
    def no_replicates(self, monkeypatch):
        import repro.core.sweep as sweep_module

        def refuse(*args, **kwargs):
            pytest.fail("a replicate ran before the store was checked")

        monkeypatch.setattr(sweep_module, "_run_ensemble_grid", refuse)
        monkeypatch.setattr(sweep_module, "_run_replicate", refuse)

    def test_closed_store_raises_naming_its_path(self, tmp_path, no_replicates):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint(**self.FP))
        store.close()
        with pytest.raises(CheckpointError, match="closed") as info:
            self.sweep(store)
        assert str(path) in str(info.value)
        assert ColumnarSweepStore.load_completed(path) == {}

    def test_other_sweeps_store_raises_naming_fields(
        self, tmp_path, no_replicates
    ):
        other = fingerprint(**{**self.FP, "steps": 3_000, "seed": 6})
        with ColumnarSweepStore.open(tmp_path / "store", other) as store:
            with pytest.raises(CheckpointMismatchError) as info:
                self.sweep(store)
            assert store.triples() == {}
        message = str(info.value)
        assert "['seed', 'steps']" in message
        assert "belongs to a different sweep" in message

    def test_records_without_resume_raise(self, tmp_path, no_replicates):
        with ColumnarSweepStore.open(
            tmp_path / "store", fingerprint(**self.FP)
        ) as store:
            store.record(2, 0, (1.0, 1.0, 1.0))
            with pytest.raises(CheckpointError, match="resume=True"):
                self.sweep(store)
            assert store.triples() == {(2, 0): (1.0, 1.0, 1.0)}


class TestSweepIntegration:
    KWARGS = dict(steps=15_000, repeats=3, seed=5)

    def test_store_backed_sweep_matches_bare_sweep(self, tmp_path):
        bare = latency_sweep(
            cas_counter, make_counter_memory, [2, 4], **self.KWARGS
        )
        stored = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            store=tmp_path / "store",
            **self.KWARGS,
        )
        assert bare == stored

    def test_interrupted_store_resume_bit_identical(self, tmp_path):
        # A sweep recorded to the store, interrupted, and resumed is
        # bit-identical to an uninterrupted sweep.
        uninterrupted = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            store=tmp_path / "uninterrupted",
            **self.KWARGS,
        )

        class Interrupt(Exception):
            pass

        def interrupt_after(count):
            def on_progress(done, total, key):
                if done >= count:
                    raise Interrupt

            return on_progress

        with pytest.raises(Interrupt):
            latency_sweep(
                cas_counter,
                make_counter_memory,
                [2, 4],
                store=tmp_path / "store",
                on_progress=interrupt_after(4),
                **self.KWARGS,
            )
        resumed = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            store=tmp_path / "store",
            resume=True,
            **self.KWARGS,
        )
        assert resumed == uninterrupted

    def test_parallel_sweep_with_store_matches_serial(self, tmp_path):
        serial = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            engine="batched",
            **self.KWARGS,
        )
        parallel = parallel_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            max_workers=2,
            store=tmp_path / "store",
            **self.KWARGS,
        )
        assert serial == parallel


class TestWriterLock:
    """Advisory single-writer locking on the store directory."""

    def test_second_writer_fails_loudly_with_pid(self, tmp_path):
        import os

        first = ColumnarSweepStore.open(tmp_path / "store", fingerprint())
        try:
            with pytest.raises(CheckpointError) as info:
                ColumnarSweepStore.open(
                    tmp_path / "store", fingerprint(), resume=True
                )
            assert str(os.getpid()) in str(info.value)
        finally:
            first.close()

    def test_close_releases_the_lock(self, tmp_path):
        ColumnarSweepStore.open(tmp_path / "store", fingerprint()).close()
        ColumnarSweepStore.open(
            tmp_path / "store", fingerprint(), resume=True
        ).close()
        assert not (tmp_path / "store" / "writer.lock").exists()


class TestDegradedCompaction:
    """ENOSPC/EPERM during chunk writes degrades instead of dying."""

    @pytest.fixture(autouse=True)
    def reset_warn_flag(self):
        import repro.core.store as store_module

        store_module._warned_compact_failure = False
        yield
        store_module._warned_compact_failure = False

    def test_compact_failure_warns_once_and_keeps_tail(
        self, tmp_path, monkeypatch
    ):
        import errno

        import repro.core.store as store_module
        from repro.core.telemetry import MetricsRegistry

        def refuse(*args, **kwargs):
            raise OSError(errno.ENOSPC, "no space left on device")

        telemetry = MetricsRegistry()
        store = ColumnarSweepStore.open(
            tmp_path / "store", fingerprint(), telemetry=telemetry
        )
        store.record(2, 0, (1.0, 2.0, 3.0))
        store.record(2, 1, (4.0, 5.0, 6.0))
        monkeypatch.setattr(store_module.tempfile, "mkstemp", refuse)
        with pytest.warns(RuntimeWarning, match="compaction failed"):
            assert store.compact() == 0
        # warned once: the second failure is silent
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert store.compact() == 0
        assert telemetry.counters["store.compaction_failures"] == 2
        # records stayed durable in the tail; recording continues
        store.record(4, 0, (7.0, 8.0, 9.0))
        monkeypatch.undo()
        store.close()  # close() compacts successfully once space returns
        resumed = ColumnarSweepStore.open(
            tmp_path / "store", fingerprint(), resume=True
        )
        try:
            assert resumed.completed == {
                (2, 0): (1.0, 2.0, 3.0),
                (2, 1): (4.0, 5.0, 6.0),
                (4, 0): (7.0, 8.0, 9.0),
            }
        finally:
            resumed.close()

    def test_sweep_survives_compaction_failure(self, tmp_path, monkeypatch):
        import errno

        import repro.core.store as store_module

        def refuse(*args, **kwargs):
            raise OSError(errno.EPERM, "read-only filesystem")

        sweep_kwargs = dict(steps=400, repeats=2, seed=1, engine="batched")
        sweep_fp = fingerprint(
            seed=1, steps=400, n_values=[2], repeats=2
        )
        # The header must exist before the disk "fills": only chunk
        # writes (an optimisation) may degrade, never the journal.  A
        # store compacting after every record makes the sweep attempt
        # (and be refused) a chunk write per replicate.
        store = ColumnarSweepStore.open(
            tmp_path / "store", sweep_fp, compact_every=1
        )
        monkeypatch.setattr(store_module.tempfile, "mkstemp", refuse)
        try:
            with pytest.warns(RuntimeWarning, match="compaction failed"):
                points = latency_sweep(
                    cas_counter,
                    make_counter_memory,
                    [2],
                    store=store,
                    resume=True,
                    **sweep_kwargs,
                )
        finally:
            store.close()
        assert len(points) == 1
        monkeypatch.undo()
        assert list((tmp_path / "store").glob("chunk-*.npz")) == []
        assert len(ColumnarSweepStore.load_completed(tmp_path / "store")) == 2
        direct = latency_sweep(
            cas_counter, make_counter_memory, [2], **sweep_kwargs
        )
        assert points == direct
