"""Tests for the chunked columnar result store (repro.core.store)."""

import json

import pytest

from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    sweep_fingerprint,
)
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
        engine="batched",
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
        # close() compacts the remainder.
        assert len(sorted(path.glob("chunk-*.npz"))) == 3
        assert (path / "tail.jsonl").read_text() == ""
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

    def test_store_and_checkpoint_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            latency_sweep(
                cas_counter,
                make_counter_memory,
                [2],
                checkpoint=tmp_path / "cp.jsonl",
                store=tmp_path / "store",
                **self.KWARGS,
            )

    def test_interrupted_store_resume_bit_identical_to_jsonl(self, tmp_path):
        # The tentpole acceptance: a sweep checkpointed to the columnar
        # store, interrupted, and resumed is bit-identical to an
        # uninterrupted JSONL-only sweep.
        uninterrupted = latency_sweep(
            cas_counter,
            make_counter_memory,
            [2, 4],
            checkpoint=tmp_path / "cp.jsonl",
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
        # writes (an optimisation) may degrade, never the journal.
        ColumnarSweepStore.open(tmp_path / "store", sweep_fp).close()
        monkeypatch.setattr(store_module.tempfile, "mkstemp", refuse)
        with pytest.warns(RuntimeWarning, match="compaction failed"):
            points = latency_sweep(
                cas_counter,
                make_counter_memory,
                [2],
                store=tmp_path / "store",
                resume=True,
                **sweep_kwargs,
            )
        assert len(points) == 1
        monkeypatch.undo()
        direct = latency_sweep(
            cas_counter, make_counter_memory, [2], **sweep_kwargs
        )
        assert points == direct
