"""Tests for the sweep journal contract (repro.core.checkpoint).

``repro.core.checkpoint`` holds what the durable journals share: the
fingerprint, the crash-configuration hash, point-record validation,
torn-tail repair, the writer lock and the open-journal registry.  The
one result journal is :class:`~repro.core.store.ColumnarSweepStore`, so
the contract is checked on it — mostly on its JSONL write-ahead tail as
a killed sweep leaves it, before any compaction into chunks
(``tests/core/test_store.py`` covers the chunks).
"""

import json
import os

import pytest

from repro.core.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    crash_config_hash,
    flush_active_checkpoints,
    sweep_fingerprint,
)
from repro.core.store import STORE_SCHEMA_VERSION, ColumnarSweepStore


def fingerprint(**overrides):
    base = dict(
        seed=7,
        steps=10_000,
        n_values=[2, 4],
        repeats=3,
        burn_in=None,
        crash_times=None,
    )
    base.update(overrides)
    return sweep_fingerprint(**base)


def uniform_pi(time, active):
    return {pid: 1.0 / len(active) for pid in active}


def first_pi(time, active):
    return {pid: float(pid == active[0]) for pid in active}


def killed(store):
    """Leave ``store`` as a kill before compaction would: every record
    flushed to the write-ahead tail, no chunk written (closing does not
    compact, and these stores stay under ``compact_every``)."""
    store.close()
    assert not list(store.path.glob("chunk-*.npz"))


class TestCrashConfigHash:
    def test_none_hashes_to_none(self):
        assert crash_config_hash(None, [2, 4]) == "none"

    def test_dict_and_equivalent_callable_hash_equal(self):
        mapping = {0: 100, 1: 200}
        assert crash_config_hash(mapping, [2, 4]) == crash_config_hash(
            lambda n: mapping, [2, 4]
        )

    def test_different_schedules_hash_differently(self):
        assert crash_config_hash({0: 100}, [2]) != crash_config_hash(
            {0: 101}, [2]
        )

    def test_callable_resolved_per_sweep_point(self):
        # A callable schedule that varies with n must hash differently
        # from one that does not.
        varying = crash_config_hash(lambda n: {0: n}, [2, 4])
        constant = crash_config_hash(lambda n: {0: 2}, [2, 4])
        assert varying != constant


class TestOpenAndLoad:
    def test_header_written_and_fingerprint_round_trips(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        killed(store)
        assert ColumnarSweepStore.load_fingerprint(path) == fingerprint()

    def test_record_then_resume_restores_triples_exactly(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 0, (1.25, 0.5, 1.0))
        store.record(4, 2, (3.875, 0.125, 0.9999999999999999))
        killed(store)
        resumed = ColumnarSweepStore.open(path, fingerprint(), resume=True)
        assert resumed.completed == {
            (2, 0): (1.25, 0.5, 1.0),
            (4, 2): (3.875, 0.125, 0.9999999999999999),
        }
        resumed.close()

    def test_existing_file_without_resume_refused(self, tmp_path):
        # A JSONL checkpoint from before the store (a file, not a
        # directory) is refused by name, with or without resume, and
        # left untouched.
        path = tmp_path / "cp.jsonl"
        header = {"kind": "header", "version": 1, "fingerprint": fingerprint()}
        path.write_text(json.dumps(header) + "\n")
        for resume in (False, True):
            with pytest.raises(CheckpointError) as info:
                ColumnarSweepStore.open(path, fingerprint(), resume=resume)
            message = str(info.value)
            assert str(path) in message
            assert "is a file, not a store directory" in message
            assert "JSONL checkpoints are no longer read" in message
        assert path.read_text() == json.dumps(header) + "\n"
        assert not (tmp_path / "cp.jsonl.lock").exists()

    def test_resume_on_missing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint(), resume=True)
        assert store.completed == {}
        store.record(2, 0, (1.0, 2.0, 3.0))
        killed(store)
        assert ColumnarSweepStore.load_completed(path) == {
            (2, 0): (1.0, 2.0, 3.0)
        }

    def test_fingerprint_mismatch_rejected_loudly(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 0, (1.0, 2.0, 3.0))
        killed(store)
        with pytest.raises(CheckpointMismatchError, match="steps"):
            ColumnarSweepStore.open(
                path, fingerprint(steps=20_000), resume=True
            )

    def test_crash_schedule_change_is_a_mismatch(self, tmp_path):
        path = tmp_path / "store"
        ColumnarSweepStore.open(path, fingerprint()).close()
        with pytest.raises(CheckpointMismatchError, match="crash_hash"):
            ColumnarSweepStore.open(
                path,
                fingerprint(crash_times={0: 50}),
                resume=True,
            )

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 0, (1.0, 2.0, 3.0))
        killed(store)
        header = {
            "kind": "header",
            "version": STORE_SCHEMA_VERSION + 1,
            "fingerprint": fingerprint(),
        }
        (path / "header.json").write_text(json.dumps(header))
        with pytest.raises(CheckpointError, match="schema version"):
            ColumnarSweepStore.open(path, fingerprint(), resume=True)

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 0, (1.0, 2.0, 3.0))
        killed(store)
        with (path / "tail.jsonl").open("a") as handle:
            handle.write('{"kind": "point", "n": 4, "r"')  # torn mid-append
        resumed = ColumnarSweepStore.open(path, fingerprint(), resume=True)
        assert resumed.completed == {(2, 0): (1.0, 2.0, 3.0)}
        resumed.close()

    def test_resume_over_torn_tail_then_append_and_reload(self, tmp_path):
        # The crash -> resume -> crash -> resume cycle: appending after a
        # torn tail must start a fresh line, not glue onto the partial
        # one and corrupt the journal.
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 0, (1.0, 2.0, 3.0))
        killed(store)
        with (path / "tail.jsonl").open("a") as handle:
            handle.write('{"kind": "point", "n": 4, "r"')  # torn mid-append
        resumed = ColumnarSweepStore.open(path, fingerprint(), resume=True)
        resumed.record(4, 0, (4.0, 5.0, 6.0))
        resumed.record(4, 1, (7.0, 8.0, 9.0))
        killed(resumed)
        # Nothing garbled, nothing dropped, and a second resume is clean.
        assert ColumnarSweepStore.load_completed(path) == {
            (2, 0): (1.0, 2.0, 3.0),
            (4, 0): (4.0, 5.0, 6.0),
            (4, 1): (7.0, 8.0, 9.0),
        }
        again = ColumnarSweepStore.open(path, fingerprint(), resume=True)
        assert len(again.completed) == 3
        again.close()

    def test_missing_final_newline_repaired_without_data_loss(self, tmp_path):
        # A whole record whose trailing newline was torn keeps the
        # record: the repair restores the newline rather than truncating.
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 0, (1.0, 2.0, 3.0))
        killed(store)
        tail = path / "tail.jsonl"
        tail.write_bytes(tail.read_bytes().rstrip(b"\n"))
        resumed = ColumnarSweepStore.open(path, fingerprint(), resume=True)
        resumed.record(2, 1, (4.0, 5.0, 6.0))
        killed(resumed)
        assert ColumnarSweepStore.load_completed(path) == {
            (2, 0): (1.0, 2.0, 3.0),
            (2, 1): (4.0, 5.0, 6.0),
        }

    def test_corrupt_middle_line_is_an_error(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 0, (1.0, 2.0, 3.0))
        store.record(2, 1, (4.0, 5.0, 6.0))
        killed(store)
        tail = path / "tail.jsonl"
        lines = tail.read_text().splitlines()
        lines.insert(1, "not json")
        tail.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="line 2 is corrupt"):
            ColumnarSweepStore.open(path, fingerprint(), resume=True)


class TestMalformedRecords:
    """JSON-valid but structurally broken point records must surface as
    CheckpointError naming the line, never as raw KeyError/IndexError."""

    def _with_record(self, tmp_path, record):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 1, (1.0, 1.0, 1.0))
        killed(store)
        with (path / "tail.jsonl").open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        return path

    @pytest.mark.parametrize(
        "record",
        [
            {"kind": "point", "n": 2, "r": 0},  # no v at all
            {"kind": "point", "n": 2, "v": [1.0, 2.0, 3.0]},  # no r
            {"kind": "point", "r": 0, "v": [1.0, 2.0, 3.0]},  # no n
            {"kind": "point", "n": 2, "r": 0, "v": [1.0, 2.0]},  # short v
            {"kind": "point", "n": 2, "r": 0, "v": [1.0, 2.0, 3.0, 4.0]},
            {"kind": "point", "n": 2, "r": 0, "v": "nope"},
            {"kind": "point", "n": 2, "r": 0, "v": [1.0, None, 3.0]},
            {"kind": "point", "n": 2, "r": 0, "v": [1.0, True, 3.0]},
            {"kind": "point", "n": "2", "r": 0, "v": [1.0, 2.0, 3.0]},
            {"kind": "point", "n": 2, "r": True, "v": [1.0, 2.0, 3.0]},
            ["kind", "point"],  # not even a dict
        ],
    )
    def test_structurally_invalid_record_raises_checkpoint_error(
        self, tmp_path, record
    ):
        path = self._with_record(tmp_path, record)
        with pytest.raises(CheckpointError, match="line 2"):
            ColumnarSweepStore.open(path, fingerprint(), resume=True)

    def test_valid_int_valued_triple_still_accepted(self, tmp_path):
        # Structural validation must not tighten the accepted format:
        # JSON integers in v are legal floats.
        path = self._with_record(
            tmp_path, {"kind": "point", "n": 2, "r": 0, "v": [1, 2, 3]}
        )
        assert ColumnarSweepStore.load_completed(path) == {
            (2, 1): (1.0, 1.0, 1.0),
            (2, 0): (1.0, 2.0, 3.0),
        }


class TestRecording:
    def test_missing_lists_unrecorded_pairs_in_sweep_order(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 1, (1.0, 1.0, 1.0))
        killed(store)
        resumed = ColumnarSweepStore.open(path, fingerprint(), resume=True)
        resumed.record(4, 1, (1.0, 1.0, 1.0))
        assert resumed.missing([2, 4], 2) == [(2, 0), (4, 0)]
        resumed.close()

    def test_record_after_close_raises(self, tmp_path):
        store = ColumnarSweepStore.open(tmp_path / "store", fingerprint())
        store.close()
        with pytest.raises(CheckpointError, match="closed"):
            store.record(2, 0, (1.0, 1.0, 1.0))
        with pytest.raises(CheckpointError, match="closed"):
            store.compact()

    def test_rerecorded_key_last_wins(self, tmp_path):
        path = tmp_path / "store"
        store = ColumnarSweepStore.open(path, fingerprint())
        store.record(2, 0, (1.0, 1.0, 1.0))
        store.record(2, 0, (2.0, 2.0, 2.0))
        killed(store)
        assert ColumnarSweepStore.load_completed(path)[(2, 0)] == (
            2.0,
            2.0,
            2.0,
        )

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "store"
        with ColumnarSweepStore.open(path, fingerprint()) as store:
            store.record(2, 0, (1.0, 1.0, 1.0))
        assert store.closed
        assert not (path / "writer.lock").exists()
        assert ColumnarSweepStore.load_completed(path) == {
            (2, 0): (1.0, 1.0, 1.0)
        }

    def test_flush_active_reaches_open_checkpoints(self, tmp_path):
        store = ColumnarSweepStore.open(tmp_path / "store", fingerprint())
        store.record(2, 0, (1.0, 1.0, 1.0))
        assert flush_active_checkpoints() >= 1
        # The record is durable on disk without close().
        assert ColumnarSweepStore.load_completed(store.path) == {
            (2, 0): (1.0, 1.0, 1.0)
        }
        store.close()
        assert flush_active_checkpoints() == 0


class TestWriterLock:
    """Advisory single-writer locking on the store directory."""

    def test_second_writer_fails_loudly_with_pid(self, tmp_path):
        path = tmp_path / "store"
        first = ColumnarSweepStore.open(path, fingerprint())
        try:
            with pytest.raises(CheckpointError) as info:
                ColumnarSweepStore.open(path, fingerprint(), resume=True)
            assert str(os.getpid()) in str(info.value)
            assert "one writer" in str(info.value)
        finally:
            first.close()

    def test_close_releases_the_lock(self, tmp_path):
        path = tmp_path / "store"
        ColumnarSweepStore.open(path, fingerprint()).close()
        # A second sequential writer succeeds and no sidecar remains.
        ColumnarSweepStore.open(path, fingerprint(), resume=True).close()
        assert not (path / "writer.lock").exists()

    def test_failed_open_releases_the_lock(self, tmp_path):
        path = tmp_path / "store"
        with ColumnarSweepStore.open(path, fingerprint()) as store:
            store.record(2, 0, (1.0, 1.0, 1.0))
        with pytest.raises(CheckpointMismatchError):
            ColumnarSweepStore.open(path, fingerprint(seed=99), resume=True)
        # The mismatch rejection did not leave the lock held.
        ColumnarSweepStore.open(path, fingerprint(), resume=True).close()
        assert not (path / "writer.lock").exists()


class TestSchedulerIdentity:
    def test_class_and_public_parameters_only(self):
        from repro.core.checkpoint import scheduler_identity
        from repro.core.scheduler import (
            HardwareLikeScheduler,
            SkewedStochasticScheduler,
        )

        # Private attributes hold run state (quantum, weights drawn so
        # far) and stay out; ndarrays read back from JSON as lists.
        assert scheduler_identity(HardwareLikeScheduler(mean_quantum=2.0)) == {
            "class": "HardwareLikeScheduler",
            "mean_quantum": 2.0,
            "jitter": 0.1,
            "jitter_rate": 0.01,
        }
        skewed = scheduler_identity(SkewedStochasticScheduler([1, 2]))
        assert skewed == {
            "class": "SkewedStochasticScheduler",
            "weights": [1.0, 2.0],
        }
        assert json.loads(json.dumps(skewed)) == skewed

    def test_strategies_and_private_parameters_fold_in(self):
        from repro.core.checkpoint import scheduler_identity
        from repro.core.scheduler import (
            AdversarialScheduler,
            DistributionScheduler,
        )

        adversaries = [
            AdversarialScheduler.round_robin(),
            AdversarialScheduler.starve(0),
            AdversarialScheduler.starve(1),
            AdversarialScheduler.alternating_spoiler(0),
        ]
        identities = [scheduler_identity(s) for s in adversaries]
        assert len({json.dumps(i, sort_keys=True) for i in identities}) == 4
        assert identities[1] == {
            "class": "AdversarialScheduler",
            "strategy": {"class": "_RotationStrategy", "avoid": 0},
        }
        # Run state (the rotation's last pid) stays out.
        used = AdversarialScheduler.starve(0)
        for time in range(1, 4):
            used.select(time, [0, 1, 2], None)
        assert scheduler_identity(used) == identities[1]

        uniform = DistributionScheduler(uniform_pi, theta=0.25)
        assert scheduler_identity(uniform) == {
            "class": "DistributionScheduler",
            "pi": f"{__name__}.uniform_pi",
            "theta": 0.25,
            "validate": True,
        }
        assert scheduler_identity(uniform) != scheduler_identity(
            DistributionScheduler(first_pi, theta=0.25)
        )

    def test_store_of_one_adversary_does_not_resume_under_another(
        self, tmp_path
    ):
        from repro.core.scheduler import AdversarialScheduler

        path = tmp_path / "store"
        written = fingerprint(scheduler=AdversarialScheduler.round_robin())
        with ColumnarSweepStore.open(path, written) as store:
            store.record(2, 0, (1.0, 1.0, 1.0))
        with pytest.raises(CheckpointMismatchError, match="scheduler"):
            ColumnarSweepStore.open(
                path,
                fingerprint(scheduler=AdversarialScheduler.starve(0)),
                resume=True,
            )
        ColumnarSweepStore.open(path, written, resume=True).close()

    def test_resume_with_a_lambda_parameter_fails_naming_the_scheduler(
        self, tmp_path
    ):
        from repro.core.scheduler import DistributionScheduler

        def unstable():
            return fingerprint(
                scheduler=DistributionScheduler(lambda t, a: {a[0]: 1.0})
            )

        path = tmp_path / "store"
        # Writing works; resuming cannot check the scheduler and refuses.
        with ColumnarSweepStore.open(path, unstable()) as store:
            store.record(2, 0, (1.0, 1.0, 1.0))
        with pytest.raises(
            CheckpointError, match=r"DistributionScheduler.*\['pi'\]"
        ):
            ColumnarSweepStore.open(path, unstable(), resume=True)
        assert not (path / "writer.lock").exists()
