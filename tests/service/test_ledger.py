"""Tests for the crash-safe job ledger (repro.service.ledger)."""

import json
import os

import pytest

from repro.core.checkpoint import CheckpointError
from repro.service.ledger import (
    LEDGER_SCHEMA_VERSION,
    JobLedger,
    TERMINAL_STATES,
)

SPEC = {"workload": "cas-counter", "n_values": [2], "steps": 100, "repeats": 2}


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        self.now += 1.0
        return self.now


def make_ledger(tmp_path, **kwargs):
    return JobLedger(tmp_path / "ledger.jsonl", **kwargs)


class TestJournal:
    def test_fresh_ledger_writes_header(self, tmp_path):
        with make_ledger(tmp_path) as ledger:
            pass
        first = json.loads(
            (tmp_path / "ledger.jsonl").read_text().splitlines()[0]
        )
        assert first == {"kind": "header", "schema": LEDGER_SCHEMA_VERSION}

    def test_events_roundtrip(self, tmp_path):
        with make_ledger(tmp_path) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
            ledger.append("leased", "j1", owner="1:w", attempt=1, expires=9.0)
        with make_ledger(tmp_path) as ledger:
            events = ledger.events()
        assert [e["event"] for e in events] == ["submitted", "leased"]

    def test_unknown_event_rejected_on_append(self, tmp_path):
        with make_ledger(tmp_path) as ledger:
            with pytest.raises(ValueError, match="unknown ledger event"):
                ledger.append("exploded", "j1")

    def test_schema_mismatch_is_loud(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps({"kind": "header", "schema": 999}) + "\n")
        with pytest.raises(CheckpointError, match="schema"):
            JobLedger(path)

    def test_torn_tail_repaired_on_reopen(self, tmp_path):
        with make_ledger(tmp_path) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
        path = tmp_path / "ledger.jsonl"
        with path.open("ab") as handle:
            handle.write(b'{"kind": "event", "event": "leas')  # torn
        with make_ledger(tmp_path) as ledger:
            jobs = ledger.replay()
        assert jobs["j1"].state == "queued"

    def test_second_writer_fails_loudly_with_pid(self, tmp_path):
        ledger = make_ledger(tmp_path)
        try:
            with pytest.raises(CheckpointError, match=str(os.getpid())):
                make_ledger(tmp_path)
        finally:
            ledger.close()

    def test_lock_released_on_close(self, tmp_path):
        make_ledger(tmp_path).close()
        make_ledger(tmp_path).close()
        assert not (tmp_path / "ledger.jsonl.lock").exists()

    @pytest.mark.parametrize("byte", [b"\xff", b'"'])
    def test_read_events_names_a_corrupt_line(self, tmp_path, byte):
        with make_ledger(tmp_path) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
            ledger.append("running", "j1", owner="1:w")
        path = tmp_path / "ledger.jsonl"
        data = path.read_bytes()
        cut = data.index(b"running")
        path.write_bytes(data[:cut] + byte + data[cut + 1:])
        with pytest.raises(CheckpointError, match="line 3"):
            JobLedger.read_events(path)

    def test_read_events_takes_no_lock(self, tmp_path):
        with make_ledger(tmp_path) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
            events = JobLedger.read_events(ledger.path)
        assert [e["event"] for e in events] == ["submitted"]


class TestReplay:
    def test_full_lifecycle_fold(self, tmp_path):
        with make_ledger(tmp_path, clock=FakeClock()) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
            ledger.append("leased", "j1", owner="1:w", attempt=1, expires=99.0)
            ledger.append("running", "j1", owner="1:w")
            ledger.append("heartbeat", "j1", owner="1:w", expires=120.0)
            ledger.append("completed", "j1", result={"recomputed": 2})
            jobs = ledger.replay()
        job = jobs["j1"]
        assert job.state == "completed"
        assert job.attempt == 1
        assert job.heartbeats == 1
        assert job.result == {"recomputed": 2}
        assert job.owner is None
        assert job.terminal

    def test_requeue_resets_owner(self, tmp_path):
        with make_ledger(tmp_path) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
            ledger.append("leased", "j1", owner="1:w", attempt=1, expires=9.0)
            ledger.append("requeued", "j1", reason="expired")
            job = ledger.replay()["j1"]
        assert job.state == "queued"
        assert job.owner is None
        assert job.attempt == 1  # attempts survive the requeue

    def test_event_for_unknown_job_is_corruption(self, tmp_path):
        with make_ledger(tmp_path) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
        path = tmp_path / "ledger.jsonl"
        with path.open("a") as handle:
            handle.write(
                json.dumps(
                    {"kind": "event", "event": "running", "job": "ghost", "t": 1}
                )
                + "\n"
            )
        with make_ledger(tmp_path) as ledger:
            with pytest.raises(CheckpointError, match="unknown job ghost"):
                ledger.replay()

    def test_invalid_utf8_names_the_line(self, tmp_path):
        with make_ledger(tmp_path) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
            ledger.append("running", "j1", owner="1:w")
        path = tmp_path / "ledger.jsonl"
        data = path.read_bytes()
        cut = data.index(b"running")
        path.write_bytes(data[:cut] + b"\xff" + data[cut + 1:])
        with make_ledger(tmp_path) as ledger:
            with pytest.raises(CheckpointError) as info:
                ledger.replay()
        assert str(path) in str(info.value)
        assert "line 3" in str(info.value)
        assert "UTF-8" in str(info.value)

    def test_invalid_utf8_header_names_the_line(self, tmp_path):
        make_ledger(tmp_path).close()
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b"\xfe" + path.read_bytes()[1:])
        with pytest.raises(CheckpointError, match="line 1 .*UTF-8"):
            make_ledger(tmp_path)
        assert not (tmp_path / "ledger.jsonl.lock").exists()

    @pytest.mark.parametrize(
        "fields",
        [{"t": "soon"}, {"t": True}, {"expires": "later"}, {"attempt": "2"}],
    )
    def test_non_numeric_field_names_the_line(self, tmp_path, fields):
        with make_ledger(tmp_path) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
        path = tmp_path / "ledger.jsonl"
        record = {"kind": "event", "event": "leased", "job": "j1", "t": 2.0}
        record.update(fields)
        with path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        with make_ledger(tmp_path) as ledger:
            with pytest.raises(CheckpointError) as info:
                ledger.replay()
        assert str(path) in str(info.value)
        assert "line 3" in str(info.value)
        assert repr(next(iter(fields))) in str(info.value)

    def test_terminal_states_are_the_documented_set(self):
        assert TERMINAL_STATES == {
            "completed",
            "failed",
            "poisoned",
            "cancelled",
        }


class TestRecover:
    def test_dead_owner_lease_requeued(self, tmp_path):
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        with make_ledger(tmp_path) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
            ledger.append(
                "leased", "j1", owner=f"{pid}:w", attempt=1, expires=1e12
            )
            jobs = ledger.recover(max_attempts=3)
        assert jobs["j1"].state == "queued"
        # and the requeue is durable:
        with make_ledger(tmp_path) as ledger:
            assert ledger.replay()["j1"].state == "queued"

    def test_live_owner_inside_ttl_left_alone(self, tmp_path):
        with make_ledger(tmp_path) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
            ledger.append(
                "leased",
                "j1",
                owner=f"{os.getpid()}:w",
                attempt=1,
                expires=1e12,
            )
            jobs = ledger.recover(max_attempts=3)
        assert jobs["j1"].state == "leased"

    def test_expired_lease_requeued_even_if_owner_alive(self, tmp_path):
        with make_ledger(tmp_path) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
            ledger.append(
                "leased",
                "j1",
                owner=f"{os.getpid()}:w",
                attempt=1,
                expires=0.0,
            )
            jobs = ledger.recover(max_attempts=3)
        assert jobs["j1"].state == "queued"

    def test_exhausted_attempts_poisoned(self, tmp_path):
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        with make_ledger(tmp_path) as ledger:
            ledger.append("submitted", "j1", spec=SPEC)
            ledger.append(
                "leased", "j1", owner=f"{pid}:w", attempt=3, expires=1e12
            )
            jobs = ledger.recover(max_attempts=3)
        assert jobs["j1"].state == "poisoned"
        assert "quarantined" in ledger.read_events(tmp_path / "ledger.jsonl")[-1][
            "error"
        ]
