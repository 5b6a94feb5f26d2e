"""The crash-safe job ledger: an append-only journal of job events.

The sweep service's durable state is this one JSONL file.  Every
transition of the job state machine

    ``queued -> leased -> running -> completed | failed | poisoned``

(plus ``cancelled``, heartbeats, and re-queues after a lease expires) is
appended as one fsynced JSON record, so the daemon can be SIGKILLed at
any instant and a restart *replays* the ledger to recover exactly which
jobs were queued, which were mid-flight under a now-dead worker, and
which already finished.  Nothing is ever rewritten in place: recovery
is a fold over events, the same trick as the sweep store one layer
down — and the same torn-tail repair (:func:`repair_jsonl_tail`)
handles a crash mid-append.

The file opens under the advisory single-writer lock
(:func:`~repro.core.checkpoint.acquire_writer_lock`), so two daemons
pointed at the same root fail loudly instead of interleaving events.

Replay is exposed two ways: :meth:`JobLedger.replay` folds the journal
into ``{job_id: JobRecord}``, and :meth:`JobLedger.recover` additionally
re-queues jobs whose lease holder is dead or expired — the restart path
in one call.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from ..core.checkpoint import (
    CheckpointError,
    acquire_writer_lock,
    repair_jsonl_tail,
)
from .leases import owner_alive

#: Bumped whenever the ledger record layout changes incompatibly.
LEDGER_SCHEMA_VERSION = 1

#: Terminal states — a job here never transitions again.
TERMINAL_STATES = frozenset({"completed", "failed", "poisoned", "cancelled"})

#: Every state the replay fold can produce.
JOB_STATES = frozenset(
    {"queued", "leased", "running"} | TERMINAL_STATES
)

#: Event kind -> state it drives the job into (``None`` = no change).
_EVENT_STATE = {
    "submitted": "queued",
    "leased": "leased",
    "running": "running",
    "heartbeat": None,
    "requeued": "queued",
    "completed": "completed",
    "failed": "failed",
    "poisoned": "poisoned",
    "cancelled": "cancelled",
}


@dataclass
class JobRecord:
    """One job's replayed state: the fold of its ledger events."""

    job_id: str
    spec: Dict[str, Any]
    state: str = "queued"
    attempt: int = 0
    owner: Optional[str] = None
    lease_expires: Optional[float] = None
    submitted_at: float = 0.0
    updated_at: float = 0.0
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    heartbeats: int = 0
    lease_count: int = 0
    history: List[str] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe snapshot for the status API."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "attempt": self.attempt,
            "owner": self.owner,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "error": self.error,
            "result": self.result,
            "heartbeats": self.heartbeats,
            "lease_count": self.lease_count,
            "spec": dict(self.spec),
        }


def _invalid(path: Path, line_no: int, why: str) -> CheckpointError:
    return CheckpointError(
        f"ledger {path} line {line_no} is structurally invalid ({why})"
    )


def _decode(path: Path, raw: bytes) -> str:
    """Decode ledger bytes, naming the line of any invalid UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise _invalid(path, line_no, "invalid UTF-8") from None


#: Numeric event fields replay converts, and the types each may hold.
_NUMERIC_FIELDS = (
    ("t", (int, float)),
    ("expires", (int, float, type(None))),
    ("attempt", int),
)


def _check_numbers(path: Path, line_no: int, record: Dict[str, Any]) -> None:
    """Reject a numeric field that replay could not convert."""
    for name, kinds in _NUMERIC_FIELDS:
        if name in record and (
            isinstance(record[name], bool)
            or not isinstance(record[name], kinds)
        ):
            raise _invalid(
                path, line_no, f"field {name!r} has invalid value {record[name]!r}"
            )


class JobLedger:
    """Append-only, schema-versioned journal of job events.

    Appends are thread-safe (the daemon's workers all write through one
    ledger) and fsynced per event — job transitions are rare next to
    sweep points, so durability per event is cheap.  The journal is held
    open for append under the single-writer lock for the lifetime of
    the instance; :meth:`close` releases both.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        clock: Callable[[], float] = time.time,
        telemetry=None,
    ):
        self.path = Path(path)
        self._clock = clock
        self.telemetry = telemetry
        self._mutex = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = acquire_writer_lock(self.path)
        try:
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            if not fresh:
                repair_jsonl_tail(self.path)
                self._validate_header()
            self._handle = self.path.open("a", encoding="utf-8")
            if fresh:
                self._append_raw(
                    {"kind": "header", "schema": LEDGER_SCHEMA_VERSION}
                )
        except BaseException:
            if self._lock is not None:
                self._lock.release()
            raise

    # -- journal plumbing ---------------------------------------------------

    def _validate_header(self) -> None:
        with self.path.open("rb") as handle:
            first = _decode(self.path, handle.readline())
        try:
            header = json.loads(first)
        except ValueError:
            raise _invalid(self.path, 1, "unparseable header")
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise _invalid(self.path, 1, "missing header record")
        if header.get("schema") != LEDGER_SCHEMA_VERSION:
            raise CheckpointError(
                f"ledger {self.path} has schema "
                f"{header.get('schema')!r}, this build reads "
                f"{LEDGER_SCHEMA_VERSION}"
            )

    def _append_raw(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, event: str, job_id: str, **fields: Any) -> Dict[str, Any]:
        """Append one event record (thread-safe, fsynced)."""
        if event not in _EVENT_STATE:
            raise ValueError(f"unknown ledger event {event!r}")
        record = {
            "kind": "event",
            "event": event,
            "job": str(job_id),
            "t": float(self._clock()),
        }
        record.update(fields)
        with self._mutex:
            if self._handle is None:
                raise CheckpointError(f"ledger {self.path} is closed")
            self._append_raw(record)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.inc(f"service.ledger_{event}")
        return record

    def close(self) -> None:
        """Release the journal handle and the writer lock (idempotent)."""
        with self._mutex:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._handle.close()
                self._handle = None
            if self._lock is not None:
                self._lock.release()
                self._lock = None

    def __enter__(self) -> "JobLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- replay -------------------------------------------------------------

    @classmethod
    def read_events(cls, path: Union[str, Path]) -> List[Dict[str, Any]]:
        """Read a ledger's events without opening it for append.

        Takes no lock and repairs nothing — the observer side, used by
        tests and tooling to inspect a (possibly live) daemon's ledger.
        A torn final line is skipped, exactly as replay-after-repair
        would drop it; any other corrupt line raises
        :class:`CheckpointError` naming it.
        """
        path = Path(path)
        out: List[Dict[str, Any]] = []
        raw = path.read_bytes()
        complete = raw[: raw.rfind(b"\n") + 1] if not raw.endswith(b"\n") else raw
        for line_no, line in enumerate(_decode(path, complete).split("\n"), 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise _invalid(path, line_no, "unparseable JSON")
            if isinstance(record, dict) and record.get("kind") == "event":
                out.append(record)
        return out

    def events(self) -> List[Dict[str, Any]]:
        """Every event record in append order (validated)."""
        out: List[Dict[str, Any]] = []
        text = _decode(self.path, self.path.read_bytes())
        for line_no, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # A torn final line is repaired on open; mid-file
                # garbage is real corruption and must be loud.
                raise _invalid(self.path, line_no, "unparseable JSON")
            if not isinstance(record, dict):
                raise _invalid(self.path, line_no, "expected an object")
            kind = record.get("kind")
            if kind == "header":
                continue
            if kind != "event":
                raise _invalid(self.path, line_no, f"unknown kind {kind!r}")
            event = record.get("event")
            if event not in _EVENT_STATE:
                raise _invalid(
                    self.path, line_no, f"unknown event {event!r}"
                )
            if not isinstance(record.get("job"), str):
                raise _invalid(self.path, line_no, "missing job id")
            _check_numbers(self.path, line_no, record)
            out.append(record)
        return out

    def replay(self) -> Dict[str, JobRecord]:
        """Fold the journal into the current state of every job."""
        jobs: Dict[str, JobRecord] = {}
        for record in self.events():
            event = record["event"]
            job_id = record["job"]
            at = float(record.get("t", 0.0))
            if event == "submitted":
                spec = record.get("spec")
                if not isinstance(spec, dict):
                    raise CheckpointError(
                        f"ledger {self.path}: submitted event for "
                        f"{job_id} carries no spec"
                    )
                # Re-submission of a known job id is a no-op on replay
                # (the daemon answers dedupe hits without new events,
                # but an old ledger may hold both).
                if job_id not in jobs:
                    jobs[job_id] = JobRecord(
                        job_id=job_id,
                        spec=spec,
                        submitted_at=at,
                        updated_at=at,
                    )
                    jobs[job_id].history.append("submitted")
                continue
            job = jobs.get(job_id)
            if job is None:
                raise CheckpointError(
                    f"ledger {self.path}: event {event!r} for unknown "
                    f"job {job_id}"
                )
            job.updated_at = at
            if event == "heartbeat":
                job.heartbeats += 1
                expires = record.get("expires")
                if expires is not None:
                    job.lease_expires = float(expires)
                continue
            job.history.append(event)
            new_state = _EVENT_STATE[event]
            if new_state is not None:
                job.state = new_state
            if event == "leased":
                job.owner = str(record.get("owner", ""))
                job.attempt = int(record.get("attempt", job.attempt + 1))
                job.lease_count += 1
                expires = record.get("expires")
                job.lease_expires = (
                    float(expires) if expires is not None else None
                )
            elif event == "requeued":
                job.owner = None
                job.lease_expires = None
            elif event in ("failed", "poisoned"):
                job.owner = None
                job.lease_expires = None
                error = record.get("error")
                if error is not None:
                    job.error = str(error)
            elif event == "completed":
                job.owner = None
                job.lease_expires = None
                result = record.get("result")
                if isinstance(result, dict):
                    job.result = result
            elif event == "cancelled":
                job.owner = None
                job.lease_expires = None
        return jobs

    def recover(self, *, max_attempts: int) -> Dict[str, JobRecord]:
        """Replay, then re-queue every orphaned in-flight job.

        A job left ``leased``/``running`` belongs to a worker of the
        previous daemon incarnation.  If its owner process is dead (the
        common case after a crash — owners encode their PID) or its
        lease TTL has lapsed, the job is re-queued with a ``requeued``
        event; a job already past ``max_attempts`` grants is poisoned
        instead of looping forever.  Live-owner leases inside their TTL
        are left alone (another daemon may legitimately share the
        ledger's jobs' workers — though not the ledger file itself).
        """
        jobs = self.replay()
        now = self._clock()
        for job in jobs.values():
            if job.state not in ("leased", "running"):
                continue
            owner = job.owner or ""
            expired = (
                job.lease_expires is not None and now >= job.lease_expires
            )
            if not expired and owner and owner_alive(owner):
                continue
            reason = "owner-dead" if not owner_alive(owner) else "expired"
            if job.attempt >= max_attempts:
                self.append(
                    "poisoned",
                    job.job_id,
                    error=(
                        f"lease {reason} after {job.attempt} attempts; "
                        "quarantined"
                    ),
                )
                job.state = "poisoned"
                job.error = f"lease {reason} after {job.attempt} attempts"
            else:
                self.append("requeued", job.job_id, reason=reason)
                job.state = "queued"
            job.owner = None
            job.lease_expires = None
            if self.telemetry is not None and self.telemetry.enabled:
                self.telemetry.inc("service.recovered_jobs")
        return jobs
