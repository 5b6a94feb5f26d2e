"""The crash-safe journals of the sweep service: job events and points.

The sweep service's durable state is two JSONL files under its root.
The job ledger (:class:`JobLedger`, ``ledger.jsonl``) appends every
transition of the job state machine

    ``queued -> leased -> running -> completed | failed | poisoned``

(plus ``cancelled``, heartbeats, and re-queues after a lease expires) as
one fsynced JSON record, so the daemon can be SIGKILLed at any instant
and a restart *replays* the ledger to recover exactly which jobs were
queued, which were mid-flight under a now-dead worker, and which
already finished.  The point journal (:class:`PointJournal`,
``points.jsonl``) appends every sweep point any job computed, keyed by
its full identity, so a re-queued job resumes and an overlapping job
warm starts from it.  Nothing is ever rewritten in place: recovery is a
fold over records, and the same torn-tail repair
(:func:`repair_jsonl_tail`) handles a crash mid-append in both.

Both open under the advisory single-writer lock
(:func:`~repro.core.checkpoint.acquire_writer_lock`), so two daemons
pointed at the same root fail loudly instead of interleaving records.

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
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..core.checkpoint import (
    CheckpointError,
    Triple,
    acquire_writer_lock,
    parse_point_record,
    repair_jsonl_tail,
)
from .leases import owner_alive

#: Bumped whenever the ledger record layout changes incompatibly.
LEDGER_SCHEMA_VERSION = 1

#: Bumped whenever the point journal's record layout changes incompatibly.
POINT_JOURNAL_SCHEMA_VERSION = 1

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


def _invalid(name: str, path: Path, line_no: int, why: str) -> CheckpointError:
    return CheckpointError(
        f"{name} {path} line {line_no} is structurally invalid ({why})"
    )


def _decode(name: str, path: Path, raw: bytes) -> str:
    """Decode journal bytes, naming the line of any invalid UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise _invalid(name, path, line_no, "invalid UTF-8") from None


def _parse_lines(
    name: str, path: Path, raw: bytes
) -> Iterator[Tuple[int, Any]]:
    """``(line number, decoded JSON)`` for every non-blank line of ``raw``.

    Raises :class:`CheckpointError` naming the first line that does not
    decode.
    """
    for line_no, line in enumerate(_decode(name, path, raw).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            raise _invalid(name, path, line_no, "unparseable JSON")
        yield line_no, record


def _dumps(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


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
                JobLedger.NAME,
                path,
                line_no,
                f"field {name!r} has invalid value {record[name]!r}",
            )


class _Journal:
    """An append-only JSONL file held open under the single-writer lock.

    Line 1 is the schema'd :attr:`HEADER`; every later line is one JSON
    record.  Opening repairs a torn final line, refuses a header of
    another schema or journal, and holds the append handle and the
    writer lock until :meth:`close`.  Appends go through one mutex, so
    threads can share an instance.
    """

    #: How error messages name the file.
    NAME: str
    #: The header record a fresh file starts with and an old one must carry.
    HEADER: Dict[str, Any]

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._mutex = threading.Lock()
        self._handle = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = acquire_writer_lock(self.path)
        try:
            if self.path.exists():
                repair_jsonl_tail(self.path)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            if not fresh:
                self._validate_header()
            self._handle = self.path.open("a", encoding="utf-8")
            if fresh:
                self._write_line(_dumps(self.HEADER), sync=True)
        except BaseException:
            self.close()
            raise

    def _invalid(self, line_no: int, why: str) -> CheckpointError:
        return _invalid(self.NAME, self.path, line_no, why)

    def _validate_header(self) -> None:
        with self.path.open("rb") as handle:
            first = _decode(self.NAME, self.path, handle.readline())
        try:
            header = json.loads(first)
        except ValueError:
            raise self._invalid(1, "unparseable header")
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise self._invalid(1, "missing header record")
        if header.get("schema") != self.HEADER["schema"]:
            raise CheckpointError(
                f"{self.NAME} {self.path} has schema "
                f"{header.get('schema')!r}, this build reads "
                f"{self.HEADER['schema']}"
            )
        if header != self.HEADER:
            raise CheckpointError(
                f"{self.path} is not a {self.NAME}: its header is {header}"
            )

    def _write_line(self, line: str, *, sync: bool) -> None:
        """Append one line and flush it; ``sync`` also fsyncs.

        Callers other than ``__init__`` hold the mutex.
        """
        if self._handle is None:
            raise CheckpointError(f"{self.NAME} {self.path} is closed")
        self._handle.write(line + "\n")
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())

    def _records(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """``(line number, record)`` for every record past the header.

        A torn final line was repaired on open, so any line that is not
        a JSON object is real corruption and raises, naming the line.
        """
        raw = self.path.read_bytes()
        for line_no, record in _parse_lines(self.NAME, self.path, raw):
            if not isinstance(record, dict):
                raise self._invalid(line_no, "expected an object")
            if record.get("kind") != "header":
                yield line_no, record

    @property
    def closed(self) -> bool:
        return self._handle is None

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

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JobLedger(_Journal):
    """Append-only, schema-versioned journal of job events.

    Appends are thread-safe (the daemon's workers all write through one
    ledger) and fsynced per event — job transitions are rare next to
    sweep points, so durability per event is cheap.  The journal is held
    open for append under the single-writer lock for the lifetime of
    the instance; :meth:`close` releases both.
    """

    NAME = "ledger"
    HEADER = {"kind": "header", "schema": LEDGER_SCHEMA_VERSION}

    def __init__(
        self,
        path: Union[str, Path],
        *,
        clock: Callable[[], float] = time.time,
        telemetry=None,
    ):
        self._clock = clock
        self.telemetry = telemetry
        super().__init__(path)

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
            self._write_line(_dumps(record), sync=True)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.inc(f"service.ledger_{event}")
        return record

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
        raw = path.read_bytes()
        complete = raw[: raw.rfind(b"\n") + 1]
        return [
            record
            for _, record in _parse_lines(cls.NAME, path, complete)
            if isinstance(record, dict) and record.get("kind") == "event"
        ]

    def events(self) -> List[Dict[str, Any]]:
        """Every event record in append order (validated)."""
        out: List[Dict[str, Any]] = []
        for line_no, record in self._records():
            kind = record.get("kind")
            if kind != "event":
                raise self._invalid(line_no, f"unknown kind {kind!r}")
            event = record.get("event")
            if event not in _EVENT_STATE:
                raise self._invalid(line_no, f"unknown event {event!r}")
            if not isinstance(record.get("job"), str):
                raise self._invalid(line_no, "missing job id")
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


class PointJournal(_Journal):
    """Every sweep point the service computed, one checksummed line each.

    A point's key is its full identity, the tuple
    :func:`~repro.service.daemon.point_memo_args` builds: everything
    that can change its triple, then ``(n, replicate)``.  Opening loads
    the file once into an in-memory index that stores each identity
    once for all of its points.  :meth:`append` writes one flushed line
    and no fsync, so a SIGKILLed job keeps every point it finished;
    :meth:`sync` makes them durable against a machine crash too, once
    per job.  Each line carries the CRC-32 of its record, so a flipped
    byte raises :class:`CheckpointError` naming the line instead of
    serving a wrong triple.
    """

    NAME = "point journal"
    HEADER = {
        "kind": "header",
        "journal": "points",
        "schema": POINT_JOURNAL_SCHEMA_VERSION,
    }

    def __init__(self, path: Union[str, Path]):
        super().__init__(path)
        self._index: Dict[Tuple, Dict[Tuple[int, int], Triple]] = {}
        try:
            for line_no, record in self._records():
                crc = record.pop("crc", None)
                if crc != zlib.crc32(_dumps(record).encode("utf-8")):
                    raise self._invalid(line_no, "checksum mismatch")
                key, triple = parse_point_record(record, self.path, line_no)
                identity = record.get("id")
                if not isinstance(identity, list) or any(
                    isinstance(item, (list, dict)) for item in identity
                ):
                    raise self._invalid(line_no, "'id' is not a flat list")
                self._index.setdefault(tuple(identity), {})[key] = triple
        except BaseException:
            self.close()
            raise

    def __len__(self) -> int:
        return sum(len(points) for points in self._index.values())

    def get(self, key: Tuple) -> Optional[Triple]:
        """The triple journaled under ``key``, or ``None``."""
        points = self._index.get(key[:-2])
        return None if points is None else points.get(key[-2:])

    def append(self, key: Tuple, triple: Triple) -> None:
        """Journal one point as one flushed line (thread-safe, no fsync)."""
        values = [float(value) for value in triple]
        body = _dumps(
            {
                "id": list(key[:-2]),
                "kind": "point",
                "n": int(key[-2]),
                "r": int(key[-1]),
                "v": values,
            }
        )
        crc = zlib.crc32(body.encode("utf-8"))
        with self._mutex:
            self._write_line(f'{body[:-1]},"crc":{crc}}}', sync=False)
            self._index.setdefault(key[:-2], {})[key[-2:]] = tuple(values)

    def sync(self) -> None:
        """Fsync every point appended so far."""
        with self._mutex:
            if self._handle is None:
                raise CheckpointError(f"{self.NAME} {self.path} is closed")
            os.fsync(self._handle.fileno())
