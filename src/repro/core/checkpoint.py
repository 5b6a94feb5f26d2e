"""Append-only JSONL checkpoints for long-running sweeps.

A :class:`SweepCheckpoint` makes a sweep *resumable*: the first line of
the file is a schema-versioned header carrying the sweep's full
fingerprint (seed, steps, engine, ``n_values``, repeats, burn-in and a
hash of the resolved crash configuration), and every completed
``(n, replicate)`` triple is appended as its own JSON line.  Because
every replicate is pure deterministic work keyed by
``(seed, n, replicate)``, a resumed sweep that re-runs only the missing
replicates is bit-identical to an uninterrupted one — the checkpoint
never has to store partial simulator state, only finished numbers.

Durability model: each record is written as one line and flushed
immediately, with an ``fsync`` every ``fsync_every`` records (and on
:meth:`SweepCheckpoint.flush`/:meth:`SweepCheckpoint.close`).  A crash
can therefore lose at most the tail of the file, and a torn final line
is tolerated on load — and truncated before the resumed sweep appends,
so the next record starts a fresh line rather than gluing onto the
partial one; a corrupt line anywhere *else* is an error.
Resuming against a header whose fingerprint does not match the
requested sweep raises :class:`CheckpointMismatchError` naming every
differing field — silently mixing results from two different sweeps is
the one failure mode a checkpoint must never have.
"""

from __future__ import annotations

import hashlib
import json
import os
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

try:  # advisory file locking is POSIX-only; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Bumped whenever the on-disk layout changes incompatibly.
SCHEMA_VERSION = 1

Triple = Tuple[float, float, float]


class CheckpointError(RuntimeError):
    """A checkpoint file cannot be created, read, or appended to."""


class CheckpointMismatchError(CheckpointError):
    """Resume was attempted against a checkpoint of a *different* sweep."""


@dataclass(frozen=True)
class ResolvedCrashSchedule:
    """A crash schedule resolved once, up front, for every sweep point.

    Callable crash schedules used to be resolved *twice* — once by
    :func:`crash_config_hash` at fingerprint time and once per point at
    run time — so a stateful or nondeterministic callable silently
    diverged the stored fingerprint from the executed crash
    configuration.  :meth:`resolve` calls the schedule exactly once per
    ``n`` and the resulting map feeds both the fingerprint and the
    execution, so they cannot disagree.  The resolved form is a plain
    dict of dicts, hence always picklable — callables behind a pooled
    :func:`repro.core.sweep.latency_sweep` no longer need to be.
    """

    by_n: Dict[int, Dict[int, int]] = field(default_factory=dict)

    @classmethod
    def resolve(
        cls,
        crash_times: "CrashTimesLike",
        n_values: Sequence[int],
    ) -> Optional["ResolvedCrashSchedule"]:
        """Resolve ``crash_times`` for every ``n`` in ``n_values``.

        ``None`` stays ``None``; an already-resolved schedule is
        returned unchanged after checking it covers ``n_values``.
        """
        if crash_times is None:
            return None
        if isinstance(crash_times, cls):
            missing = [n for n in n_values if int(n) not in crash_times.by_n]
            if missing:
                raise ValueError(
                    f"resolved crash schedule has no entry for n={missing}"
                )
            return crash_times
        by_n = {}
        for n in n_values:
            per_point = crash_times(n) if callable(crash_times) else crash_times
            by_n[int(n)] = {int(pid): int(t) for pid, t in per_point.items()}
        return cls(by_n)

    def for_n(self, n: int) -> Dict[int, int]:
        """The ``{pid: time}`` crash map for one sweep point."""
        try:
            return self.by_n[int(n)]
        except KeyError:
            raise ValueError(
                f"crash schedule was resolved for n in "
                f"{sorted(self.by_n)}, not n={n}"
            ) from None


#: Crash schedules accepted by sweeps and fingerprints: one
#: ``{pid: time}`` map for every point, a callable ``n -> {pid: time}``,
#: a pre-resolved :class:`ResolvedCrashSchedule`, or ``None``.
CrashTimesLike = Union[
    Dict[int, int],
    Callable[[int], Dict[int, int]],
    ResolvedCrashSchedule,
    None,
]


def crash_config_hash(
    crash_times: CrashTimesLike,
    n_values: Sequence[int],
) -> str:
    """A stable digest of the *resolved* crash configuration.

    Callable crash schedules cannot be fingerprinted by identity (the
    function object changes between processes), so the schedule is
    resolved via :meth:`ResolvedCrashSchedule.resolve` and the canonical
    JSON of ``{n: {pid: time}}`` is hashed instead — two schedules that
    crash the same processes at the same times hash equal, however they
    were spelled.  ``None`` hashes to ``"none"``.  Pass an already
    resolved schedule to guarantee the hash describes exactly the crash
    maps that will execute (sweeps do this; see
    :class:`ResolvedCrashSchedule`).
    """
    schedule = ResolvedCrashSchedule.resolve(crash_times, n_values)
    if schedule is None:
        return "none"
    resolved = {int(n): schedule.for_n(n) for n in n_values}
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def sweep_fingerprint(
    *,
    seed: int,
    steps: int,
    engine: str,
    n_values: Sequence[int],
    repeats: int,
    burn_in: Optional[int],
    crash_times: CrashTimesLike = None,
    workload: Optional[str] = None,
) -> Dict[str, object]:
    """The identity of one sweep, as stored in the checkpoint header.

    Two sweeps with equal fingerprints produce bit-identical
    ``(n, replicate)`` triples, so their checkpoints are interchangeable;
    anything else must be rejected on resume.

    ``workload`` names the registered workload being swept
    (:mod:`repro.algorithms.registry`); ``None`` is the historical CAS
    counter default.  Folding the name in means a msqueue sweep can
    never resume from (or dedupe against) a counter checkpoint.
    """
    return {
        "seed": int(seed),
        "steps": int(steps),
        "engine": str(engine),
        "n_values": [int(n) for n in n_values],
        "repeats": int(repeats),
        "burn_in": None if burn_in is None else int(burn_in),
        "crash_hash": crash_config_hash(crash_times, n_values),
        "workload": None if workload is None else str(workload),
    }


#: Open checkpoints/stores, so ``repro.cli`` can flush them on
#: KeyboardInterrupt.  :class:`repro.core.store.ColumnarSweepStore`
#: registers here too — anything with ``closed``/``flush`` qualifies.
_ACTIVE: "weakref.WeakSet" = weakref.WeakSet()


def parse_point_record(
    record: object, path: Path, line_no: int
) -> Tuple[Tuple[int, int], Triple]:
    """Validate one JSON point record into ``((n, r), triple)``.

    A record that parsed as JSON can still be structurally invalid — a
    missing field, a short ``v`` list, a non-numeric entry.  Every such
    shape raises :class:`CheckpointError` naming the line, consistent
    with the other corruption paths; nothing escapes as a raw
    ``KeyError``/``IndexError``/``TypeError``.  Shared by the JSONL
    checkpoint and the columnar store's write-ahead tail.
    """

    def invalid(why: str) -> CheckpointError:
        return CheckpointError(
            f"checkpoint {path} line {line_no} is structurally invalid "
            f"({why}); the record parsed as JSON but is not a point record"
        )

    if not isinstance(record, dict):
        raise invalid(f"expected an object, got {type(record).__name__}")
    if record.get("kind") != "point":
        raise CheckpointError(
            f"checkpoint {path} line {line_no} has unknown kind "
            f"{record.get('kind')!r}"
        )
    for fld in ("n", "r", "v"):
        if fld not in record:
            raise invalid(f"missing field {fld!r}")
    n, r, values = record["n"], record["r"], record["v"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise invalid(f"field 'n' must be an integer, got {n!r}")
    if isinstance(r, bool) or not isinstance(r, int):
        raise invalid(f"field 'r' must be an integer, got {r!r}")
    if not isinstance(values, list) or len(values) != 3:
        raise invalid(
            f"field 'v' must be a list of 3 numbers, got {values!r}"
        )
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise invalid(f"field 'v' has non-numeric entry {value!r}")
    return (int(n), int(r)), (
        float(values[0]),
        float(values[1]),
        float(values[2]),
    )


def repair_jsonl_tail(path: Path) -> None:
    """Make a JSONL journal end with a newline before appending to it.

    A crash mid-append can leave an unterminated final line.  If the
    bytes after the last newline parse as JSON, only the terminating
    newline was lost — restore it, keeping the record.  Otherwise the
    tail is torn garbage (already skipped on load): drop it, so the
    next append starts a fresh line instead of gluing onto the partial
    one and corrupting both records.
    """
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    cut = data.rfind(b"\n") + 1
    tail = data[cut:]
    with path.open("r+b") as handle:
        try:
            json.loads(tail.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            handle.seek(cut)
            handle.truncate()
        else:
            handle.seek(0, os.SEEK_END)
            handle.write(b"\n")
        handle.flush()
        os.fsync(handle.fileno())


class WriterLock:
    """An advisory single-writer lock on a sidecar lockfile.

    Obtained via :func:`acquire_writer_lock`; hold it for as long as the
    journal is open for append, then :meth:`release`.  The lock is an
    OS-level ``flock``, so it evaporates automatically if the holding
    process dies — a crashed writer can never wedge the file shut — and
    the sidecar carries the holder's PID so the loser of a race gets an
    error *naming its competitor* instead of a silent corruption.
    """

    def __init__(self, path: Path, handle):
        self.path = Path(path)
        self._handle = handle

    @property
    def held(self) -> bool:
        return self._handle is not None

    def release(self) -> None:
        """Unlink the sidecar and drop the lock (idempotent).

        The unlink happens *while still holding* the flock, so a waiter
        that opened the old inode sees the path/inode mismatch when it
        finally acquires and retries on a fresh file — the classic
        unlink-vs-lock race cannot hand the lock to two holders.
        """
        if self._handle is None:
            return
        try:
            os.unlink(self.path)
        except OSError:
            pass
        try:
            self._handle.close()
        finally:
            self._handle = None


def acquire_writer_lock(target: Union[str, Path]) -> Optional[WriterLock]:
    """Take the single-writer advisory lock for journal ``target``.

    The lock lives on a sidecar ``<target>.lock`` file (never on the
    journal itself, whose handle lifecycle belongs to the journal
    code).  A second concurrent open-for-append fails loudly with a
    :class:`CheckpointError` naming the holder's PID — two writers
    interleaving appends on one journal is unrecoverable corruption, so
    it must be impossible to do silently.

    Returns ``None`` on platforms without ``fcntl`` (the lock is
    advisory protection, not a correctness dependency of single-process
    use).  Never blocks: contention is an immediate error.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        return None
    lock_path = Path(f"{target}.lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    for _ in range(5):
        handle = open(lock_path, "a+b")
        try:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                try:
                    handle.seek(0)
                    holder = handle.read(64).decode("ascii", "replace").strip()
                except OSError:
                    holder = ""
                handle.close()
                raise CheckpointError(
                    f"{target} is already open for writing by "
                    f"PID {holder or 'unknown'} (lockfile {lock_path}); "
                    "a journal admits one writer at a time"
                ) from None
            # A released lock unlinks its sidecar while holding the
            # flock; if we locked a now-unlinked inode, retry on the
            # fresh path.
            try:
                if os.fstat(handle.fileno()).st_ino != os.stat(lock_path).st_ino:
                    raise FileNotFoundError
            except (FileNotFoundError, OSError):
                handle.close()
                continue
            handle.seek(0)
            handle.truncate()
            handle.write(f"{os.getpid()}\n".encode("ascii"))
            handle.flush()
            return WriterLock(lock_path, handle)
        except CheckpointError:
            raise
        except BaseException:
            handle.close()
            raise
    raise CheckpointError(
        f"could not acquire the writer lock for {target}: the lockfile "
        f"{lock_path} kept being replaced under us"
    )


def flush_active_checkpoints() -> int:
    """Flush every open checkpoint; returns how many were flushed."""
    count = 0
    for checkpoint in list(_ACTIVE):
        if not checkpoint.closed:
            checkpoint.flush()
            count += 1
    return count


class SweepCheckpoint:
    """Append-only record of the finished ``(n, replicate)`` triples.

    Use :meth:`open` — it creates a fresh file (writing the header) or,
    with ``resume=True``, validates the existing header against the
    requested fingerprint and loads the completed triples into
    :attr:`completed`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fingerprint: Dict[str, object],
        completed: Dict[Tuple[int, int], Triple],
        handle,
        *,
        fsync_every: int = 16,
        telemetry=None,
        lock: Optional[WriterLock] = None,
    ):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.completed = completed
        self._handle = handle
        self._fsync_every = max(1, int(fsync_every))
        self._since_sync = 0
        self.telemetry = telemetry
        self._lock = lock
        _ACTIVE.add(self)

    # -- construction ------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        fingerprint: Dict[str, object],
        *,
        resume: bool = False,
        fsync_every: int = 16,
        telemetry=None,
    ) -> "SweepCheckpoint":
        """Create a fresh checkpoint, or resume an existing one.

        ``resume=False`` refuses to touch an existing non-empty file —
        clobbering a checkpoint silently would defeat its purpose.
        ``resume=True`` accepts a missing file (starts fresh, so a
        ``--resume`` invocation is idempotent) and otherwise validates
        the stored fingerprint, raising :class:`CheckpointMismatchError`
        on any difference.

        Opening takes the advisory single-writer lock (a sidecar
        ``<path>.lock``): a second concurrent open fails loudly with a
        :class:`CheckpointError` naming the holder's PID instead of
        silently interleaving appends.  The lock is released by
        :meth:`close` and evaporates with the process on a crash.
        """
        path = Path(path)
        exists = path.exists() and path.stat().st_size > 0
        if exists and not resume:
            raise CheckpointError(
                f"checkpoint {path} already exists; pass resume=True to "
                "continue it, or remove the file to start over"
            )
        lock = acquire_writer_lock(path)
        try:
            if exists:
                stored, completed = cls._read(path)
                if stored != fingerprint:
                    differing = sorted(
                        key
                        for key in set(stored) | set(fingerprint)
                        if stored.get(key) != fingerprint.get(key)
                    )
                    raise CheckpointMismatchError(
                        f"checkpoint {path} belongs to a different sweep: "
                        f"fields {differing} differ "
                        f"(stored {[stored.get(k) for k in differing]}, "
                        f"requested {[fingerprint.get(k) for k in differing]})"
                    )
                cls._repair_tail(path)
                handle = path.open("a", encoding="utf-8")
                if telemetry is not None and telemetry.enabled:
                    telemetry.inc("checkpoint.resume_hits", len(completed))
                return cls(
                    path,
                    fingerprint,
                    completed,
                    handle,
                    fsync_every=fsync_every,
                    telemetry=telemetry,
                    lock=lock,
                )
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = path.open("w", encoding="utf-8")
            header = {
                "kind": "header",
                "version": SCHEMA_VERSION,
                "fingerprint": fingerprint,
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
            return cls(
                path,
                fingerprint,
                {},
                handle,
                fsync_every=fsync_every,
                telemetry=telemetry,
                lock=lock,
            )
        except BaseException:
            if lock is not None:
                lock.release()
            raise

    @staticmethod
    def _repair_tail(path: Path) -> None:
        """Make the file end with a newline before appending to it.

        See :func:`repair_jsonl_tail` (shared with the columnar store's
        write-ahead tail).
        """
        repair_jsonl_tail(path)

    @staticmethod
    def _read(
        path: Path,
    ) -> Tuple[Dict[str, object], Dict[Tuple[int, int], Triple]]:
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint {path} is unreadable: {exc}"
            ) from exc
        if not lines:
            raise CheckpointError(f"checkpoint {path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {path} has an unreadable header: {exc}"
            ) from exc
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise CheckpointError(
                f"checkpoint {path} does not start with a header record"
            )
        if header.get("version") != SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has schema version "
                f"{header.get('version')!r}; this build reads "
                f"version {SCHEMA_VERSION}"
            )
        fingerprint = header.get("fingerprint")
        if not isinstance(fingerprint, dict):
            raise CheckpointError(f"checkpoint {path} header has no fingerprint")
        completed: Dict[Tuple[int, int], Triple] = {}
        for index, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if index == len(lines):
                    # A torn final line is the expected shape of a crash
                    # mid-append; everything before it is intact.
                    break
                raise CheckpointError(
                    f"checkpoint {path} line {index} is corrupt "
                    "(not the final line, so this is not a torn tail)"
                )
            key, triple = parse_point_record(record, path, index)
            completed[key] = triple
        return fingerprint, completed

    @classmethod
    def load_completed(
        cls, path: Union[str, Path]
    ) -> Dict[Tuple[int, int], Triple]:
        """Read a checkpoint's completed triples without opening it."""
        return cls._read(Path(path))[1]

    @classmethod
    def load_fingerprint(cls, path: Union[str, Path]) -> Dict[str, object]:
        """Read a checkpoint's stored fingerprint without opening it."""
        return cls._read(Path(path))[0]

    # -- appending ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._handle is None

    def record(self, n: int, replicate: int, triple: Sequence[float]) -> None:
        """Append one finished ``(n, replicate)`` triple.

        The line is written with a single ``write`` call and flushed so a
        crash tears at most this line; an ``fsync`` lands every
        ``fsync_every`` records.  Re-recording a key overwrites it on
        load (last wins) — harmless, since retries re-run pure work.
        """
        if self._handle is None:
            raise CheckpointError(f"checkpoint {self.path} is closed")
        triple = (float(triple[0]), float(triple[1]), float(triple[2]))
        line = json.dumps(
            {"kind": "point", "n": int(n), "r": int(replicate), "v": list(triple)}
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        self.completed[(int(n), int(replicate))] = triple
        self._since_sync += 1
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.inc("checkpoint.records")
        if self._since_sync >= self._fsync_every:
            os.fsync(self._handle.fileno())
            self._since_sync = 0
            if telemetry is not None and telemetry.enabled:
                telemetry.inc("checkpoint.fsync_batches")

    def flush(self) -> None:
        """Flush and fsync everything recorded so far."""
        if self._handle is None:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_sync = 0
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.inc("checkpoint.fsync_batches")

    def close(self) -> None:
        """Flush, fsync, and release the file handle (idempotent)."""
        if self._handle is None:
            return
        self.flush()
        self._handle.close()
        self._handle = None
        if self._lock is not None:
            self._lock.release()
            self._lock = None
        _ACTIVE.discard(self)

    def missing(
        self, n_values: Sequence[int], repeats: int
    ) -> List[Tuple[int, int]]:
        """The ``(n, replicate)`` pairs not yet recorded, in sweep order."""
        return [
            (n, r)
            for n in n_values
            for r in range(repeats)
            if (n, r) not in self.completed
        ]

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
