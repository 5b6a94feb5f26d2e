"""Shared pieces of the durable sweep journals.

Every replicate is pure deterministic work keyed by
``(seed, n, replicate)``, so a sweep becomes *resumable* by journaling
its finished triples under a fingerprint of the sweep
(:func:`sweep_fingerprint`: seed, steps, scheduler, ``n_values``,
repeats, burn-in, workload and a hash of the resolved crash
configuration; not the engine, since every engine gives the same bits).
A resumed sweep that re-runs only the missing replicates is
bit-identical to an uninterrupted one; the journal never stores partial
simulator state, only finished numbers.  The one result journal is
:class:`repro.core.store.ColumnarSweepStore`; the service's
:class:`repro.service.ledger.JobLedger` journals job events, and its
:class:`~repro.service.ledger.PointJournal` sweep points, the same way.

This module holds what those journals share: the fingerprint with its
scheduler identity and crash hash, the point-record validator
(:func:`parse_point_record`), torn-tail repair for JSONL files
(:func:`repair_jsonl_tail`), the single-writer lock, the registry of
open journals that ``repro.cli`` flushes on Ctrl-C/SIGTERM
(:func:`flush_active_checkpoints`) and the two error classes.
Resuming against a journal whose fingerprint does not match the
requested sweep raises :class:`CheckpointMismatchError` naming every
differing field: silently mixing results from two different sweeps is
the one failure mode a journal must never have.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import types
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

try:  # advisory file locking is POSIX-only; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

Triple = Tuple[float, float, float]


class CheckpointError(RuntimeError):
    """A sweep journal cannot be created, read, or appended to."""


class CheckpointMismatchError(CheckpointError):
    """Resume was attempted against a journal of a *different* sweep."""


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


#: Stands in an identity for a callable that has none stable across
#: processes: a lambda or a function local to another.
_NO_STABLE_IDENTITY = "<no stable identity>"


def scheduler_identity(scheduler: object) -> Dict[str, object]:
    """A freshly built scheduler's identity, for :func:`sweep_fingerprint`.

    Its class ``__qualname__`` plus its parameters: the public attributes
    and the private ones named after a constructor parameter (``_pi``
    for ``pi``, stored as ``pi``); other private attributes hold run
    state and stay out.  A parameter that is an object, such as an
    adversary's strategy, folds in the same way (class plus parameters,
    not run state such as a rotation's last pid); a function folds in
    by module and qualified name.  A callable with no stable identity —
    a lambda or a function local to another — is recorded as
    ``"<no stable identity>"`` and its path listed under ``"unstable"``,
    so resuming a store of the sweep fails (:func:`check_resumable`)
    instead of trusting two such schedulers to be the same.  Passed
    through JSON, ndarrays as lists, so it equals what a store header
    reads back.
    """
    unstable: List[str] = []
    identity = _object_identity(scheduler, "", unstable)
    if unstable:
        identity["unstable"] = unstable
    return json.loads(json.dumps(identity, default=repr))


def _constructor_parameters(cls: type) -> set:
    """Parameter names of every ``__init__`` along ``cls``'s MRO."""
    names = set()
    for klass in cls.__mro__:
        init = klass.__dict__.get("__init__")
        if isinstance(init, types.FunctionType):
            code = init.__code__
            names.update(
                code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]
            )
    return names


def _object_identity(
    obj: object, path: str, unstable: List[str]
) -> Dict[str, object]:
    parameters = _constructor_parameters(type(obj))
    identity: Dict[str, object] = {}
    for name, value in vars(obj).items():
        key = name[1:] if name.startswith("_") else name
        if key.startswith("_") or (key != name and key not in parameters):
            continue
        identity[key] = _encode(value, path + key, unstable)
    identity["class"] = type(obj).__qualname__
    return identity


def _encode(value: object, path: str, unstable: List[str]) -> object:
    """One parameter value as JSON-ready data (see :func:`scheduler_identity`)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [
            _encode(item, f"{path}[{index}]", unstable)
            for index, item in enumerate(value)
        ]
    if isinstance(value, dict):
        return {
            str(key): _encode(item, f"{path}[{key!r}]", unstable)
            for key, item in value.items()
        }
    if hasattr(value, "tolist"):  # ndarrays and numpy scalars
        return value.tolist()
    if isinstance(value, functools.partial):
        return {
            "class": "functools.partial",
            "func": _encode(value.func, path + ".func", unstable),
            "args": _encode(value.args, path + ".args", unstable),
            "keywords": _encode(value.keywords, path + ".keywords", unstable),
        }
    if isinstance(value, types.MethodType):
        return {
            "method": value.__func__.__name__,
            "of": _encode(value.__self__, path + ".__self__", unstable),
        }
    if isinstance(value, (types.FunctionType, types.BuiltinFunctionType, type)):
        qualname = value.__qualname__
        if "<lambda>" in qualname or "<locals>" in qualname:
            unstable.append(path)
            return _NO_STABLE_IDENTITY
        return f"{value.__module__}.{qualname}"
    if hasattr(value, "__dict__"):
        return _object_identity(value, path + ".", unstable)
    return repr(value)


def check_resumable(fingerprint: Dict[str, object]) -> None:
    """Refuse to resume a sweep whose scheduler cannot be identified.

    Raises :class:`CheckpointError` naming the scheduler and the
    parameters :func:`scheduler_identity` listed as ``"unstable"``.
    """
    identity = fingerprint.get("scheduler")
    if isinstance(identity, dict) and identity.get("unstable"):
        raise CheckpointError(
            f"cannot resume a sweep of scheduler {identity.get('class')}: "
            f"its parameters {identity['unstable']} are callables with no "
            "stable identity (a lambda or a function local to another), so "
            "the store cannot tell whether it was written under the same "
            "scheduler; pass a module-level function or a strategy object"
        )


def sweep_fingerprint(
    *,
    seed: int,
    steps: int,
    n_values: Sequence[int],
    repeats: int,
    burn_in: Optional[int],
    scheduler: object = None,
    crash_times: CrashTimesLike = None,
    workload: Optional[str] = None,
) -> Dict[str, object]:
    """The identity of one sweep, as stored in the journal header.

    Two sweeps with equal fingerprints produce bit-identical
    ``(n, replicate)`` triples, so their journals are interchangeable;
    anything else must be rejected on resume.

    ``scheduler`` is a freshly built scheduler instance, stored as its
    :func:`scheduler_identity`.  ``workload`` names the registered
    workload being swept (:mod:`repro.algorithms.registry`); ``None`` is
    the historical CAS counter default.  Folding both in means a sweep
    never resumes from (or dedupes against) a store of another scheduler
    or structure.
    """
    identity = None if scheduler is None else scheduler_identity(scheduler)
    return {
        "seed": int(seed),
        "steps": int(steps),
        "scheduler": identity,
        "n_values": [int(n) for n in n_values],
        "repeats": int(repeats),
        "burn_in": None if burn_in is None else int(burn_in),
        "crash_hash": crash_config_hash(crash_times, n_values),
        "workload": None if workload is None else str(workload),
    }


#: Open journals, so ``repro.cli`` can flush them on KeyboardInterrupt.
#: :class:`repro.core.store.ColumnarSweepStore` registers here; anything
#: with ``closed``/``flush`` qualifies.
_ACTIVE: "weakref.WeakSet" = weakref.WeakSet()


def parse_point_record(
    record: object, path: Path, line_no: int
) -> Tuple[Tuple[int, int], Triple]:
    """Validate one JSON point record into ``((n, r), triple)``.

    A record that parsed as JSON can still be structurally invalid — a
    missing field, a short ``v`` list, a non-numeric entry.  Every such
    shape raises :class:`CheckpointError` naming the line, consistent
    with the other corruption paths; nothing escapes as a raw
    ``KeyError``/``IndexError``/``TypeError``.  The columnar store's
    write-ahead tail holds these records.
    """

    def invalid(why: str) -> CheckpointError:
        return CheckpointError(
            f"journal {path} line {line_no} is structurally invalid "
            f"({why}); the record parsed as JSON but is not a point record"
        )

    if not isinstance(record, dict):
        raise invalid(f"expected an object, got {type(record).__name__}")
    if record.get("kind") != "point":
        raise CheckpointError(
            f"journal {path} line {line_no} has unknown kind "
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
    """Flush every open journal; returns how many were flushed."""
    count = 0
    for journal in list(_ACTIVE):
        if not journal.closed:
            journal.flush()
            count += 1
    return count
