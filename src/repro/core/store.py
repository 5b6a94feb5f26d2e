"""Chunked columnar result store: the one durable sweep journal.

Every replicate is pure work keyed by ``(seed, n, replicate)``, so a
sweep resumes from a journal of finished triples (see
:mod:`repro.core.checkpoint`).  A :class:`ColumnarSweepStore` is that
journal: appends are per-record and durable at once, while the bulk of
the results is stored columnar, so loading a million-replicate resume
state does not mean parsing a million JSON lines.  A store is a
directory:

* ``header.json`` — the schema-versioned sweep fingerprint, written
  atomically before anything else.
* ``chunk-00000.npz``, ``chunk-00001.npz``, ... — compacted results,
  one int64 column for ``n`` and ``r`` and one float64 column per
  metric (``system_latency``, ``completion_rate``, ``fairness_ratio``),
  in append order.
* ``tail.jsonl`` — the write-ahead tail: every :meth:`record` appends
  one JSON point line (flushed immediately, fsync-batched).  When the
  tail reaches ``compact_every`` records, or a caller calls
  :meth:`compact`, it is compacted into a fresh columnar chunk and
  truncated.  Closing does not compact: a store of a dozen records
  stays ``header.json`` plus ``tail.jsonl``, since
  writing and re-reading an npz chunk costs more than parsing that
  many lines, while a big sweep still compacts every ``compact_every``
  records, so a resume parses at most ``compact_every - 1`` lines.

Durability: a record is durable once its tail line is flushed.
Compaction writes the chunk to a temp file, fsyncs, atomically renames
it into place, and only then truncates the tail; a crash between those
steps leaves the compacted records in *both* places, which load-time
last-wins deduplication makes harmless (the values are identical).  A
torn final tail line is repaired on resume; a corrupt chunk or a
corrupt non-final tail line is an error, because only the final line
can legitimately tear.  A directory holding chunks or tail records but
no header is refused rather than reused, since nothing says which sweep
wrote them.

Resume loads chunks then tail (last wins) into :attr:`completed`, so a
resumed sweep re-runs exactly the missing replicates and aggregates the
same bytes as an uninterrupted one.  :meth:`record` does not grow an
in-memory dict of every triple — a fresh million-replicate sweep holds
at most ``compact_every`` pending records plus the completed-key set;
:meth:`triples` reads back only the chunks the handle itself compacted.
The JSONL-only checkpoint format that preceded the store is not read:
a file passed where a store directory belongs fails loudly.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.checkpoint import (
    _ACTIVE,
    CheckpointError,
    CheckpointMismatchError,
    Triple,
    WriterLock,
    acquire_writer_lock,
    check_resumable,
    parse_point_record,
    repair_jsonl_tail,
)

#: Warn-once flag for degraded compaction (see :meth:`ColumnarSweepStore.compact`).
_warned_compact_failure = False

#: Bumped whenever the on-disk layout or the fingerprint changes.
STORE_SCHEMA_VERSION = 2

#: The metric columns of every chunk, in triple order.
METRIC_COLUMNS = ("system_latency", "completion_rate", "fairness_ratio")

_HEADER_NAME = "header.json"
_TAIL_NAME = "tail.jsonl"
_CHUNK_PREFIX = "chunk-"


def _check_fingerprint(
    path: Path, stored: Dict[str, object], requested: Dict[str, object]
) -> None:
    """Raise :class:`CheckpointMismatchError` unless the fingerprints match.

    The message names every differing field with both values.
    """
    if stored == requested:
        return
    differing = sorted(
        key
        for key in set(stored) | set(requested)
        if stored.get(key) != requested.get(key)
    )
    raise CheckpointMismatchError(
        f"store {path} belongs to a different sweep: "
        f"fields {differing} differ "
        f"(stored {[stored.get(k) for k in differing]}, "
        f"requested {[requested.get(k) for k in differing]})"
    )


def _atomic_write_json(path: Path, payload: dict) -> None:
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ColumnarSweepStore:
    """Columnar sweep results with a JSONL write-ahead tail.

    Use :meth:`open`; :func:`repro.core.sweep.latency_sweep` opens one
    for a directory passed as its ``store=`` argument, or records into
    an open one passed there.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fingerprint: Dict[str, object],
        completed: Dict[Tuple[int, int], Triple],
        tail_records: List[Tuple[int, int, Triple]],
        handle,
        next_chunk: int,
        *,
        compact_every: int = 4096,
        fsync_every: int = 16,
        telemetry=None,
        lock: Optional[WriterLock] = None,
    ):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._lock = lock
        #: Triples loaded at open time (the resume state).  Records
        #: appended later are *not* added here — see ``keys``.
        self.completed = completed
        self._tail_records = tail_records
        self._handle = handle
        self._next_chunk = next_chunk
        self._compact_every = max(1, int(compact_every))
        self._fsync_every = max(1, int(fsync_every))
        self._since_sync = 0
        self.telemetry = telemetry
        self._keys: Set[Tuple[int, int]] = set(completed)
        self._keys.update((n, r) for n, r, _ in tail_records)
        #: Chunks this handle compacted since it opened (see ``triples``).
        self._own_chunks: List[Path] = []
        _ACTIVE.add(self)

    # -- construction ------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        fingerprint: Dict[str, object],
        *,
        resume: bool = False,
        compact_every: int = 4096,
        fsync_every: int = 16,
        telemetry=None,
    ) -> "ColumnarSweepStore":
        """Create a fresh store directory, or resume an existing one.

        ``resume=False`` refuses an existing store — clobbering one
        silently would defeat its purpose.  ``resume=True`` accepts a
        missing directory (starts fresh, so a ``--resume`` invocation
        is idempotent) and otherwise validates the stored fingerprint,
        raising :class:`CheckpointMismatchError` naming every differing
        field.  A path that is a file (such as a JSONL checkpoint from
        before the store) and a directory with chunks or tail records
        but no header both raise :class:`CheckpointError`; leftover lock
        or temp files from a crash before the header landed do not.

        Opening takes the advisory single-writer lock (``<dir>/writer.lock``):
        a second concurrent open fails loudly with a
        :class:`CheckpointError` naming the holder's PID instead of
        silently interleaving tail appends.  Released by :meth:`close`;
        evaporates with the process on a crash.
        """
        path = Path(path)
        if path.exists() and not path.is_dir():
            raise CheckpointError(
                f"{path} is a file, not a store directory; JSONL "
                "checkpoints are no longer read — pass a directory path "
                "(a missing one starts a fresh store)"
            )
        header_path = path / _HEADER_NAME
        exists = header_path.exists()
        if exists and not resume:
            raise CheckpointError(
                f"store {path} already exists; pass resume=True to "
                "continue it, or remove the directory to start over"
            )
        if not exists:
            cls._refuse_headerless_results(path)
        path.mkdir(parents=True, exist_ok=True)
        lock = acquire_writer_lock(path / "writer")
        try:
            if exists:
                check_resumable(fingerprint)
                stored, completed, tail_records, next_chunk = cls._load(path)
                _check_fingerprint(path, stored, fingerprint)
                repair_jsonl_tail(path / _TAIL_NAME)
                handle = (path / _TAIL_NAME).open("a", encoding="utf-8")
                if telemetry is not None and telemetry.enabled:
                    telemetry.inc(
                        "store.resume_hits", len(completed)
                    )
                return cls(
                    path,
                    fingerprint,
                    completed,
                    tail_records,
                    handle,
                    next_chunk,
                    compact_every=compact_every,
                    fsync_every=fsync_every,
                    telemetry=telemetry,
                    lock=lock,
                )
            _atomic_write_json(
                header_path,
                {
                    "kind": "header",
                    "version": STORE_SCHEMA_VERSION,
                    "fingerprint": fingerprint,
                    "metrics": list(METRIC_COLUMNS),
                },
            )
            handle = (path / _TAIL_NAME).open("w", encoding="utf-8")
            return cls(
                path,
                fingerprint,
                {},
                [],
                handle,
                0,
                compact_every=compact_every,
                fsync_every=fsync_every,
                telemetry=telemetry,
                lock=lock,
            )
        except BaseException:
            if lock is not None:
                lock.release()
            raise

    @classmethod
    def _refuse_headerless_results(cls, path: Path) -> None:
        """Refuse a header-less directory that already holds results.

        The header lands before any chunk or tail record, so such
        results belong to an unknown sweep and must not be mixed in.
        """
        tail_path = path / _TAIL_NAME
        leftovers = [chunk.name for chunk in cls._chunk_paths(path)]
        if tail_path.exists() and tail_path.stat().st_size > 0:
            leftovers.append(_TAIL_NAME)
        if leftovers:
            raise CheckpointError(
                f"store {path} has no {_HEADER_NAME} but holds results "
                f"({', '.join(leftovers)}); nothing says which sweep "
                "wrote them, so the directory is not reused — remove it "
                "to start over"
            )

    # -- loading -----------------------------------------------------------

    @staticmethod
    def _chunk_paths(path: Path) -> List[Path]:
        return sorted(path.glob(f"{_CHUNK_PREFIX}*.npz"))

    @classmethod
    def _load(
        cls, path: Path
    ) -> Tuple[
        Dict[str, object],
        Dict[Tuple[int, int], Triple],
        List[Tuple[int, int, Triple]],
        int,
    ]:
        header_path = path / _HEADER_NAME
        try:
            header = json.loads(header_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise CheckpointError(f"store {path} has no {_HEADER_NAME}")
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            raise CheckpointError(
                f"store {path} has an unreadable header: {exc}"
            ) from exc
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise CheckpointError(
                f"store {path} header is not a header record"
            )
        if header.get("version") != STORE_SCHEMA_VERSION:
            raise CheckpointError(
                f"store {path} has schema version "
                f"{header.get('version')!r}; this build reads "
                f"version {STORE_SCHEMA_VERSION}"
            )
        fingerprint = header.get("fingerprint")
        if not isinstance(fingerprint, dict):
            raise CheckpointError(f"store {path} header has no fingerprint")

        completed: Dict[Tuple[int, int], Triple] = {}
        next_chunk = 0
        for chunk_path in cls._chunk_paths(path):
            for key, triple in cls._read_chunk(chunk_path):
                completed[key] = triple
            stem = chunk_path.stem[len(_CHUNK_PREFIX):]
            try:
                next_chunk = max(next_chunk, int(stem) + 1)
            except ValueError:
                raise CheckpointError(
                    f"store {path} has an unrecognised chunk name "
                    f"{chunk_path.name!r}"
                ) from None

        tail_records: List[Tuple[int, int, Triple]] = []
        tail_path = path / _TAIL_NAME
        if tail_path.exists():
            try:
                lines = tail_path.read_text(encoding="utf-8").splitlines()
            except (OSError, UnicodeDecodeError) as exc:
                raise CheckpointError(
                    f"store tail {tail_path} is unreadable: {exc}"
                ) from exc
            for index, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    if index == len(lines):
                        # A torn final line is the expected shape of a
                        # crash mid-append; everything before it is
                        # intact.
                        break
                    raise CheckpointError(
                        f"store tail {tail_path} line {index} is corrupt "
                        "(not the final line, so this is not a torn tail)"
                    )
                key, triple = parse_point_record(record, tail_path, index)
                completed[key] = triple
                tail_records.append((key[0], key[1], triple))
        return fingerprint, completed, tail_records, next_chunk

    @staticmethod
    def _read_chunk(
        chunk_path: Path,
    ) -> Iterator[Tuple[Tuple[int, int], Triple]]:
        try:
            with np.load(chunk_path) as arrays:
                columns = [arrays["n"], arrays["r"]] + [
                    arrays[metric] for metric in METRIC_COLUMNS
                ]
        # Arbitrary corruption surfaces from the zip/npy parsers as a
        # zoo of exception types (BadZipFile, NotImplementedError for a
        # bogus compression method, ValueError, EOFError, ...); any
        # failure to read a chunk is the same condition.
        except Exception as exc:
            raise CheckpointError(
                f"store chunk {chunk_path} is corrupt: {exc}"
            ) from exc
        lengths = {len(column) for column in columns}
        if len(lengths) != 1:
            raise CheckpointError(
                f"store chunk {chunk_path} has ragged columns "
                f"(lengths {sorted(lengths)})"
            )
        dtypes = [column.dtype for column in columns]
        if dtypes != [np.dtype(np.int64)] * 2 + [np.dtype(np.float64)] * len(
            METRIC_COLUMNS
        ):
            raise CheckpointError(
                f"store chunk {chunk_path} has unexpected column dtypes "
                f"{[str(dtype) for dtype in dtypes]}"
            )
        # One tolist() per column yields Python ints and floats directly.
        n_col, r_col, *metric_cols = [column.tolist() for column in columns]
        yield from zip(zip(n_col, r_col), zip(*metric_cols))

    @classmethod
    def load_completed(
        cls, path: Union[str, Path]
    ) -> Dict[Tuple[int, int], Triple]:
        """Read a store's completed triples without opening it."""
        return cls._load(Path(path))[1]

    @classmethod
    def load_fingerprint(cls, path: Union[str, Path]) -> Dict[str, object]:
        """Read a store's fingerprint without opening it."""
        return cls._load(Path(path))[0]

    def triples(self) -> Dict[Tuple[int, int], Triple]:
        """Every triple this handle holds, last wins.

        That is :attr:`completed` (loaded at open) plus every record
        appended since, in the order a later :meth:`load_completed`
        would fold them.  Only chunks this handle compacted after it
        opened are read back from disk; the rest is in memory.
        """
        triples = dict(self.completed)
        for chunk_path in self._own_chunks:
            for key, triple in self._read_chunk(chunk_path):
                triples[key] = triple
        for n, r, triple in self._tail_records:
            triples[(n, r)] = triple
        return triples

    # -- appending ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._handle is None

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._keys

    @property
    def keys(self) -> Set[Tuple[int, int]]:
        """Every recorded ``(n, replicate)`` key (loaded + appended)."""
        return set(self._keys)

    @property
    def pending_tail_records(self) -> int:
        """How many records await compaction into a columnar chunk."""
        return len(self._tail_records)

    @property
    def chunk_count(self) -> int:
        """How many columnar chunks exist on disk."""
        return len(self._chunk_paths(self.path))

    def record(self, n: int, replicate: int, triple: Sequence[float]) -> None:
        """Append one finished ``(n, replicate)`` triple.

        Durable once the tail line is flushed (fsync lands every
        ``fsync_every`` records); compacts the tail into a columnar
        chunk every ``compact_every`` records.  Re-recording a key
        overwrites on load (last wins) — harmless, since retries re-run
        pure work.
        """
        if self._handle is None:
            raise CheckpointError(f"store {self.path} is closed")
        key = (int(n), int(replicate))
        triple = (float(triple[0]), float(triple[1]), float(triple[2]))
        line = json.dumps(
            {"kind": "point", "n": key[0], "r": key[1], "v": list(triple)}
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        self._tail_records.append((key[0], key[1], triple))
        self._keys.add(key)
        self._since_sync += 1
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.inc("store.records")
        if self._since_sync >= self._fsync_every:
            os.fsync(self._handle.fileno())
            self._since_sync = 0
            if telemetry is not None and telemetry.enabled:
                telemetry.inc("store.fsync_batches")
        if len(self._tail_records) >= self._compact_every:
            self.compact()

    def compact(self) -> int:
        """Move the pending tail records into a new columnar chunk.

        Returns how many records were compacted (0 for an empty tail).
        The chunk is written to a temp file, fsynced and atomically
        renamed before the tail is truncated, so no crash window loses
        a record (at worst a record exists in both chunk and tail until
        the truncate lands — deduplicated on load).

        Compaction is an *optimisation* of already-durable records, so
        a chunk write refused by the filesystem (ENOSPC, EPERM, ...)
        degrades instead of killing the sweep: the failure is warned
        once (and counted as ``store.compaction_failures``), the
        records stay in the JSONL tail, and recording continues — the
        store just runs slower and loads like a plain journal until the
        disk recovers.
        """
        if self._handle is None:
            raise CheckpointError(f"store {self.path} is closed")
        if not self._tail_records:
            return 0
        count = len(self._tail_records)
        columns = {
            "n": np.array([n for n, _, _ in self._tail_records], dtype=np.int64),
            "r": np.array([r for _, r, _ in self._tail_records], dtype=np.int64),
        }
        for index, metric in enumerate(METRIC_COLUMNS):
            columns[metric] = np.array(
                [triple[index] for _, _, triple in self._tail_records],
                dtype=np.float64,
            )
        chunk_path = self.path / f"{_CHUNK_PREFIX}{self._next_chunk:05d}.npz"
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=self.path, prefix=chunk_path.name, suffix=".tmp"
            )
        except OSError as exc:
            self._note_compact_failure(exc)
            return 0
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **columns)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, chunk_path)
        except OSError as exc:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            self._note_compact_failure(exc)
            return 0
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._next_chunk += 1
        self._own_chunks.append(chunk_path)
        # The chunk is durable; now the tail can restart empty.
        self._handle.seek(0)
        self._handle.truncate()
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_sync = 0
        self._tail_records = []
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.inc("store.compactions")
            self.telemetry.inc("store.compacted_records", count)
        return count

    def _note_compact_failure(self, exc: OSError) -> None:
        """Record a degraded (skipped) compaction without raising.

        The records involved are already durable in the JSONL tail, so
        the only consequence is slower loads until the disk recovers.
        Warned once per process to avoid drowning a long sweep in
        repeats of the same ENOSPC.
        """
        global _warned_compact_failure
        if not _warned_compact_failure:
            _warned_compact_failure = True
            warnings.warn(
                f"store compaction failed ({exc}); records remain durable "
                f"in the JSONL tail of {self.path} and the sweep continues "
                "uncompacted",
                RuntimeWarning,
                stacklevel=3,
            )
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.inc("store.compaction_failures")

    def flush(self) -> None:
        """Flush and fsync the write-ahead tail."""
        if self._handle is None:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_sync = 0
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.inc("store.fsync_batches")

    def close(self) -> None:
        """Flush, fsync and release the writer lock (idempotent).

        Closing does not compact: every record is already durable in
        the tail, and a chunk only pays off once the tail is long, which
        :meth:`record` handles at ``compact_every``.  Call
        :meth:`compact` first to leave a store fully columnar.
        """
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
            if (n, r) not in self._keys
        ]

    def __enter__(self) -> "ColumnarSweepStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
