"""Persistent, fingerprint-keyed memoization for exact chain solves.

The exact-latency solvers in :mod:`repro.chains.scu` are pure functions
of small integer tuples ``(n, q, s)`` whose evaluation can cost seconds
(a stationary solve of the ``n=512`` system chain) — and every sweep,
benchmark and service process used to pay that cost again, because the
only cache was an in-process ``functools.lru_cache``.  This module adds
a second, *machine-wide* layer: a :class:`DiskMemo` keyed by the
canonical JSON of ``(function name, args)``, so an exact chain solution
is computed once per ``(n, q, s)`` ever and every later process warm
starts from disk.

Layout: one file per entry, ``<root>/<name>/<sha256-prefix>.json``,
holding ``{"schema": 1, "key": [name, args], "value": v}``.  Writes are
atomic (temp file in the same directory, fsync, ``os.replace``), so a
crash mid-write can never corrupt an existing entry.  Reads are
corruption-tolerant: an unreadable, truncated, or mismatching entry is
treated as a miss and overwritten by the recomputed value — a corrupt
memo can cost time, never correctness.  JSON round-trips every finite
float exactly (``repr`` semantics), so warm-start values are
bit-identical to cold solves.

The active memo is configured explicitly with :func:`configure_memo`
(the CLI's ``--memo-dir`` flag) or implicitly via the
``REPRO_MEMO_DIR`` environment variable; with neither, the disk layer
is off and behavior is exactly the old in-process ``lru_cache``.
:func:`disk_memoized` stacks both layers; cold/warm activity is
observable through :func:`memo_counters` and, when a telemetry registry
is attached, ``memo.*`` counters.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import tempfile
import warnings
from functools import lru_cache, update_wrapper
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

#: Bumped whenever the per-entry payload layout changes incompatibly.
MEMO_SCHEMA_VERSION = 1

#: Environment variable naming the default memo directory.
MEMO_DIR_ENV = "REPRO_MEMO_DIR"

#: Distinguishes "no entry" from any stored value (values are floats).
_MISS = object()

#: Process-wide activity counters, summed over every memo instance and
#: every :func:`disk_memoized` site.  ``computes`` counts actual solver
#: executions — a fully warm start performs zero.
_COUNTERS: Dict[str, int] = {}


#: Warn-once flag for degraded memo writes (ENOSPC, EPERM, ...): the
#: first refused :meth:`DiskMemo.put` is loud, later ones are silent —
#: a cache must never take down the sweep it accelerates.
_warned_put_failure = False


def _is_number(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(name: str, telemetry=None) -> None:
    _COUNTERS[name] = _COUNTERS.get(name, 0) + 1
    if telemetry is not None and telemetry.enabled:
        telemetry.inc(f"memo.{name}")


def memo_counters() -> Dict[str, int]:
    """A snapshot of the process-wide memo activity counters.

    Keys: ``computes`` (solver actually ran), ``disk_hits``,
    ``disk_misses``, ``disk_writes``, ``disk_corrupt`` (entry unreadable
    and recomputed), ``put_failures`` (write refused by the filesystem;
    degraded to cache-off).  Missing keys mean zero events.
    """
    return dict(_COUNTERS)


def reset_memo_counters() -> None:
    """Zero the process-wide memo activity counters."""
    _COUNTERS.clear()


class DiskMemo:
    """A fingerprint-keyed value store under one root directory.

    Values are JSON scalars (the exact solvers return floats).  All
    reads tolerate corruption; all writes are atomic.  ``telemetry``
    (a :class:`~repro.core.telemetry.MetricsRegistry`) additionally
    receives ``memo.*`` counters.
    """

    def __init__(self, root: Union[str, Path], *, telemetry=None):
        self.root = Path(root)
        self.telemetry = telemetry

    # -- keys --------------------------------------------------------------

    @staticmethod
    def _canonical_key(name: str, args: Tuple) -> list:
        return [str(name), list(args)]

    def entry_path(self, name: str, args: Tuple) -> Path:
        """Where the entry for ``(name, args)`` lives on disk."""
        key = self._canonical_key(name, args)
        blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]
        return self.root / name / f"{digest}.json"

    # -- access ------------------------------------------------------------

    def get(self, name: str, args: Tuple) -> Any:
        """The stored value, or the module-private miss sentinel.

        Corrupt entries (unparseable, wrong schema, key mismatch from a
        hash collision or a partial legacy write, non-numeric value)
        count as misses; the caller recomputes and :meth:`put`
        overwrites them.  Only a number is a value: an entry holding a
        list (a service point triple written before the service kept
        its own journal) is corrupt too.
        """
        path = self.entry_path(name, args)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            _count("disk_misses", self.telemetry)
            return _MISS
        except (OSError, ValueError, UnicodeDecodeError):
            _count("disk_corrupt", self.telemetry)
            return _MISS
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != MEMO_SCHEMA_VERSION
            or payload.get("key") != self._canonical_key(name, args)
            or not _is_number(payload.get("value"))
        ):
            _count("disk_corrupt", self.telemetry)
            return _MISS
        _count("disk_hits", self.telemetry)
        return float(payload["value"])

    def put(self, name: str, args: Tuple, value) -> None:
        """Atomically store ``value`` for ``(name, args)``.

        ``value`` must be a real number (else ``TypeError`` naming its
        type).  Written to a temp file in the target directory, fsynced,
        then renamed into place — readers see either the old entry or the
        complete new one, never a torn write.  Storage failures (ENOSPC,
        EPERM, a read-only memo) degrade instead of raising: the first is
        warned once and counted (``memo.put_failures``), then the memo
        simply stops warming future starts — it never breaks the solve.
        """
        global _warned_put_failure
        if not _is_number(value):
            raise TypeError(
                f"a memo value must be a real number, not "
                f"{type(value).__name__}"
            )
        path = self.entry_path(name, args)
        payload = {
            "schema": MEMO_SCHEMA_VERSION,
            "key": self._canonical_key(name, args),
            "value": float(value),
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
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
        except OSError as exc:
            if not _warned_put_failure:
                _warned_put_failure = True
                warnings.warn(
                    f"disk memo write failed ({exc}); continuing without "
                    f"the cache — entries under {self.root} will be "
                    "recomputed instead of warm-started",
                    RuntimeWarning,
                    stacklevel=2,
                )
            _count("put_failures", self.telemetry)
            return
        _count("disk_writes", self.telemetry)

    def clear(self, name: Optional[str] = None) -> int:
        """Delete stored entries; returns how many files were removed.

        ``name`` limits the purge to one function's entries.
        """
        roots = [self.root / name] if name is not None else [self.root]
        removed = 0
        for root in roots:
            if not root.is_dir():
                continue
            for entry in sorted(root.rglob("*.json")):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


#: The configured memo, or the env-var marker before first resolution.
_UNRESOLVED = object()
_active: Any = _UNRESOLVED


def configure_memo(
    root: Union[str, Path, None], *, telemetry=None
) -> Optional[DiskMemo]:
    """Set (or with ``None`` disable) the process-wide active memo.

    Returns the new active :class:`DiskMemo` (or ``None``).  Overrides
    any ``REPRO_MEMO_DIR`` environment default.
    """
    global _active
    _active = DiskMemo(root, telemetry=telemetry) if root is not None else None
    return _active


def active_memo() -> Optional[DiskMemo]:
    """The process-wide memo: configured, env-var default, or ``None``."""
    global _active
    if _active is _UNRESOLVED:
        root = os.environ.get(MEMO_DIR_ENV)
        _active = DiskMemo(root) if root else None
    return _active


def disk_memoized(name: str, *, maxsize: int = 128) -> Callable:
    """Stack an in-process LRU over the machine-wide disk memo.

    Lookup order: in-process LRU (bounded at ``maxsize``), then the
    active :class:`DiskMemo` (if configured), then the wrapped function
    — whose result is written through to both layers.  The wrapper
    keeps ``lru_cache``'s ``cache_clear``/``cache_info`` (the
    *in-process* layer only) and gains ``memo_name`` so cache managers
    such as ``clear_exact_chain_caches`` can clear the disk layer too.

    Positional arguments must be JSON-serialisable scalars (the exact
    solvers take small ints); keyword calls are not supported, matching
    what ``lru_cache`` keys best.
    """

    def decorate(fn: Callable) -> Callable:
        @lru_cache(maxsize=maxsize)
        def cached(*args):
            memo = active_memo()
            if memo is not None:
                stored = memo.get(name, args)
                if stored is not _MISS:
                    return stored
            value = fn(*args)
            _count("computes", memo.telemetry if memo is not None else None)
            if memo is not None:
                memo.put(name, args, value)
            return value

        update_wrapper(cached, fn)
        cached.memo_name = name
        return cached

    return decorate


def clear_disk_entries(names) -> int:
    """Clear the active memo's entries for the given function names.

    No-op (returns 0) when no memo is configured.
    """
    memo = active_memo()
    if memo is None:
        return 0
    return sum(memo.clear(name) for name in names)
