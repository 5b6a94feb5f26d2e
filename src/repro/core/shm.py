"""Zero-copy shared-memory dispatch buffers for parallel sweeps.

:func:`repro.core.sweep.latency_sweep` with ``max_workers > 1`` ships
work to pool workers as chunks of ``(n, replicate)`` pairs and gets
``(latency, rate, fairness)`` triples back.  With pickle dispatch every
chunk pays serialization twice (task list out, result list back) plus a
pipe write per direction; for small replicates that overhead rivals the
work itself.  This module replaces both directions with two
``multiprocessing.shared_memory`` segments per sweep:

* a **task segment** — one int64 ``(n, replicate)`` row per replicate,
  written once by the parent; workers index it by row number, and
* a **result segment** — one float64 triple row per replicate, written
  in place by whichever worker resolves that row.

The executor's task keys become plain row indices, so the per-chunk
pickle payload shrinks to a handful of ints each way regardless of chunk
size, and results never cross the pipe at all.  Retry/poison-split
semantics are untouched: a retried row rewrites the same deterministic
bytes, so recovery cannot tear or change a result.

**Naming** is deterministic off the sweep fingerprint: segments are
called ``repro-<digest>-<pid>-<counter>-<role>`` where ``digest`` hashes
the fingerprint dict (stable across runs of the same sweep), ``pid`` and
a per-process counter isolate concurrent sweeps, and ``role`` is ``t``
(tasks) or ``r`` (results).  A stale segment left by a killed previous
run (same name) is unlinked and recreated rather than failing.

**Lifetime**: the parent owns both segments and unlinks them in its
``finally`` — worker kills, hangs, poison tasks and parent exceptions
all funnel through the same cleanup, which is what the chaos suite's
"no orphaned ``/dev/shm`` segments" assertion checks.  Workers attaching
a segment suppress the ``resource_tracker`` registration CPython
(< 3.13, no ``track=False``) performs on every attach: a worker's
tracker destroying a segment the parent still owns is the classic
premature-unlink bug, and since forked workers share one tracker whose
cache is a set, attach-then-unregister would instead strip the parent's
own entry.  Never registering attachments keeps the tracker exact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from typing import Dict, Sequence, Tuple

import numpy as np

try:  # pragma: no cover — import succeeds on every supported platform
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

__all__ = [
    "sharedmem_available",
    "segment_digest",
    "attach_array",
    "release",
    "SweepTaskBuffers",
]

_COUNTER = itertools.count()

#: Worker-side attachment cache: ``name -> (SharedMemory, ndarray)``.
#: One entry per segment per worker process (workers live exactly as
#: long as their pool, i.e. one sweep), so the cache never grows past a
#: few entries; the parent's serial-fallback attachments are evicted
#: explicitly via :func:`release` when the buffers close.
_ATTACHED: Dict[str, Tuple[object, np.ndarray]] = {}


def sharedmem_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` exists on this platform."""
    return shared_memory is not None


def segment_digest(fingerprint: Dict[str, object]) -> str:
    """A short stable digest of a sweep fingerprint, for segment names."""
    payload = json.dumps(fingerprint, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:8]


def _create_segment(name: str, size: int):
    """Create a segment, steamrolling a stale leftover of the same name.

    A previous run killed between creating and unlinking (e.g. SIGKILL
    on the parent) can leave a same-named segment behind; since names
    embed the pid, a live collision is not possible — unlink the corpse
    and recreate.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=True, size=size)
    except FileExistsError:
        stale = shared_memory.SharedMemory(name=name)
        stale.close()
        stale.unlink()
        return shared_memory.SharedMemory(name=name, create=True, size=size)


def attach_array(
    name: str, shape: Tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    """Attach (once per process) to a segment and view it as an array.

    The attachment is cached per segment name — pool workers call this
    for every chunk, and repeated ``SharedMemory`` opens would add a
    syscall pair per chunk.  The resource-tracker registration CPython
    performs on attach is suppressed (see the module docstring).
    """
    entry = _ATTACHED.get(name)
    if entry is None:
        # Suppress the resource-tracker registration CPython performs on
        # attach (< 3.13 has no track=False).  Unregistering afterwards
        # is NOT equivalent: the tracker cache is a set shared by every
        # forked process, so a second worker's unregister would strip
        # the parent's creation entry and a third would KeyError in the
        # tracker process.  Never registering keeps the books exact.
        if resource_tracker is not None:
            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                segment = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        else:  # pragma: no cover — platform-dependent
            segment = shared_memory.SharedMemory(name=name)
        array = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        entry = (segment, array)
        _ATTACHED[name] = entry
    return entry[1]


def release(name: str) -> None:
    """Drop this process's cached attachment of ``name``, if any.

    Unmapping matters in long-lived parents: ``unlink`` removes the
    name, but the memory itself is freed only once every mapping closes.
    """
    entry = _ATTACHED.pop(name, None)
    if entry is not None:
        try:
            entry[0].close()
        except Exception:
            pass


class SweepTaskBuffers:
    """The parent-side segment pair for one sweep dispatch.

    Creates both segments, writes the task rows, and exposes the result
    rows; :meth:`close` unlinks both (idempotent, exception-tolerant) —
    call it in a ``finally``.  ``telemetry`` (optional) counts segments,
    bytes and unlinks under the ``shm.*`` metric names.
    """

    def __init__(
        self,
        tasks: Sequence[Tuple[int, int]],
        digest: str,
        *,
        telemetry=None,
    ) -> None:
        if shared_memory is None:  # pragma: no cover — platform-dependent
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable on this platform"
            )
        if not tasks:
            raise ValueError("shared-memory dispatch needs at least one task")
        count = len(tasks)
        base = f"repro-{digest}-{os.getpid()}-{next(_COUNTER)}"
        self.task_name = f"{base}-t"
        self.result_name = f"{base}-r"
        self.task_count = count
        self._telemetry = telemetry
        self._task_shm = _create_segment(self.task_name, count * 2 * 8)
        try:
            self._result_shm = _create_segment(self.result_name, count * 3 * 8)
        except Exception:
            self._task_shm.close()
            self._task_shm.unlink()
            raise
        self._closed = False
        self.tasks = np.ndarray(
            (count, 2), dtype=np.int64, buffer=self._task_shm.buf
        )
        self.tasks[:] = np.asarray(tasks, dtype=np.int64).reshape(count, 2)
        self.results = np.ndarray(
            (count, 3), dtype=np.float64, buffer=self._result_shm.buf
        )
        self.results.fill(np.nan)
        if telemetry is not None and telemetry.enabled:
            telemetry.inc("shm.segments", 2)
            telemetry.inc(
                "shm.bytes", self._task_shm.size + self._result_shm.size
            )

    def key_of(self, row: int) -> Tuple[int, int]:
        """The ``(n, replicate)`` pair a row index stands for."""
        return (int(self.tasks[row, 0]), int(self.tasks[row, 1]))

    def triple(self, row: int) -> Tuple[float, float, float]:
        """One resolved result row, as plain floats."""
        values = self.results[row]
        return (float(values[0]), float(values[1]), float(values[2]))

    def close(self) -> None:
        """Unlink both segments (idempotent; never raises).

        Also evicts any serial-fallback attachments this process cached,
        so the mappings — not just the names — are released.
        """
        if self._closed:
            return
        self._closed = True
        # Views into the buffers must die before the mmaps can close.
        self.tasks = None  # type: ignore[assignment]
        self.results = None  # type: ignore[assignment]
        release(self.task_name)
        release(self.result_name)
        unlinked = 0
        for segment in (self._task_shm, self._result_shm):
            try:
                segment.close()
            except Exception:
                pass
            # Belt and braces for unlink()'s own unregister: if anything
            # stripped this name from the fork-shared tracker cache, the
            # remove would log a KeyError in the tracker process.
            # Re-registering is a set-add — a no-op when already present.
            if resource_tracker is not None:
                try:
                    resource_tracker.register(segment._name, "shared_memory")
                except Exception:
                    pass
            try:
                segment.unlink()
                unlinked += 1
            except Exception:
                pass
        telemetry = self._telemetry
        if telemetry is not None and telemetry.enabled and unlinked:
            telemetry.inc("shm.unlinked", unlinked)
