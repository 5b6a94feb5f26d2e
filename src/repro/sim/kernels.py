"""Pluggable CAS-resolution kernels for the ensemble engine.

The ensemble engine (:mod:`repro.sim.ensemble`) reduces a replicate to a
greedy scan over (read, CAS) event pairs.  Almost all of that work is
numpy array passes, but two inner loops are inherently sequential:

* the ``q == 0`` successor-pointer **chain walk** (each success is found
  by one pointer lookup from the previous success — pure pointer
  chasing, no SIMD formulation beats a tight scalar loop), and
* the ``q > 0`` **heap scan** (a success inserts ``q`` preamble steps
  before the process's next attempt, so event times are outcome
  dependent and must be scheduled lazily).

This module isolates exactly those two loops behind a small kernel
interface so they can be swapped for compiled implementations:

``numpy``
    The pure-Python reference loops (list-based walk, ``heapq`` scan).
    Always available; serves as the bit-identity *oracle* in tests.
``cc``
    A tiny C library compiled on first use with the system C compiler
    (``cc``/``gcc``) and loaded through :mod:`ctypes`.  No third-party
    packages required; the shared object is cached on disk keyed by a
    hash of the C source.
``numba``
    ``@njit``-compiled versions of the same loops, used when numba is
    importable (it is an optional dependency — CI has a dedicated job
    for it).

The compiled heap scans (cc and numba) store the heap as
a *single* packed ``int64`` array — ``(CAS column << shift) | pid`` —
instead of parallel key/pid arrays, and sift with a branchless child
select.  CAS columns are unique, so packed comparisons order exactly
like ``(key, pid)`` tuples and the numpy ``heapq`` oracle.

Every backend implements the *same* greedy scan: CAS keys are unique
schedule positions, so pop order — and therefore every output array —
is deterministic and bit-identical across backends.  Equivalence is
enforced in ``tests/sim/test_kernels.py`` with the numpy backend as
oracle.

Selection goes through :func:`get_kernel`:

* ``"auto"`` — fastest available backend (numba, then cc, then numpy).
* ``"compiled"`` — require a compiled backend; warn once and fall back
  to numpy when none can be built.
* ``"numpy"`` / ``"numba"`` / ``"cc"`` — that backend exactly (:class:`KernelUnavailable` when it cannot be
  provided).

The full resolvers (:func:`resolve_flat`, :func:`resolve_heap`) also
live here — they are shared verbatim by the per-replicate path and the
fused multi-replicate path, which calls their stacked variants
(:func:`resolve_flat_stacked`, :func:`resolve_heap_stacked`) on
concatenated schedules (see ``EnsembleSimulator``).
"""

from __future__ import annotations

import ctypes
import hashlib
import heapq
import os
import shutil
import subprocess
import tempfile
import warnings
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "KernelUnavailable",
    "NumpyKernel",
    "CcKernel",
    "NumbaKernel",
    "KERNEL_NAMES",
    "get_kernel",
    "available_backends",
    "kernel_diagnostics",
    "resolve_flat",
    "resolve_heap",
    "resolve_flat_stacked",
    "resolve_heap_stacked",
]

KERNEL_NAMES = ("auto", "compiled", "numpy", "numba", "cc")

#: Explicitly selectable backends (everything but the meta names).
_EXPLICIT_BACKENDS = ("numpy", "numba", "cc")

_EMPTY = np.empty(0, dtype=np.int64)


class KernelUnavailable(RuntimeError):
    """Raised when an explicitly requested backend cannot be provided."""


# ---------------------------------------------------------------------------
# numpy (pure-Python) backend — the oracle
# ---------------------------------------------------------------------------


class NumpyKernel:
    """Reference implementation of the two sequential loops.

    ``chain_walk`` follows successor pointers through a Python list (a
    ``tolist`` round-trip beats repeated array indexing at these sizes);
    ``heap_scan`` is the original ``heapq``-driven greedy.  Both are the
    bit-identity oracle for the compiled backends.
    """

    name = "numpy"

    @staticmethod
    def chain_walk(successor: np.ndarray, start: int) -> np.ndarray:
        successor_list = successor.tolist()
        chain: List[int] = []
        append = chain.append
        event = start
        while event != -1:
            append(event)
            event = successor_list[event]
        return np.asarray(chain, dtype=np.intp)

    @staticmethod
    def heap_scan(
        order: np.ndarray, offsets: np.ndarray, n: int, q: int, s: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        order_list = order.tolist()
        bounds = offsets.tolist()
        next_read = [q] * n  # local index of the pending attempt's first read
        seq_list = [0] * n
        heap: List[Tuple[int, int]] = []
        for pid in range(n):
            if bounds[pid] + q + s < bounds[pid + 1]:
                heap.append((order_list[bounds[pid] + q + s], pid))
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop

        last = -1
        succ_cols: List[int] = []
        succ_pids: List[int] = []
        succ_seqs: List[int] = []
        while heap:
            cas_col, pid = pop(heap)
            base = bounds[pid]
            read_local = next_read[pid]
            sequence = seq_list[pid]
            seq_list[pid] = sequence + 1
            if order_list[base + read_local] > last:
                last = cas_col
                succ_cols.append(cas_col)
                succ_pids.append(pid)
                succ_seqs.append(sequence)
                advanced = read_local + s + 1 + q  # completion: fresh preamble
            else:
                advanced = read_local + s + 1  # failed CAS: rescan immediately
            next_read[pid] = advanced
            if base + advanced + s < bounds[pid + 1]:
                push(heap, (order_list[base + advanced + s], pid))
        return (
            np.asarray(succ_cols, dtype=np.int64),
            np.asarray(succ_pids, dtype=np.int64),
            np.asarray(succ_seqs, dtype=np.int64),
            np.asarray(seq_list, dtype=np.int64),
            np.asarray(next_read, dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# cc backend — build a tiny C library with the system compiler at first use
# ---------------------------------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>

/* Follow successor pointers from `start`; -1 terminates.  Returns the
 * number of events written to `out` (caller sizes it to len(successor)). */
int64_t repro_chain_walk(const int64_t *successor, int64_t start,
                         int64_t *out) {
    int64_t count = 0;
    int64_t event = start;
    while (event != -1) {
        out[count++] = event;
        event = successor[event];
    }
    return count;
}

/* Array binary min-heap over packed (key << shift) | pid entries — one
 * contiguous int64 array instead of parallel key/pid arrays, so the
 * sift touches a single cache stream.  Keys are unique schedule
 * positions, so packed comparisons order exactly like (key, pid) and
 * pop order matches any other correct heap (Python's heapq included).
 * The child select is branchless: the buffer is sized size + 1, so
 * heap[child + 1] is always a readable (if logically dead) slot and
 * the comparison folds into an unpredictable-branch-free index bump. */
static void sift_down(int64_t *heap, int64_t size, int64_t pos) {
    int64_t item = heap[pos];
    for (;;) {
        int64_t child = 2 * pos + 1;
        if (child >= size)
            break;
        child += (int64_t)((child + 1 < size) & (heap[child + 1] < heap[child]));
        if (heap[child] >= item)
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

/* Heap-driven greedy CAS resolution; mirrors the heapq reference loop
 * exactly (success iff the pending read position exceeds the last
 * success; a success costs q extra preamble steps).  `shift` is the
 * pid bit width of the packed heap entries.  Returns the number of
 * successes written. */
int64_t repro_heap_scan(const int64_t *order, const int64_t *offsets,
                        int64_t n, int64_t q, int64_t s, int64_t shift,
                        int64_t *succ_cols, int64_t *succ_pids,
                        int64_t *succ_seqs, int64_t *seq, int64_t *next_read,
                        int64_t *heap) {
    const int64_t mask = ((int64_t)1 << shift) - 1;
    int64_t size = 0;
    for (int64_t pid = 0; pid < n; pid++) {
        seq[pid] = 0;
        next_read[pid] = q;
        if (offsets[pid] + q + s < offsets[pid + 1]) {
            heap[size] = (order[offsets[pid] + q + s] << shift) | pid;
            size++;
        }
    }
    for (int64_t i = size / 2 - 1; i >= 0; i--)
        sift_down(heap, size, i);

    int64_t last = -1;
    int64_t wins = 0;
    while (size > 0) {
        int64_t cas_col = heap[0] >> shift;
        int64_t pid = heap[0] & mask;
        int64_t base = offsets[pid];
        int64_t read_local = next_read[pid];
        int64_t sequence = seq[pid];
        seq[pid] = sequence + 1;
        int64_t advanced;
        if (order[base + read_local] > last) {
            last = cas_col;
            succ_cols[wins] = cas_col;
            succ_pids[wins] = pid;
            succ_seqs[wins] = sequence;
            wins++;
            advanced = read_local + s + 1 + q;
        } else {
            advanced = read_local + s + 1;
        }
        next_read[pid] = advanced;
        if (base + advanced + s < offsets[pid + 1]) {
            /* pop + push fused: replace the root, sift down */
            heap[0] = (order[base + advanced + s] << shift) | pid;
            sift_down(heap, size, 0);
        } else {
            size--;
            if (size > 0) {
                heap[0] = heap[size];
                sift_down(heap, size, 0);
            }
        }
    }
    return wins;
}
"""

_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")


def _kernel_cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return configured
    home = os.path.expanduser("~")
    if home and home != "~":
        return os.path.join(home, ".cache", "repro-kernels")
    return os.path.join(tempfile.gettempdir(), "repro-kernels")


def _build_cc_library() -> ctypes.CDLL:
    """Compile (or reuse) the C kernels and load them via ctypes.

    The shared object is cached keyed by a hash of the source, so the
    compiler runs at most once per source revision per machine; the
    build is crash-safe (compile to a temp name, ``os.replace`` into
    place) so concurrent workers never load a torn file.
    """
    compiler = (
        os.environ.get("REPRO_CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if compiler is None:
        raise KernelUnavailable("no C compiler found (cc/gcc/clang)")
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = _kernel_cache_dir()
    so_path = os.path.join(cache_dir, f"resolve_{digest}.so")
    if not os.path.exists(so_path):
        os.makedirs(cache_dir, exist_ok=True)
        tag = f".{os.getpid()}.tmp"
        c_path = so_path + tag + ".c"
        tmp_so = so_path + tag
        try:
            with open(c_path, "w") as handle:
                handle.write(_C_SOURCE)
            result = subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", "-o", tmp_so, c_path],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if result.returncode != 0:
                raise KernelUnavailable(
                    f"C kernel build failed ({compiler}): "
                    f"{result.stderr.strip()[:500]}"
                )
            os.replace(tmp_so, so_path)
        except (OSError, subprocess.SubprocessError) as error:
            raise KernelUnavailable(f"C kernel build failed: {error}") from None
        finally:
            for leftover in (c_path, tmp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
    try:
        library = ctypes.CDLL(so_path)
    except OSError as error:
        raise KernelUnavailable(f"cannot load {so_path}: {error}") from None
    library.repro_chain_walk.argtypes = [_I64, ctypes.c_int64, _I64]
    library.repro_chain_walk.restype = ctypes.c_int64
    library.repro_heap_scan.argtypes = [
        _I64,
        _I64,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int64,
        _I64,
        _I64,
        _I64,
        _I64,
        _I64,
        _I64,
    ]
    library.repro_heap_scan.restype = ctypes.c_int64
    return library


def _pid_shift(n_pids: int, max_key: int) -> int:
    """Bit width reserved for the pid in a packed ``(key << shift) | pid``
    heap entry, validated against int64 overflow.

    Keys are schedule columns, so ``max_key`` is the stacked schedule
    length; overflow would need ``steps * pids`` beyond ``2**62`` —
    unreachable for any storable schedule, but checked loudly anyway.
    """
    shift = max(1, (n_pids - 1).bit_length()) if n_pids > 1 else 1
    if max_key > 0 and max_key.bit_length() + shift > 62:
        raise ValueError(
            f"schedule of {max_key} steps over {n_pids} processes cannot "
            "pack into int64 heap entries"
        )
    return shift


class _CompiledKernelBase:
    """Shared buffer management for compiled backends.

    Subclasses provide ``_chain_walk_impl`` / ``_heap_scan_impl`` with
    the fill-the-caller's-buffers signature; this base allocates exactly
    sized outputs.  Success counts are bounded a priori: every success
    consumes ``q + s + 1`` local steps of its process, so a schedule of
    ``T`` steps over ``n`` processes yields at most ``T // (q + s + 1) + n``
    successes.
    """

    name = "compiled"

    def chain_walk(self, successor: np.ndarray, start: int) -> np.ndarray:
        successor = np.ascontiguousarray(successor, dtype=np.int64)
        out = np.empty(successor.shape[0], dtype=np.int64)
        count = self._chain_walk_impl(successor, start, out)
        return out[: int(count)]

    def heap_scan(
        self, order: np.ndarray, offsets: np.ndarray, n: int, q: int, s: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        order = np.ascontiguousarray(order, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        cap = order.shape[0] // (q + s + 1) + n + 1
        succ_cols = np.empty(cap, dtype=np.int64)
        succ_pids = np.empty(cap, dtype=np.int64)
        succ_seqs = np.empty(cap, dtype=np.int64)
        seq = np.empty(n, dtype=np.int64)
        next_read = np.empty(n, dtype=np.int64)
        # One packed entry per pid, plus a readable slot past the end for
        # the branchless child select.
        heap = np.empty(n + 1, dtype=np.int64)
        shift = _pid_shift(n, int(order.shape[0]))
        wins = int(
            self._heap_scan_impl(
                order,
                offsets,
                n,
                q,
                s,
                shift,
                succ_cols,
                succ_pids,
                succ_seqs,
                seq,
                next_read,
                heap,
            )
        )
        return (
            succ_cols[:wins].copy(),
            succ_pids[:wins].copy(),
            succ_seqs[:wins].copy(),
            seq,
            next_read,
        )


class CcKernel(_CompiledKernelBase):
    """C implementations built with the system compiler, via ctypes."""

    name = "cc"

    def __init__(self, library: Optional[ctypes.CDLL] = None) -> None:
        self._library = library if library is not None else _build_cc_library()

    def _chain_walk_impl(
        self, successor: np.ndarray, start: int, out: np.ndarray
    ) -> int:
        return self._library.repro_chain_walk(successor, start, out)

    def _heap_scan_impl(self, *args: Any) -> int:
        return self._library.repro_heap_scan(*args)


def _build_numba_impls() -> Tuple[Any, Any]:
    import numba  # noqa: F401 — optional dependency

    @numba.njit(cache=False)
    def chain_walk(successor, start, out):  # pragma: no cover — needs numba
        count = 0
        event = start
        while event != -1:
            out[count] = event
            count += 1
            event = successor[event]
        return count

    @numba.njit(cache=False)
    def heap_scan(
        order,
        offsets,
        n,
        q,
        s,
        shift,
        succ_cols,
        succ_pids,
        succ_seqs,
        seq,
        next_read,
        heap,
    ):  # pragma: no cover — needs numba
        # Packed (key << shift) | pid heap with a branchless child
        # select — mirrors the C implementation entry for entry.  The
        # heap buffer holds n + 1 slots, so heap[child + 1] is always a
        # readable (if logically dead) slot.
        mask = (np.int64(1) << shift) - 1
        size = 0
        for pid in range(n):
            seq[pid] = 0
            next_read[pid] = q
            if offsets[pid] + q + s < offsets[pid + 1]:
                heap[size] = (order[offsets[pid] + q + s] << shift) | pid
                size += 1
        for root in range(size // 2 - 1, -1, -1):
            pos = root
            item = heap[pos]
            while True:
                child = 2 * pos + 1
                if child >= size:
                    break
                child += 1 * ((child + 1 < size) & (heap[child + 1] < heap[child]))
                if heap[child] >= item:
                    break
                heap[pos] = heap[child]
                pos = child
            heap[pos] = item

        last = np.int64(-1)
        wins = 0
        while size > 0:
            cas_col = heap[0] >> shift
            pid = heap[0] & mask
            base = offsets[pid]
            read_local = next_read[pid]
            sequence = seq[pid]
            seq[pid] = sequence + 1
            if order[base + read_local] > last:
                last = cas_col
                succ_cols[wins] = cas_col
                succ_pids[wins] = pid
                succ_seqs[wins] = sequence
                wins += 1
                advanced = read_local + s + 1 + q
            else:
                advanced = read_local + s + 1
            next_read[pid] = advanced
            if base + advanced + s < offsets[pid + 1]:
                heap[0] = (order[base + advanced + s] << shift) | pid
            else:
                size -= 1
                if size > 0:
                    heap[0] = heap[size]
                else:
                    continue
            pos = 0
            item = heap[0]
            while True:
                child = 2 * pos + 1
                if child >= size:
                    break
                child += 1 * ((child + 1 < size) & (heap[child + 1] < heap[child]))
                if heap[child] >= item:
                    break
                heap[pos] = heap[child]
                pos = child
            heap[pos] = item
        return wins

    return chain_walk, heap_scan


class NumbaKernel(_CompiledKernelBase):
    """``@njit`` implementations; importable only when numba is present."""

    name = "numba"

    def __init__(self) -> None:
        try:
            chain_walk, heap_scan = _build_numba_impls()
        except ImportError:
            raise KernelUnavailable("numba is not installed") from None
        self._chain_walk_jit = chain_walk
        self._heap_scan_jit = heap_scan

    def _chain_walk_impl(
        self, successor: np.ndarray, start: int, out: np.ndarray
    ) -> int:
        return self._chain_walk_jit(successor, start, out)

    def _heap_scan_impl(self, *args: Any) -> int:
        return self._heap_scan_jit(*args)


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

_KERNELS: Dict[str, Any] = {}
_FAILURES: Dict[str, str] = {}
_WARNED_FALLBACK = False


def _try_backend(name: str) -> Optional[Any]:
    if name in _KERNELS:
        return _KERNELS[name]
    if name in _FAILURES:
        return None
    try:
        if name == "numpy":
            kernel: Any = NumpyKernel()
        elif name == "cc":
            kernel = CcKernel()
        elif name == "numba":
            kernel = NumbaKernel()
        else:  # pragma: no cover — guarded by get_kernel
            raise ValueError(f"unknown backend {name!r}")
    except KernelUnavailable as error:
        _FAILURES[name] = str(error)
        return None
    _KERNELS[name] = kernel
    return kernel


def get_kernel(name: str = "auto") -> Any:
    """Return a resolution kernel for ``name`` (see module docstring).

    ``"auto"`` silently picks the fastest available backend;
    ``"compiled"`` warns (once) and falls back to numpy when no compiled
    backend can be provided; explicit names raise
    :class:`KernelUnavailable` with the recorded reason.
    """
    global _WARNED_FALLBACK
    if name not in KERNEL_NAMES:
        raise ValueError(
            f"unknown engine kernel {name!r}; expected one of {KERNEL_NAMES}"
        )
    if name in _EXPLICIT_BACKENDS:
        kernel = _try_backend(name)
        if kernel is None:
            raise KernelUnavailable(
                f"kernel backend {name!r} unavailable: {_FAILURES[name]}"
            )
        return kernel
    for candidate in ("numba", "cc"):
        kernel = _try_backend(candidate)
        if kernel is not None:
            return kernel
    if name == "compiled" and not _WARNED_FALLBACK:
        _WARNED_FALLBACK = True
        reasons = "; ".join(
            f"{key}: {_FAILURES[key]}" for key in ("numba", "cc") if key in _FAILURES
        )
        warnings.warn(
            "engine_kernel='compiled' requested but no compiled backend is "
            f"available ({reasons}); falling back to the numpy kernel",
            RuntimeWarning,
            stacklevel=2,
        )
    return _try_backend("numpy")


def available_backends() -> Tuple[str, ...]:
    """Names of backends that can actually be provided on this machine."""
    return tuple(
        name
        for name in _EXPLICIT_BACKENDS
        if _try_backend(name) is not None
    )


def kernel_diagnostics() -> Dict[str, str]:
    """Per-backend availability map (``"available"`` or the failure)."""
    report = {}
    for name in _EXPLICIT_BACKENDS:
        report[name] = (
            "available" if _try_backend(name) is not None else _FAILURES[name]
        )
    return report


# ---------------------------------------------------------------------------
# resolvers (shared by the per-replicate and fused ensemble paths)
# ---------------------------------------------------------------------------


def _flat_prep(sched: np.ndarray, n: int, s: int):
    """Vectorized preparation for the ``q == 0`` resolver.

    Returns ``(seq, phase, counts, pairs)`` where ``pairs`` is ``None``
    when the schedule admits no attempts, else ``(c_r, pid_r, seq_r,
    successor, suffix_argmin)`` — the attempt tables in read order and
    the successor pointers.  The temporaries die when this returns,
    before the chain walk runs.
    """
    steps = sched.shape[0]
    counts = np.bincount(sched, minlength=n)
    attempts = counts // (s + 1)
    total = int(attempts.sum())
    seq = attempts.astype(np.int64)
    phase = (counts - attempts * (s + 1)).astype(np.int64)
    if total == 0:
        return seq, phase, counts, None
    # Index dtypes: times/positions fit int32 for any practical run; the
    # grouping key uses the narrowest dtype numpy's radix sort is fastest on.
    idx = np.int32 if steps < 2**31 - 2 else np.int64
    key_dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
    order = np.argsort(sched.astype(key_dtype), kind="stable").astype(idx)

    offsets = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(idx)
    aoff = np.concatenate(([0], np.cumsum(attempts[:-1]))).astype(idx)
    pid_of = np.repeat(np.arange(n, dtype=idx), attempts)
    within = np.arange(total, dtype=idx) - np.repeat(aoff, attempts)
    cas_rank = offsets[pid_of] + s + (s + 1) * within
    c_times = order[cas_rank]
    r_times = order[cas_rank - s]

    # Counting sort of the attempts by read time (times are unique column
    # indices): one scatter + cumsum instead of a comparison sort.  The
    # same cumsum answers "how many reads happened at or before column t",
    # which is exactly the successor-pointer index below.
    mark = np.zeros(steps, idx)
    mark[r_times] = 1
    reads_before = np.cumsum(mark, dtype=idx)
    rpos = reads_before[r_times] - 1  # each attempt's rank in read order
    c_r = np.empty(total, idx)
    c_r[rpos] = c_times
    pid_r = np.empty(total, idx)
    pid_r[rpos] = pid_of
    seq_r = np.empty(total, idx)
    seq_r[rpos] = within
    succ_at = np.empty(total, idx)
    succ_at[rpos] = reads_before[c_times]  # first read rank strictly after c

    # Suffix argmin of CAS times in read order: position of the earliest
    # CAS among attempts whose read is at or after a given read rank.
    suffix_min = np.minimum.accumulate(c_r[::-1])[::-1]
    candidate = np.where(c_r == suffix_min, np.arange(total, dtype=idx), total)
    suffix_argmin = np.minimum.accumulate(candidate[::-1])[::-1]
    successor = np.concatenate((suffix_argmin, np.asarray([-1], idx)))[succ_at]
    return seq, phase, counts, (c_r, pid_r, seq_r, successor, suffix_argmin)


def resolve_flat(
    sched: np.ndarray, n: int, s: int, kernel: Optional[Any] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve a ``q == 0`` schedule, fully vectorized.

    With no preamble, process ``p``'s ``k``-th attempt always occupies its
    local steps ``[k(s+1), k(s+1)+s]`` — read first, CAS last — so every
    (read time, CAS time) pair is a gather from the schedule grouped by
    pid.  The greedy success scan then reduces to following a precomputed
    successor pointer (the only sequential part — delegated to
    ``kernel.chain_walk``).

    Returns ``(success_cols, success_pids, success_seqs, seq, phase,
    counts)`` where columns are 0-based schedule positions, ``seq[p]`` is
    the number of CAS attempts process ``p`` executed, ``phase[p]`` in
    ``[0, s]`` is its position within the current attempt and ``counts[p]``
    its local step count.  The same function resolves a *fused* stack of
    replicates: concatenating schedules in time with per-replicate pid
    offsets makes the successor chain cross replicate boundaries exactly
    at each replicate's first success (reads in later replicates are
    strictly after every earlier CAS), so the output is the per-replicate
    outputs concatenated.
    """
    if kernel is None:
        kernel = NumpyKernel()
    seq, phase, counts, pairs = _flat_prep(sched, n, s)
    if pairs is None:
        return _EMPTY, _EMPTY, _EMPTY, seq, phase, counts
    c_r, pid_r, seq_r, successor, suffix_argmin = pairs

    # The first success is the earliest CAS overall; after a success at
    # time L, the next is the earliest CAS among attempts that read after
    # L.  Walking the successor pointers visits exactly the successes.
    events = kernel.chain_walk(successor, int(suffix_argmin[0]))
    return (
        c_r[events].astype(np.int64),
        pid_r[events].astype(np.int64),
        seq_r[events].astype(np.int64),
        seq,
        phase,
        counts,
    )


def resolve_flat_stacked(
    sched: np.ndarray,
    pid_base: np.ndarray,
    s: int,
    kernel: Optional[Any] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`resolve_flat` on a fused replicate stack.

    ``pid_base`` is the ``(R + 1,)`` per-replicate pid offset table the
    fused path builds (replicate ``k`` owns pids ``[pid_base[k],
    pid_base[k + 1])``); the stack is resolved as one schedule over
    ``pid_base[-1]`` processes — the global successor chain is exactly
    the per-replicate chains concatenated.
    """
    return resolve_flat(sched, int(pid_base[-1]), s, kernel)


def resolve_heap(
    sched: np.ndarray, n: int, q: int, s: int, kernel: Optional[Any] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve a general ``SCU(q, s)`` schedule with a heap-driven scan.

    Every call starts with ``q`` preamble steps, so a success shifts the
    process's subsequent event times — attempts must be scheduled lazily.
    The heap holds one pending CAS event per process, popped in time
    order (delegated to ``kernel.heap_scan``); the greedy success
    condition is identical to the ``q == 0`` path.  Return contract
    matches :func:`resolve_flat` (``phase`` in ``[0, q + s]``).  Fused
    stacks resolve correctly for the same reason as the flat path: CAS
    keys are globally ordered replicate-major, so the pop sequence is the
    per-replicate pop sequences concatenated.
    """
    if kernel is None:
        kernel = NumpyKernel()
    counts = np.bincount(sched, minlength=n)
    key_dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
    order = np.argsort(sched.astype(key_dtype), kind="stable")
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))

    succ_cols, succ_pids, succ_seqs, seq, next_read = kernel.heap_scan(
        order, offsets, n, q, s
    )
    phase = q + counts - next_read
    return (succ_cols, succ_pids, succ_seqs, seq, phase, counts)


def resolve_heap_stacked(
    sched: np.ndarray,
    pid_base: np.ndarray,
    q: int,
    s: int,
    kernel: Optional[Any] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`resolve_heap` on a fused replicate stack.

    ``pid_base`` is the ``(R + 1,)`` per-replicate pid offset table; the
    stack is resolved as one schedule over ``pid_base[-1]`` processes —
    replicates are time-partitioned, so the global pop sequence is the
    per-replicate pop sequences concatenated.
    """
    return resolve_heap(sched, int(pid_base[-1]), q, s, kernel)
