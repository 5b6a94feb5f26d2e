"""Pluggable CAS-resolution kernels for the ensemble engine.

The ensemble engine (:mod:`repro.sim.ensemble`) draws a replicate's
whole schedule up front; what remains is deciding which CAS steps
succeed.  Once the schedule is fixed the greedy has a simple rule: a
CAS succeeds iff its process's pending read came after the last
successful CAS, and a success makes the process take ``q`` preamble
steps before its next read.  This module resolves schedules under that
rule behind a small kernel interface (``resolve_flat`` /
``resolve_heap`` methods), with three backends:

``numpy``
    Pure numpy and Python, always available, and the bit-identity
    *oracle*.  It keeps two algorithms that share nothing with the
    compiled scan: for ``q == 0`` vectorized passes precompute every
    (read, CAS) pair and a successor pointer per attempt, and a list
    walk follows the chain of successes; for ``q > 0`` a ``heapq`` scan
    pops each process's pending CAS in time order and lazily schedules
    its next attempt.
``cc``
    A tiny C library compiled on first use with the system C compiler
    (``cc``/``gcc``) and loaded through :mod:`ctypes`.  No third-party
    packages required; the shared object is cached on disk keyed by a
    hash of the C source.
``numba``
    ``@njit``-compiled version of the same pass, used when numba is
    importable (it is an optional dependency — CI has a dedicated job
    for it).

Both compiled backends run **one time-ordered scan** over the schedule
for every ``SCU(q, s)`` shape, ``q == 0`` included.  It keeps one
interleaved 32-byte record per process — local step count, next read
index, pending read time and CAS attempts, an ``(n, 4)`` ``int64``
array, so a step touches one cache line — and decides each CAS the
moment it is reached, so there is no sort, no successor table and no
heap.  The scan is branchless: the read, CAS and win tests become
all-ones/zero masks, and every step writes its candidate success at the
next free slot, which the win count then keeps or leaves to be
overwritten.  Only the out-of-range pid check branches.

Every backend produces the same arrays, dtypes included: CAS columns
are unique schedule positions, so the successes come out in one
deterministic order.  Equivalence is enforced in
``tests/sim/test_kernels.py`` and ``tests/property/test_kernel_properties.py``
with the numpy backend as oracle.  Misuse fails loudly on every
backend: a schedule pid outside ``[0, n)`` raises :class:`ValueError`
naming the pid and its position (the compiled scan stops at that step
and writes nothing out of bounds).

Selection goes through :func:`get_kernel`:

* ``"auto"`` — fastest available backend (numba, then cc, then numpy).
* ``"numpy"`` / ``"numba"`` / ``"cc"`` — that backend exactly
  (:class:`KernelUnavailable` when it cannot be provided).

The full resolvers (:func:`resolve_flat`, :func:`resolve_heap`) also
live here.  ``EnsembleSimulator`` calls them on stacks of concatenated
replicate schedules over ``pid_base[-1]`` processes;
:func:`resolve_flat_stacked` and :func:`resolve_heap_stacked` are the
same call spelled with the pid offset table.

Buffer ownership: every resolver returns the three success rows
(columns, pids, attempt numbers) as int64 arrays of the same length.
Without ``out=`` (taken by :func:`resolve_flat`, :func:`resolve_heap`
and the backends' methods) the resolver allocates them; with ``out=`` — a
``(3, m)`` int64 array, rows contiguous, ``m >= success_capacity(steps,
q, s)`` — they are views of ``out[:, :wins]``, so the caller owns the
memory and the returned rows stay valid until the caller writes ``out``
again.  The compiled scan writes straight into those rows; the numpy
oracle copies its successes into them.  The per-process ``seq``,
``phase`` and ``counts`` are always fresh arrays.
"""

from __future__ import annotations

import ctypes
import hashlib
import heapq
import os
import shutil
import subprocess
import tempfile
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
    "success_capacity",
    "resolve_flat_stacked",
    "resolve_heap_stacked",
]

KERNEL_NAMES = ("auto", "numpy", "numba", "cc")

#: Explicitly selectable backends (everything but ``"auto"``).
_EXPLICIT_BACKENDS = ("numpy", "numba", "cc")

_EMPTY = np.empty(0, dtype=np.int64)

Resolution = Tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
]


class KernelUnavailable(RuntimeError):
    """Raised when an explicitly requested backend cannot be provided."""


def _bad_pid(sched: np.ndarray, n: int, position: int) -> ValueError:
    return ValueError(
        f"schedule pid {int(sched[position])} at position {position} is "
        f"outside [0, {n})"
    )


def success_capacity(steps: int, q: int, s: int) -> int:
    """Columns an ``out=`` success buffer needs for a ``steps``-long
    schedule of ``SCU(q, s)``.

    Every success consumes ``q + s + 1`` local steps of its process, so
    a schedule of ``T`` steps yields at most ``T // (q + s + 1)``
    successes; the compiled scan needs one more slot, where its
    unconditional candidate write lands after the last success.
    """
    return steps // (q + s + 1) + 1


def _success_rows(
    out: Optional[np.ndarray], steps: int, q: int, s: int
) -> np.ndarray:
    """The ``(3, m)`` success buffer: ``out`` once checked, else fresh."""
    capacity = success_capacity(steps, q, s)
    if out is None:
        return np.empty((3, capacity), dtype=np.int64)
    if (
        not isinstance(out, np.ndarray)
        or out.dtype != np.int64
        or out.ndim != 2
        or out.shape[0] != 3
        or out.shape[1] < capacity
        or out.strides[1] != out.itemsize
    ):
        raise ValueError(
            f"out must be a (3, >= {capacity}) int64 array with contiguous "
            f"rows for {steps} steps of SCU({q}, {s}), got "
            f"{getattr(out, 'shape', None)} {getattr(out, 'dtype', type(out))}"
        )
    return out


def _deliver(out: Optional[np.ndarray], *rows: Any) -> Tuple[np.ndarray, ...]:
    """The numpy oracle's success rows as int64: copied into the first
    columns of ``out`` (already checked) and returned as its views, or
    fresh arrays without it."""
    if out is None:
        return tuple(np.asarray(row, dtype=np.int64) for row in rows)
    view = out[:, : len(rows[0])]
    for target, row in zip(view, rows):
        target[...] = row
    return tuple(view)


# ---------------------------------------------------------------------------
# numpy (pure-Python) backend — the oracle
# ---------------------------------------------------------------------------


class NumpyKernel:
    """Reference resolvers, the bit-identity oracle for compiled backends.

    ``resolve_flat`` is the vectorized ``q == 0`` path (:func:`_flat_prep`
    plus ``chain_walk``, which follows successor pointers through a
    Python list — a ``tolist`` round-trip beats repeated array indexing
    at these sizes); ``resolve_heap`` is the original ``heapq``-driven
    greedy (``heap_scan``).
    """

    name = "numpy"

    @staticmethod
    def _check_pids(sched: np.ndarray, n: int) -> None:
        if sched.shape[0] and (sched.min() < 0 or sched.max() >= n):
            position = int(np.flatnonzero((sched < 0) | (sched >= n))[0])
            raise _bad_pid(sched, n, position)

    def resolve_flat(
        self,
        sched: np.ndarray,
        n: int,
        s: int,
        out: Optional[np.ndarray] = None,
    ) -> Resolution:
        """The vectorized ``q == 0`` resolver (see :func:`resolve_flat`)."""
        if out is not None:
            _success_rows(out, int(sched.shape[0]), 0, s)
        self._check_pids(sched, n)
        seq, phase, counts, pairs = _flat_prep(sched, n, s)
        if pairs is None:
            return (*_deliver(out, _EMPTY, _EMPTY, _EMPTY), seq, phase, counts)
        c_r, pid_r, seq_r, successor, suffix_argmin = pairs

        # The first success is the earliest CAS overall; after a success at
        # time L, the next is the earliest CAS among attempts that read after
        # L.  Walking the successor pointers visits exactly the successes.
        events = self.chain_walk(successor, int(suffix_argmin[0]))
        return (
            *_deliver(out, c_r[events], pid_r[events], seq_r[events]),
            seq,
            phase,
            counts,
        )

    def resolve_heap(
        self,
        sched: np.ndarray,
        n: int,
        q: int,
        s: int,
        out: Optional[np.ndarray] = None,
    ) -> Resolution:
        """The ``heapq`` resolver, any ``SCU(q, s)`` (see :func:`resolve_heap`)."""
        if out is not None:
            _success_rows(out, int(sched.shape[0]), q, s)
        self._check_pids(sched, n)
        counts = np.bincount(sched, minlength=n)
        key_dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
        order = np.argsort(sched.astype(key_dtype), kind="stable")
        offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))

        succ_cols, succ_pids, succ_seqs, seq, next_read = self.heap_scan(
            order, offsets, n, q, s
        )
        phase = q + counts - next_read
        return (
            *_deliver(out, succ_cols, succ_pids, succ_seqs),
            seq,
            phase,
            counts,
        )

    @staticmethod
    def chain_walk(successor: np.ndarray, start: int) -> np.ndarray:
        """Follow successor pointers from ``start`` until ``-1``."""
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
        """Pop each process's pending CAS in time order; schedule its next."""
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
# compiled backends — one time-ordered scan
# ---------------------------------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>

/* Resolve an SCU(q, s) schedule in one pass in time order.  Process p's
 * pending attempt reads at local step next_read[p] and CASes s local
 * steps later; the CAS succeeds iff that read came after the last
 * successful CAS, and a success makes p take q preamble steps before
 * its next read.  `state` is n interleaved 32-byte records, one per
 * process: local step count, next read index, pending read time, CAS
 * attempts.  The scan is branchless: each step's read, CAS and win are
 * all-ones/zero masks, and the step's candidate success is written at
 * index `wins` unconditionally, then kept by adding the win to `wins`
 * (the caller sizes the buffers one past the most successes possible).
 * Returns the number of successes, or -1 - t when sched[t] is not a pid
 * in [0, n); nothing is written out of bounds either way. */
int64_t repro_scu_scan(const int64_t *sched, int64_t steps, int64_t n,
                       int64_t q, int64_t s, int64_t *state,
                       int64_t *succ_cols, int64_t *succ_pids,
                       int64_t *succ_seqs) {
    for (int64_t p = 0; p < n; p++) {
        int64_t *st = state + 4 * p;
        st[0] = 0;
        st[1] = q;
        st[2] = -1;
        st[3] = 0;
    }
    int64_t last = -1;
    int64_t wins = 0;
    for (int64_t t = 0; t < steps; t++) {
        int64_t p = sched[t];
        if ((uint64_t)p >= (uint64_t)n)
            return -1 - t;
        int64_t *st = state + 4 * p;
        int64_t local = st[0]++;
        int64_t read = st[1];
        int64_t is_read = -(int64_t)(local == read);
        int64_t read_time = st[2] ^ ((st[2] ^ t) & is_read);
        st[2] = read_time;
        int64_t is_cas = -(int64_t)(local == read + s);
        int64_t attempt = st[3];
        st[3] = attempt - is_cas;
        int64_t win = is_cas & -(int64_t)(read_time > last);
        last ^= (last ^ t) & win;
        succ_cols[wins] = t;
        succ_pids[wins] = p;
        succ_seqs[wins] = attempt;
        wins -= win;
        st[1] = read + ((s + 1) & is_cas) + (q & win);
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
    library.repro_scu_scan.argtypes = [_I64] + [ctypes.c_int64] * 4 + [_I64] * 4
    library.repro_scu_scan.restype = ctypes.c_int64
    return library


class _CompiledKernelBase:
    """Buffer management around the compiled scan.

    Subclasses provide ``_scan_impl`` with the C signature of
    ``repro_scu_scan``; this base serves both resolvers from it
    (``q == 0`` is just the scan with no preamble).  The scan writes its
    successes into ``out`` when given, else into a buffer of
    :func:`success_capacity` columns allocated here.
    """

    def resolve_flat(
        self,
        sched: np.ndarray,
        n: int,
        s: int,
        out: Optional[np.ndarray] = None,
    ) -> Resolution:
        return self.resolve_heap(sched, n, 0, s, out)

    def resolve_heap(
        self,
        sched: np.ndarray,
        n: int,
        q: int,
        s: int,
        out: Optional[np.ndarray] = None,
    ) -> Resolution:
        if q < 0 or s < 0:
            raise ValueError(f"the scan needs q >= 0 and s >= 0, got q={q}, s={s}")
        sched = np.ascontiguousarray(sched, dtype=np.int64)
        steps = int(sched.shape[0])
        succ = _success_rows(out, steps, q, s)
        state = np.empty((n, 4), dtype=np.int64)
        wins = int(self._scan_impl(sched, steps, n, q, s, state, *succ))
        if wins < 0:
            raise _bad_pid(sched, n, -1 - wins)
        # Views, not copies: a copy would be one more pass over every
        # success, and the scan never touches a row's unused tail.
        succ_cols, succ_pids, succ_seqs = succ[:, :wins]
        counts, next_read, _, seq = state.T.copy()
        return succ_cols, succ_pids, succ_seqs, seq, q + counts - next_read, counts


class CcKernel(_CompiledKernelBase):
    """The scan in C, built with the system compiler, via ctypes."""

    name = "cc"

    def __init__(self, library: Optional[ctypes.CDLL] = None) -> None:
        self._library = library if library is not None else _build_cc_library()
        self._scan_impl = self._library.repro_scu_scan


def _build_numba_scan() -> Any:
    import numba  # noqa: F401 — optional dependency

    @numba.njit(cache=False)
    def scan(
        sched, steps, n, q, s, state, succ_cols, succ_pids, succ_seqs
    ):  # pragma: no cover — needs numba
        # Mirrors repro_scu_scan in the C source line for line; state is
        # the same (n, 4) interleaved record array.
        for p in range(n):
            state[p, 0] = 0
            state[p, 1] = q
            state[p, 2] = -1
            state[p, 3] = 0
        last = -1
        wins = 0
        for t in range(steps):
            p = sched[t]
            if p < 0 or p >= n:
                return -1 - t
            local = state[p, 0]
            state[p, 0] = local + 1
            read = state[p, 1]
            is_read = -np.int64(local == read)
            read_time = state[p, 2] ^ ((state[p, 2] ^ t) & is_read)
            state[p, 2] = read_time
            is_cas = -np.int64(local == read + s)
            attempt = state[p, 3]
            state[p, 3] = attempt - is_cas
            win = is_cas & -np.int64(read_time > last)
            last ^= (last ^ t) & win
            succ_cols[wins] = t
            succ_pids[wins] = p
            succ_seqs[wins] = attempt
            wins -= win
            state[p, 1] = read + ((s + 1) & is_cas) + (q & win)
        return wins

    return scan


class NumbaKernel(_CompiledKernelBase):
    """The scan under ``@njit``; importable only when numba is present."""

    name = "numba"

    def __init__(self) -> None:
        try:
            self._scan_impl = _build_numba_scan()
        except ImportError:
            raise KernelUnavailable("numba is not installed") from None


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

_KERNELS: Dict[str, Any] = {}
_FAILURES: Dict[str, str] = {}


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

    ``"auto"`` silently picks the fastest available backend, numpy when
    no compiled backend can be provided; explicit names raise
    :class:`KernelUnavailable` with the recorded reason.
    """
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
# resolvers
# ---------------------------------------------------------------------------


def _flat_prep(sched: np.ndarray, n: int, s: int):
    """Vectorized preparation for the numpy ``q == 0`` resolver.

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
    sched: np.ndarray,
    n: int,
    s: int,
    kernel: Optional[Any] = None,
    *,
    out: Optional[np.ndarray] = None,
) -> Resolution:
    """Resolve a ``q == 0`` schedule (``kernel`` defaults to numpy).

    With no preamble, process ``p``'s ``k``-th attempt always occupies its
    local steps ``[k(s+1), k(s+1)+s]`` — read first, CAS last.  The numpy
    backend exploits that: every (read time, CAS time) pair is a gather
    from the schedule grouped by pid, and the greedy reduces to following
    a precomputed successor pointer.  Compiled backends run their one
    time-ordered scan with ``q = 0``.

    Returns ``(success_cols, success_pids, success_seqs, seq, phase,
    counts)`` where columns are 0-based schedule positions, ``seq[p]`` is
    the number of CAS attempts process ``p`` executed, ``phase[p]`` in
    ``[0, s]`` is its position within the current attempt and ``counts[p]``
    its local step count.  The same function resolves a stack of
    replicates: concatenating schedules in time with per-replicate pid
    offsets keeps the greedy per replicate (reads in later replicates are
    strictly after every earlier CAS, so each replicate's first attempt
    sees a fresh register), so the output is the per-replicate outputs
    concatenated.  A pid outside ``[0, n)`` raises :class:`ValueError`.
    With ``out=`` the success rows are views of ``out`` (see the module
    docstring).
    """
    return (NumpyKernel() if kernel is None else kernel).resolve_flat(
        sched, n, s, out
    )


def resolve_flat_stacked(
    sched: np.ndarray,
    pid_base: np.ndarray,
    s: int,
    kernel: Optional[Any] = None,
) -> Resolution:
    """:func:`resolve_flat` on a replicate stack.

    ``pid_base`` is the ``(R + 1,)`` per-replicate pid offset table the
    ensemble engine builds (replicate ``k`` owns pids ``[pid_base[k],
    pid_base[k + 1])``); the stack is resolved as one schedule over
    ``pid_base[-1]`` processes — the global successes are exactly the
    per-replicate successes concatenated.
    """
    return resolve_flat(sched, int(pid_base[-1]), s, kernel)


def resolve_heap(
    sched: np.ndarray,
    n: int,
    q: int,
    s: int,
    kernel: Optional[Any] = None,
    *,
    out: Optional[np.ndarray] = None,
) -> Resolution:
    """Resolve a general ``SCU(q, s)`` schedule (``kernel`` defaults to numpy).

    Every call starts with ``q`` preamble steps, so a success shifts the
    process's subsequent event times — attempts are found as the scan
    reaches them.  The numpy backend keeps one pending CAS event per
    process in a heap, popped in time order; compiled backends run their
    time-ordered scan.  The greedy success condition is identical to the
    ``q == 0`` path.  Return contract matches :func:`resolve_flat`
    (``phase`` in ``[0, q + s]``), and replicate stacks resolve correctly for
    the same reason: replicates are time-partitioned, so the global CAS
    order is the per-replicate orders concatenated.  ``out=`` as in
    :func:`resolve_flat`.
    """
    return (NumpyKernel() if kernel is None else kernel).resolve_heap(
        sched, n, q, s, out
    )


def resolve_heap_stacked(
    sched: np.ndarray,
    pid_base: np.ndarray,
    q: int,
    s: int,
    kernel: Optional[Any] = None,
) -> Resolution:
    """:func:`resolve_heap` on a replicate stack.

    ``pid_base`` is the ``(R + 1,)`` per-replicate pid offset table; the
    stack is resolved as one schedule over ``pid_base[-1]`` processes —
    replicates are time-partitioned, so the global CAS sequence is the
    per-replicate sequences concatenated.
    """
    return resolve_heap(sched, int(pid_base[-1]), q, s, kernel)
