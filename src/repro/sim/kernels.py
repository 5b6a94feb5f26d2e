"""Pluggable CAS-resolution kernels for the ensemble engine.

The ensemble engine (:mod:`repro.sim.ensemble`) draws a replicate's
whole schedule up front; what remains is deciding which CAS steps
succeed.  Once the schedule is fixed the greedy has a simple rule: a
CAS succeeds iff its process's pending read came after the last
successful CAS, and a success makes the process take ``q`` preamble
steps before its next read.  This module resolves schedules under that
rule behind a small kernel interface (``resolve_flat`` /
``resolve_heap`` methods), with two backends:

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

The cc backend runs **one time-ordered scan** over the schedule for
every ``SCU(q, s)`` shape, ``q == 0`` included.  It keeps one
interleaved 32-byte record per process — local step count, next read
index, pending read time and CAS attempts, an ``(n, 4)`` ``int64``
array, so a step touches one cache line — and decides each CAS the
moment it is reached, so there is no sort, no successor table and no
heap.  The scan is branchless: the read, CAS and win tests become
all-ones/zero masks, and every step writes its candidate success at the
next free slot, which the win count then keeps or leaves to be
overwritten.  Only the out-of-range pid check branches.

Both backends produce the same arrays, dtypes included: CAS columns
are unique schedule positions, so the successes come out in one
deterministic order.  Equivalence is enforced in
``tests/sim/test_kernels.py`` and ``tests/property/test_kernel_properties.py``
with the numpy backend as oracle.  Misuse fails loudly on both
backends: a schedule pid outside ``[0, n)`` raises :class:`ValueError`
naming the pid and its position (the compiled scan stops at that step
and writes nothing out of bounds).

Selection goes through :func:`get_kernel`:

* ``"auto"`` — cc when it can be built and loaded, else numpy.
* ``"numpy"`` / ``"cc"`` — that backend exactly
  (:class:`KernelUnavailable` when it cannot be provided).

One process builds at most one :class:`CcKernel`: selection holds a
module lock, and a cold build compiles in a temp directory of its own,
so builders that race (threads or processes) share one cached library.

The full resolvers (:func:`resolve_flat`, :func:`resolve_heap`) also
live here.  ``EnsembleSimulator`` calls them on stacks of concatenated
replicate schedules over ``pid_base[-1]`` processes;
:func:`resolve_flat_stacked` and :func:`resolve_heap_stacked` are the
same call spelled with the pid offset table.

The cc library also draws the schedules the scan resolves.
:func:`uniform_draw` is ``Generator.integers(n, size=size)`` for a
``PCG64`` generator and ``2 <= n < 2**32``: it runs PCG64's 128-bit LCG
step and XSL-RR output inline and applies numpy's Lemire bound to each
32-bit half, two pids per 64-bit word, carrying a left-over half in
``has_uint32``/``uinteger`` exactly as numpy does, so the pids and the
generator's end state are numpy's bit for bit.
:class:`~repro.core.scheduler.UniformStochasticScheduler` draws through
it from a measured crossover size on.  :func:`pcg64_seed_states` is
``np.random.default_rng(seed)`` for ``int`` and tuple-of-``int`` seeds,
a run's replicates at once: SeedSequence's pool mixing and
``generate_state``, then PCG64's seeding, in one C call.  Both entry
points need the compiler's 128-bit integers; without them, or without
the library, numpy draws and seeds as before.  They re-implement
numpy's streams, so ``tests/property/test_scheduler_batch_properties.py``
pins them to numpy itself: a numpy release that changes
``Generator.integers`` or SeedSequence fails there loudly.

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
import itertools
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "KernelUnavailable",
    "NumpyKernel",
    "CcKernel",
    "KERNEL_NAMES",
    "get_kernel",
    "available_backends",
    "kernel_diagnostics",
    "resolve_flat",
    "resolve_heap",
    "success_capacity",
    "resolve_flat_stacked",
    "resolve_heap_stacked",
    "uniform_draw",
    "pcg64_seed_states",
]

KERNEL_NAMES = ("auto", "numpy", "cc")

#: Explicitly selectable backends (everything but ``"auto"``).
_EXPLICIT_BACKENDS = ("numpy", "cc")

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
        or not out.flags.writeable
    ):
        raise ValueError(
            f"out must be a writable (3, >= {capacity}) int64 array with "
            f"contiguous rows for {steps} steps of SCU({q}, {s}), got "
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
    """Reference resolvers, the bit-identity oracle for the cc backend.

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
# cc backend — one time-ordered scan
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

#ifdef __SIZEOF_INT128__
typedef __uint128_t repro_u128;

#define REPRO_U128(hi, lo) (((repro_u128)(hi) << 64) | (repro_u128)(lo))
#define REPRO_PCG_MULT REPRO_U128(0x2360ED051FC65DA4ULL, 0x4385DF649FCCF645ULL)

/* numpy's PCG64: one LCG step of the 128-bit state, then the XSL-RR
 * output of the new state. */
static inline uint64_t repro_pcg64_next(repro_u128 *state, repro_u128 inc) {
    repro_u128 s = *state * REPRO_PCG_MULT + inc;
    *state = s;
    uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);
    return (x >> rot) | (x << ((-rot) & 63u));
}

/* size draws of Generator.integers(n) for 2 <= n < 2**32 from numpy's
 * PCG64, written to out and bit-identical to numpy's stream.  numpy
 * draws each value with Lemire's bounded 32-bit method over the bit
 * generator's 32-bit outputs: the low half of a 64-bit word first, its
 * high half kept (has_uint32, uinteger) for the next 32-bit request.
 * A 32-bit value u is rejected iff the low word of u * n is below
 * 2**32 mod n.  `words` is the generator's state, read and written
 * back: state (high, low), inc (high, low), has_uint32, uinteger.
 * Whole words give two draws at once; a word holding a rejection, and
 * a carried half, go through the one-at-a-time path. */
void repro_uniform_draw(uint64_t *words, uint64_t n, int64_t size,
                        int64_t *out) {
    repro_u128 state = REPRO_U128(words[0], words[1]);
    repro_u128 inc = REPRO_U128(words[2], words[3]);
    int has = words[4] != 0;
    uint32_t carry = (uint32_t)words[5];
    uint32_t threshold = (uint32_t)(-(uint32_t)n) % (uint32_t)n;
    int64_t i = 0;
    while (i < size) {
        if (!has && size - i >= 2) {
            uint64_t w = repro_pcg64_next(&state, inc);
            uint64_t m0 = (w & 0xFFFFFFFFULL) * n;
            uint64_t m1 = (w >> 32) * n;
            carry = (uint32_t)(w >> 32);
            if ((uint32_t)m0 >= threshold && (uint32_t)m1 >= threshold) {
                out[i] = (int64_t)(m0 >> 32);
                out[i + 1] = (int64_t)(m1 >> 32);
                i += 2;
                continue;
            }
            has = 1;
            if ((uint32_t)m0 >= threshold)
                out[i++] = (int64_t)(m0 >> 32);
            continue;
        }
        uint32_t u;
        if (has) {
            u = carry;
            has = 0;
        } else {
            uint64_t w = repro_pcg64_next(&state, inc);
            u = (uint32_t)w;
            carry = (uint32_t)(w >> 32);
            has = 1;
        }
        uint64_t m = (uint64_t)u * n;
        if ((uint32_t)m >= threshold)
            out[i++] = (int64_t)(m >> 32);
    }
    words[0] = (uint64_t)(state >> 64);
    words[1] = (uint64_t)state;
    words[4] = (uint64_t)has;
    words[5] = carry;
}

static inline uint32_t repro_hashmix(uint32_t value, uint32_t *hash_const) {
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static inline uint32_t repro_mix(uint32_t x, uint32_t y) {
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ (result >> 16);
}

/* numpy's default_rng(seed) state for `count` seeds at once.  Seed r's
 * SeedSequence entropy is the uint32 words entropy[bounds[r] ..
 * bounds[r + 1]); its pool of four words is mixed as SeedSequence
 * does, generate_state(4, uint64) is drawn from the pool, and PCG64 is
 * seeded from those words (initstate, initseq) as pcg64_set_seed does.
 * out receives state (high, low) and inc (high, low), four words per
 * seed. */
void repro_pcg64_seed(const uint32_t *entropy, const int64_t *bounds,
                      int64_t count, uint64_t *out) {
    for (int64_t r = 0; r < count; r++) {
        const uint32_t *e = entropy + bounds[r];
        int64_t len = bounds[r + 1] - bounds[r];
        uint32_t pool[4];
        uint32_t hash_const = 0x43b0d7e5u;
        for (int i = 0; i < 4; i++)
            pool[i] = repro_hashmix(i < len ? e[i] : 0u, &hash_const);
        for (int src = 0; src < 4; src++)
            for (int dst = 0; dst < 4; dst++)
                if (src != dst)
                    pool[dst] = repro_mix(pool[dst],
                                          repro_hashmix(pool[src], &hash_const));
        for (int64_t src = 4; src < len; src++)
            for (int dst = 0; dst < 4; dst++)
                pool[dst] = repro_mix(pool[dst],
                                      repro_hashmix(e[src], &hash_const));
        uint64_t seed[4];
        uint32_t hash_b = 0x8b51f9ddu;
        for (int i = 0; i < 8; i++) {
            uint32_t value = pool[i % 4] ^ hash_b;
            hash_b *= 0x58f38dedu;
            value *= hash_b;
            value ^= value >> 16;
            if (i % 2 == 0)
                seed[i / 2] = value;
            else
                seed[i / 2] |= (uint64_t)value << 32;
        }
        repro_u128 inc = (REPRO_U128(seed[2], seed[3]) << 1) | 1u;
        repro_u128 state = inc + REPRO_U128(seed[0], seed[1]);
        state = state * REPRO_PCG_MULT + inc;
        uint64_t *o = out + 4 * r;
        o[0] = (uint64_t)(state >> 64);
        o[1] = (uint64_t)state;
        o[2] = (uint64_t)(inc >> 64);
        o[3] = (uint64_t)inc;
    }
}
#endif
"""

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
    build is crash-safe (compile in a temp directory of its own, then
    ``os.replace`` into place) so concurrent builders, processes or
    threads, never load a torn file or remove each other's.
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
        build_dir = None
        try:
            os.makedirs(cache_dir, exist_ok=True)
            # A directory of this build's own: threads of one process
            # share a pid, so no name made from it is private.
            build_dir = tempfile.mkdtemp(".tmp", f"resolve_{digest}.", cache_dir)
            c_path = os.path.join(build_dir, "resolve.c")
            tmp_so = os.path.join(build_dir, "resolve.so")
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
            if build_dir is not None:
                shutil.rmtree(build_dir, ignore_errors=True)
    try:
        library = ctypes.CDLL(so_path)
    except OSError as error:
        raise KernelUnavailable(f"cannot load {so_path}: {error}") from None
    # Plain pointers on every entry point: an ndpointer argument costs
    # microseconds of conversion per call, as much as a few thousand
    # draws.  The callers vouch for dtype and contiguity instead.
    _i64p = ctypes.POINTER(ctypes.c_int64)
    library.repro_scu_scan.argtypes = [_i64p] + [ctypes.c_int64] * 4 + [_i64p] * 4
    library.repro_scu_scan.restype = ctypes.c_int64
    # The PCG64 entry points need 128-bit integers; a compiler without
    # them builds the scan alone, and draws and seeding stay with numpy.
    if hasattr(library, "repro_uniform_draw"):
        library.repro_uniform_draw.argtypes = [
            ctypes.POINTER(ctypes.c_uint64),
            ctypes.c_uint64,
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_int64),
        ]
        library.repro_uniform_draw.restype = None
        library.repro_pcg64_seed.argtypes = [
            ctypes.POINTER(ctypes.c_uint32),
            ctypes.POINTER(ctypes.c_int64),
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_uint64),
        ]
        library.repro_pcg64_seed.restype = None
    return library


def _pointer(array: np.ndarray) -> Optional[Any]:
    """A ``c_int64`` view of a writable int64 array's first element, or
    ``None`` (a null pointer) when it is empty and nothing is read."""
    return ctypes.c_int64.from_buffer(array) if array.size else None


class CcKernel:
    """The scan in C, built with the system compiler, via ctypes.

    ``repro_scu_scan`` serves both resolvers (``q == 0`` is just the
    scan with no preamble).  It writes its successes into ``out`` when
    given, else into a buffer of :func:`success_capacity` columns
    allocated here.
    """

    name = "cc"

    def __init__(self, library: Optional[ctypes.CDLL] = None) -> None:
        self._library = library if library is not None else _build_cc_library()
        self._scan = self._library.repro_scu_scan
        self._draw = getattr(self._library, "repro_uniform_draw", None)
        self._seed = getattr(self._library, "repro_pcg64_seed", None)

    def resolve_flat(
        self,
        sched: np.ndarray,
        n: int,
        s: int,
        out: Optional[np.ndarray] = None,
    ) -> Resolution:
        """The scan with no preamble (see :func:`resolve_flat`)."""
        return self.resolve_heap(sched, n, 0, s, out)

    def resolve_heap(
        self,
        sched: np.ndarray,
        n: int,
        q: int,
        s: int,
        out: Optional[np.ndarray] = None,
    ) -> Resolution:
        """The scan, any ``SCU(q, s)`` (see :func:`resolve_heap`)."""
        if q < 0 or s < 0:
            raise ValueError(f"the scan needs q >= 0 and s >= 0, got q={q}, s={s}")
        # Every scan argument is C-contiguous, writable int64, so the
        # plain pointers below check nothing: ``sched`` by
        # ``np.require`` (writable too, as ctypes takes a pointer only
        # into a writable buffer; the scan never writes the schedule),
        # ``state`` by ``np.empty`` and the success rows by
        # :func:`_success_rows`, which raises on any other ``out``.
        sched = np.require(sched, np.int64, "CW")
        steps = int(sched.shape[0])
        succ = _success_rows(out, steps, q, s)
        state = np.empty((n, 4), dtype=np.int64)
        wins = int(
            self._scan(
                _pointer(sched),
                steps,
                n,
                q,
                s,
                _pointer(state),
                *map(_pointer, succ),
            )
        )
        if wins < 0:
            raise _bad_pid(sched, n, -1 - wins)
        # Views, not copies: a copy would be one more pass over every
        # success, and the scan never touches a row's unused tail.
        succ_cols, succ_pids, succ_seqs = succ[:, :wins]
        counts, next_read, _, seq = state.T.copy()
        return succ_cols, succ_pids, succ_seqs, seq, q + counts - next_read, counts


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

_KERNELS: Dict[str, Any] = {}
_FAILURES: Dict[str, str] = {}
#: Held while a backend is looked up or built, so threads that select
#: at once wait for one build instead of racing their own.
_SELECT_LOCK = threading.Lock()


def _try_backend(name: str) -> Optional[Any]:
    with _SELECT_LOCK:
        if name in _KERNELS:
            return _KERNELS[name]
        if name in _FAILURES:
            return None
        try:
            kernel = NumpyKernel() if name == "numpy" else CcKernel()
        except KernelUnavailable as error:
            _FAILURES[name] = str(error)
            return None
        _KERNELS[name] = kernel
        return kernel


def get_kernel(name: str = "auto") -> Any:
    """Return a resolution kernel for ``name`` (see module docstring).

    ``"auto"`` silently picks cc, numpy when cc cannot be provided;
    explicit names raise :class:`KernelUnavailable` with the recorded
    reason.
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
    return _try_backend("cc") or _try_backend("numpy")


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
# compiled PCG64 draw and seeding
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

#: ``repro_uniform_draw``'s state words: state and inc (high, low
#: halves), ``has_uint32``, ``uinteger``.
_StateWords = ctypes.c_uint64 * 6


def _pcg64_entry(name: str) -> Optional[Any]:
    """The cc library's ``_draw`` or ``_seed`` entry point, or ``None``
    when the library cannot be loaded or was built without 128-bit
    integers."""
    kernel = _try_backend("cc")
    return None if kernel is None else getattr(kernel, name)


def uniform_draw(
    rng: np.random.Generator, n: int, size: int
) -> Optional[np.ndarray]:
    """``rng.integers(n, size=size)`` drawn by the compiled PCG64 step.

    The pids and the generator's end state (``has_uint32`` and
    ``uinteger`` included) are bit-identical to numpy's.  Returns
    ``None``, having consumed nothing, unless ``rng`` runs on exactly
    ``np.random.PCG64``, ``2 <= n < 2**32``, ``size >= 1`` and the cc
    library carries the draw.  The state goes in and out through the public
    ``bit_generator.state`` getter and setter, under the bit generator's
    lock as numpy's own draws are; each call has its own state words,
    so concurrent calls on different generators are safe without the
    GIL.
    """
    bit_generator = rng.bit_generator
    if (
        type(bit_generator) is not np.random.PCG64
        or not 2 <= n < 1 << 32
        or size < 1
    ):
        return None
    draw = _pcg64_entry("_draw")
    if draw is None:
        return None
    out = np.empty(size, dtype=np.int64)
    with bit_generator.lock:
        state = bit_generator.state
        pcg = state["state"]
        words = _StateWords(
            pcg["state"] >> 64,
            pcg["state"] & _MASK64,
            pcg["inc"] >> 64,
            pcg["inc"] & _MASK64,
            state["has_uint32"],
            state["uinteger"],
        )
        draw(words, n, size, ctypes.c_int64.from_buffer(out))
        high, low, _, _, has_uint32, uinteger = words
        pcg["state"] = (high << 64) | low
        state["has_uint32"] = has_uint32
        state["uinteger"] = uinteger
        bit_generator.state = state
    return out


def _seed_words(seed: Any) -> Optional[List[int]]:
    """SeedSequence's uint32 entropy words for an ``int`` or a tuple of
    ``int`` seed (each non-negative, least significant word first), or
    ``None`` for any other seed."""
    if type(seed) is int:
        values: Tuple[Any, ...] = (seed,)
    elif type(seed) is tuple:
        values = seed
    else:
        return None
    words: List[int] = []
    for value in values:
        if type(value) is not int or value < 0:
            return None
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def pcg64_seed_states(
    seeds: List[Any],
) -> Optional[List[Optional[Tuple[int, int]]]]:
    """``np.random.default_rng(seed)``'s PCG64 ``(state, inc)`` per seed.

    All seeds go through one compiled pass.  Entries for seeds that are
    not an ``int`` or a tuple of ``int`` (all non-negative) are
    ``None``; so is the whole answer when the cc library does not carry
    the seeder.  The pass computes SeedSequence's
    pool mixing and ``generate_state(4, uint64)``, then PCG64's seeding
    from those words; ``has_uint32`` and ``uinteger`` start at 0.
    """
    entropy = [_seed_words(seed) for seed in seeds]
    known = [words for words in entropy if words is not None]
    if not known:
        return [None] * len(seeds)
    seed_pass = _pcg64_entry("_seed")
    if seed_pass is None:
        return None
    bounds = np.array(
        list(itertools.accumulate(map(len, known), initial=0)), dtype=np.int64
    )
    # One spare word: an all-empty entropy still needs a buffer.
    flat = np.array([*itertools.chain.from_iterable(known), 0], dtype=np.uint32)
    out = np.empty(4 * len(known), dtype=np.uint64)
    seed_pass(
        ctypes.c_uint32.from_buffer(flat),
        ctypes.c_int64.from_buffer(bounds),
        len(known),
        ctypes.c_uint64.from_buffer(out),
    )
    words_out = out.tolist()
    states = (words_out[i : i + 4] for i in range(0, len(words_out), 4))
    answer: List[Optional[Tuple[int, int]]] = []
    for words in entropy:
        if words is None:
            answer.append(None)
            continue
        state_high, state_low, inc_high, inc_low = next(states)
        answer.append(
            ((state_high << 64) | state_low, (inc_high << 64) | inc_low)
        )
    return answer


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
    a precomputed successor pointer.  The cc backend runs its one
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
    process in a heap, popped in time order; the cc backend runs its
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
