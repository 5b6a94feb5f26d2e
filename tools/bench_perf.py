"""Performance harness for the three execution engines.

Times the same seeded workloads on the serial, batched, and ensemble
engines and writes a machine-readable JSON report (``BENCH_PR10.json``
by default).  Twelve workloads:

* ``fig5_sweep`` — a FIG5-style multi-replicate latency sweep (the
  ensemble engine's target shape: many replicates, one sweep), timed on
  all three engines,
* ``fused_sweep`` — one ensemble sweep timed on every resolve kernel
  backend available (``engine_kernel``: numpy, the compiled ones and
  ``auto``), all bit-identical,
* ``sharedmem_dispatch`` — a pooled ``latency_sweep`` with pickle vs.
  zero-copy shared-memory transport: wall-clock parity on interleaved
  rounds plus the deterministic per-chunk pipe payload (submit out,
  results back) each transport pickles — the dispatch overhead the
  segments remove — with a no-orphaned-segments check,
* ``thm4_cells`` — the nine heterogeneous THM4 ``(q, s, n)`` cells as
  one ensemble vs. per-cell batched/serial runs,
* ``single_run_100k`` — one long single-replicate run (the shape where
  the ensemble engine has the least to amortise),
* ``cor2_crash_sweep`` — a COR2-style halting-failure sweep (crash all
  but ``k`` of ``n`` early, several seeds per ``k``) on the segmented
  crash-aware ensemble vs. per-replicate batched runs,
* ``chain_assembly`` — exact-chain transition-matrix builds: the
  vectorized COO assembly vs. the per-state BFS enumeration,
* ``chaos_sweep`` — the fault-tolerant pooled ``latency_sweep`` path
  (ResilientExecutor + store) vs. a bare process pool at zero
  injected faults (the resilience tax, target < 5%), plus one run with
  injected worker kill/raise faults to price recovery,
* ``telemetry_overhead`` — a FIG5-style batched sweep with telemetry
  disabled (the default ``telemetry=None``) vs. a live
  ``MetricsRegistry`` attached (the telemetry tax; disabled must stay
  within 2% of the pre-telemetry baseline),
* ``store_compaction`` — the same sweep bare vs. columnar-store-backed
  (the journaling tax), plus a synthetic many-record store loaded back
  (the resume-load cost; every record must come back),
* ``memo_warm`` — exact chain solves cold vs. warm-started from the
  on-disk memo with in-process caches cleared; the warm pass must run
  zero solvers (checked via the memo compute counter) and return
  bit-identical values,
* ``zoo_uniformity`` — the contention zoo's latency vs.
  departure-from-uniform table (SCU counter, Michael-Scott queue,
  Treiber stack, randomized TAS-lock baseline under the epsilon and
  contention scheduler dials), with serial-vs-batched bit-identity
  checked on a contention-scheduler run.

Because the engines are bit-identical by construction (and the harness
re-checks this on every run), the speedups are pure wall-clock: same
numbers, less time.

Usage::

    python tools/bench_perf.py                  # full run -> BENCH_PR10.json
    python tools/bench_perf.py --quick          # CI-sized steps/repeats
    python tools/bench_perf.py --only zoo_uniformity --out perf.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.algorithms.counter import cas_counter, make_counter_memory  # noqa: E402
from repro.chains.counter import (  # noqa: E402
    counter_global_chain,
    counter_global_chain_enumerated,
)
from repro.chains.scu import (  # noqa: E402
    scu_system_chain,
    scu_system_chain_enumerated,
)
from repro.core.latency import (  # noqa: E402
    measure_latencies,
    resolve_vector_kernel,
)
from repro.core.scheduler import UniformStochasticScheduler  # noqa: E402
from repro.core.scu import SCU  # noqa: E402
from repro.core.sweep import latency_sweep  # noqa: E402
from repro.sim import EnsembleReplicate, EnsembleSimulator, Simulator  # noqa: E402


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def bench_fig5_sweep(quick):
    """Multi-replicate latency sweep: the ensemble engine's home turf.

    ``ensemble`` is the default path (stacked resolution, compiled
    inner loops when available).
    """
    n_values = [4, 8] if quick else [4, 8, 16]
    steps = 10_000 if quick else 60_000
    repeats = 8 if quick else 32

    def sweep(engine):
        return lambda: latency_sweep(
            cas_counter,
            make_counter_memory,
            n_values,
            steps=steps,
            repeats=repeats,
            seed=2,
            engine=engine,
        )

    engines = {}
    points = {}
    for engine in ("serial", "batched", "ensemble"):
        engines[engine], points[engine] = timed(sweep(engine))
    return {
        "workload": "fig5_sweep",
        "params": {"n_values": n_values, "steps": steps, "repeats": repeats},
        "seconds": engines,
        "speedup_ensemble_vs_batched": engines["batched"] / engines["ensemble"],
        "speedup_ensemble_vs_serial": engines["serial"] / engines["ensemble"],
        "bit_identical": all(
            points[e] == points["batched"] for e in points
        ),
    }


def bench_fused_sweep(quick):
    """One ensemble-engine sweep on every resolve kernel backend.

    All arms share the draw, the block packer and the vectorized
    measurement path, so the deltas isolate the resolve kernel (and the
    stacking the packer chooses for it: compiled backends stack every
    block, numpy stacks only short flat replicates).
    """
    from repro.sim.kernels import available_backends

    n_values = [2, 4, 8]
    steps = 5_000 if quick else 20_000
    repeats = 8 if quick else 48

    def sweep(engine_kernel):
        return lambda: latency_sweep(
            cas_counter,
            make_counter_memory,
            n_values,
            steps=steps,
            repeats=repeats,
            seed=4,
            engine="ensemble",
            engine_kernel=engine_kernel,
        )

    compiled = ["cc"] if "cc" in available_backends() else []
    seconds = {}
    points = {}
    for engine_kernel in ["numpy", *compiled, "auto"]:
        seconds[engine_kernel], points[engine_kernel] = timed(
            sweep(engine_kernel)
        )
    return {
        "workload": "fused_sweep",
        "params": {
            "n_values": n_values,
            "steps": steps,
            "repeats": repeats,
            "compiled_backends": compiled,
        },
        "seconds": seconds,
        "speedup_auto_vs_numpy": seconds["numpy"] / seconds["auto"],
        "bit_identical": all(p == points["numpy"] for p in points.values()),
    }


def bench_sharedmem_dispatch(quick):
    """Pickle vs. zero-copy shared-memory transport in a pooled sweep.

    Two measurements.  *Wall clock* interleaves repeated rounds of the
    same sweep under each transport and keeps per-mode minima, like the
    telemetry bench; on CPU-bound replicates the pool's pipe round-trip
    and scheduling dominate both modes equally, so the honest headline
    is parity — zero-copy costs nothing.  *Payload bytes* is the
    deterministic measurement of what the transport itself moves: the
    exact pickle stream one chunk sends through the pool pipe (submit
    args out, worker return back), mirrored byte-for-byte from the
    executor's ``pool.submit(worker_fn, keys, *args)`` call.  Pickle
    dispatch ships ``(n, replicate)`` tuples out and result triples
    back, so its payload grows with the chunk; shared-memory dispatch
    ships bare row indices both ways and the triples never cross the
    pipe.  Also asserts the no-orphaned-segments contract after the
    rounds.
    """
    import glob
    import os
    import pickle

    from repro.core.shm import sharedmem_available
    from repro.core.sweep import _chunk_worker, _shm_chunk_worker

    n_values = [2, 4]
    steps = 500 if quick else 2_000
    repeats = 16 if quick else 30
    max_workers = 2
    rounds = 2 if quick else 3
    task_list = [(n, r) for n in n_values for r in range(repeats)]
    # The executor's default chunking: about four chunks per worker.
    chunk = max(1, -(-len(task_list) // (max_workers * 4)))
    n_chunks = -(-len(task_list) // chunk)

    def sweep(dispatch):
        return lambda: latency_sweep(
            cas_counter,
            make_counter_memory,
            n_values,
            steps=steps,
            repeats=repeats,
            seed=6,
            engine="batched",
            max_workers=max_workers,
            dispatch=dispatch,
        )

    if not sharedmem_available():  # pragma: no cover — non-POSIX
        return {
            "workload": "sharedmem_dispatch",
            "params": {"skipped": "no multiprocessing.shared_memory"},
            "seconds": {},
            "bit_identical": True,
        }

    # The per-chunk pipe payload, byte-for-byte.  Shared args (builders,
    # steps, seed, ...) mirror latency_sweep's executor wiring; result
    # triples are synthetic but distinct floats, which pickle at the
    # same fixed width as real ones.
    shared_args = (
        cas_counter,
        make_counter_memory,
        UniformStochasticScheduler,
        steps,
        6,
        "batched",
        None,
        None,
        "auto",
        "auto",
    )
    pairs = task_list[:chunk]
    rows = list(range(chunk))
    task_name = f"repro-{'0' * 8}-{os.getpid()}-0-t"
    bytes_per_chunk = {
        "pickle": (
            len(pickle.dumps((_chunk_worker, pairs) + shared_args))
            + len(
                pickle.dumps(
                    [(1.0 + i, 0.9 - i * 1e-4, 0.8 + i * 1e-5) for i in range(chunk)]
                )
            )
        ),
        "sharedmem": (
            len(
                pickle.dumps(
                    (_shm_chunk_worker, rows, task_name, task_name[:-1] + "r", len(task_list))
                    + shared_args
                )
            )
            + len(pickle.dumps(rows))
        ),
    }

    pickle_times, shm_times = [], []
    points = {}
    for _ in range(rounds):
        seconds, points["pickle"] = timed(sweep("pickle"))
        pickle_times.append(seconds)
        seconds, points["sharedmem"] = timed(sweep("sharedmem"))
        shm_times.append(seconds)
    orphans = glob.glob("/dev/shm/repro-*")
    seconds = {"pickle": min(pickle_times), "sharedmem": min(shm_times)}
    return {
        "workload": "sharedmem_dispatch",
        "params": {
            "n_values": n_values,
            "steps": steps,
            "repeats": repeats,
            "max_workers": max_workers,
            "chunk_size": chunk,
            "rounds": rounds,
        },
        "seconds": seconds,
        "seconds_per_chunk": {
            mode: secs / n_chunks for mode, secs in seconds.items()
        },
        "bytes_per_chunk": bytes_per_chunk,
        "chunk_payload_reduction_fraction": (
            1.0 - bytes_per_chunk["sharedmem"] / bytes_per_chunk["pickle"]
        ),
        "wall_clock_delta_fraction": (
            1.0 - seconds["sharedmem"] / seconds["pickle"]
        ),
        "orphaned_segments": len(orphans),
        "bit_identical": (
            points["pickle"] == points["sharedmem"] and not orphans
        ),
    }


THM4_SWEEP = [
    (0, 1, 4),
    (0, 1, 16),
    (0, 1, 64),
    (2, 1, 16),
    (8, 1, 16),
    (0, 2, 16),
    (0, 4, 16),
    (4, 2, 16),
    (2, 2, 36),
]


def bench_thm4_cells(quick):
    """The nine heterogeneous THM4 cells as one ensemble."""
    steps = 20_000 if quick else 250_000
    specs = [SCU(q, s) for q, s, _ in THM4_SWEEP]

    def run_ensemble():
        ensemble = EnsembleSimulator(
            [
                EnsembleReplicate(
                    resolve_vector_kernel(spec.factory()),
                    n,
                    UniformStochasticScheduler(),
                    spec.memory(),
                    rng=(q, s, n),
                )
                for spec, (q, s, n) in zip(specs, THM4_SWEEP)
            ]
        )
        return [
            m.system_latency for m in ensemble.run(steps).measurements()
        ]

    def run_batched():
        return [
            spec.measure(n, steps, rng=(q, s, n), batched=True).system_latency
            for spec, (q, s, n) in zip(specs, THM4_SWEEP)
        ]

    seconds = {}
    seconds["batched"], batched = timed(run_batched)
    seconds["ensemble"], ensemble = timed(run_ensemble)
    return {
        "workload": "thm4_cells",
        "params": {"cells": THM4_SWEEP, "steps": steps},
        "seconds": seconds,
        "speedup_ensemble_vs_batched": seconds["batched"] / seconds["ensemble"],
        "bit_identical": batched == ensemble,
    }


def bench_single_run(quick):
    """One long run: least amortisation, honest worst case."""
    steps = 20_000 if quick else 100_000
    n = 16

    def serial():
        return Simulator(
            cas_counter(),
            UniformStochasticScheduler(),
            n_processes=n,
            memory=make_counter_memory(),
            rng=7,
        ).run(steps)

    def batched():
        return measure_latencies(
            cas_counter(),
            UniformStochasticScheduler(),
            n_processes=n,
            steps=steps,
            memory=make_counter_memory(),
            rng=7,
            batched=True,
        )

    def ensemble():
        replicate = EnsembleReplicate(
            resolve_vector_kernel(cas_counter()),
            n,
            UniformStochasticScheduler(),
            make_counter_memory(),
            rng=7,
        )
        return EnsembleSimulator([replicate]).run(steps).measurements()[0]

    seconds = {}
    seconds["serial"], _ = timed(serial)
    seconds["batched"], batched_m = timed(batched)
    seconds["ensemble"], ensemble_m = timed(ensemble)
    return {
        "workload": "single_run_100k",
        "params": {"n": n, "steps": steps},
        "seconds": seconds,
        "speedup_ensemble_vs_batched": seconds["batched"] / seconds["ensemble"],
        "speedup_ensemble_vs_serial": seconds["serial"] / seconds["ensemble"],
        "bit_identical": batched_m == ensemble_m,
    }


def bench_cor2_crash_sweep(quick):
    """COR2-style halting-failure sweep: crash all but k of n early."""
    n = 32
    k_values = [4, 8, 16, 32]
    steps = 20_000 if quick else 250_000
    crash_at = 500 if quick else 2_000
    repeats = 2 if quick else 4
    combos = [(k, r) for k in k_values for r in range(repeats)]

    def crash_map(k):
        return {pid: crash_at for pid in range(k, n)}

    def run_ensemble():
        ensemble = EnsembleSimulator(
            [
                EnsembleReplicate(
                    resolve_vector_kernel(cas_counter()),
                    n,
                    UniformStochasticScheduler(),
                    make_counter_memory(),
                    rng=(k, r),
                    crash_times=crash_map(k),
                )
                for k, r in combos
            ]
        )
        result = ensemble.run(steps)
        return [
            m.system_latency
            for m in result.measurements(burn_in=crash_at * 10)
        ]

    def run_batched():
        return [
            measure_latencies(
                cas_counter(),
                UniformStochasticScheduler(),
                n_processes=n,
                steps=steps,
                burn_in=crash_at * 10,
                memory=make_counter_memory(),
                crash_times=crash_map(k),
                rng=(k, r),
                batched=True,
            ).system_latency
            for k, r in combos
        ]

    seconds = {}
    seconds["batched"], batched = timed(run_batched)
    seconds["ensemble"], ensemble = timed(run_ensemble)
    return {
        "workload": "cor2_crash_sweep",
        "params": {
            "n": n,
            "k_values": k_values,
            "steps": steps,
            "crash_at": crash_at,
            "repeats": repeats,
        },
        "seconds": seconds,
        "speedup_ensemble_vs_batched": seconds["batched"] / seconds["ensemble"],
        "bit_identical": batched == ensemble,
    }


def bench_chain_assembly(quick):
    """Exact-chain matrix assembly: vectorized COO vs. per-state BFS."""
    n_scu = 192 if quick else 512
    n_counter = 512 if quick else 2048

    seconds = {}
    seconds["scu_enumerated"], _ = timed(
        lambda: scu_system_chain_enumerated(n_scu)
    )
    seconds["scu_vectorized"], _ = timed(lambda: scu_system_chain(n_scu))
    seconds["counter_enumerated"], _ = timed(
        lambda: counter_global_chain_enumerated(n_counter)
    )
    seconds["counter_vectorized"], _ = timed(
        lambda: counter_global_chain(n_counter)
    )

    # Equality is checked at a small size so the check itself stays cheap:
    # exact state order for the counter chain, label-aligned for SCU.
    check_n = 24
    counter_fast = counter_global_chain(check_n)
    counter_ref = counter_global_chain_enumerated(check_n)
    counter_equal = counter_fast.states == counter_ref.states and np.array_equal(
        counter_fast.dense(), counter_ref.dense()
    )
    scu_fast = scu_system_chain(check_n)
    scu_ref = scu_system_chain_enumerated(check_n)
    permutation = [scu_fast.index_of(state) for state in scu_ref.states]
    scu_equal = sorted(scu_fast.states) == sorted(scu_ref.states) and np.array_equal(
        scu_fast.dense()[np.ix_(permutation, permutation)], scu_ref.dense()
    )

    return {
        "workload": "chain_assembly",
        "params": {"n_scu": n_scu, "n_counter": n_counter, "check_n": check_n},
        "seconds": seconds,
        "speedup_scu": seconds["scu_enumerated"] / seconds["scu_vectorized"],
        "speedup_counter": (
            seconds["counter_enumerated"] / seconds["counter_vectorized"]
        ),
        "bit_identical": counter_equal and scu_equal,
    }


def bench_chaos_sweep(quick):
    """The resilience tax: a resilient pooled sweep vs. a bare pool."""
    import functools
    import tempfile
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.runner import RetryPolicy
    from repro.core.sweep import _chunk_worker, _collect_points
    from repro.testing.chaos import ChaosPlan, ChaosPool

    n_values = [4, 8]
    steps = 8_000 if quick else 40_000
    repeats = 4 if quick else 8
    max_workers = 2
    seed = 3

    def bare_pool_sweep():
        # The pre-resilience dispatch: one future per chunk, bare
        # future.result() — any failure aborts the sweep.
        tasks = [(n, r) for n in n_values for r in range(repeats)]
        chunk_size = max(1, -(-len(tasks) // (max_workers * 4)))
        chunks = [
            tasks[start : start + chunk_size]
            for start in range(0, len(tasks), chunk_size)
        ]
        results = {}
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(
                    _chunk_worker,
                    chunk,
                    cas_counter,
                    make_counter_memory,
                    UniformStochasticScheduler,
                    steps,
                    seed,
                    "batched",
                    None,
                    None,
                )
                for chunk in chunks
            ]
            for chunk, future in zip(chunks, futures):
                for key, triple in zip(chunk, future.result()):
                    results[key] = triple
        return _collect_points(n_values, repeats, results, 0.95)

    def resilient_sweep(pool_factory=None, retry=None):
        return latency_sweep(
            cas_counter,
            make_counter_memory,
            n_values,
            steps=steps,
            repeats=repeats,
            seed=seed,
            engine="batched",
            max_workers=max_workers,
            retry=retry,
            pool_factory=pool_factory,
        )

    seconds = {}
    seconds["bare_pool"], bare = timed(bare_pool_sweep)
    seconds["resilient"], resilient = timed(resilient_sweep)

    with tempfile.TemporaryDirectory() as state_dir:
        plan = ChaosPlan(
            state_dir=state_dir,
            faults={(4, 1): "kill", (8, 2): "raise"},
        )
        seconds["resilient_faulted"], faulted = timed(
            lambda: resilient_sweep(
                pool_factory=functools.partial(ChaosPool, plan=plan),
                retry=RetryPolicy(
                    max_retries=3, base_delay=0.05, max_delay=0.5
                ),
            )
        )

    overhead = seconds["resilient"] / seconds["bare_pool"] - 1.0
    return {
        "workload": "chaos_sweep",
        "params": {
            "n_values": n_values,
            "steps": steps,
            "repeats": repeats,
            "max_workers": max_workers,
            "injected_faults": {"(4, 1)": "kill", "(8, 2)": "raise"},
        },
        "seconds": seconds,
        "overhead_fraction_zero_faults": overhead,
        "recovery_seconds_over_bare": (
            seconds["resilient_faulted"] - seconds["bare_pool"]
        ),
        "bit_identical": bare == resilient == faulted,
    }


def bench_telemetry_overhead(quick):
    """The telemetry tax on a FIG5-style batched sweep.

    The zero-overhead contract says instrumentation must be invisible
    when disabled: every instrumented site guards on ``telemetry is not
    None and telemetry.enabled`` and all settling happens at run/point
    granularity, never per simulated step.  Timing the same seeded
    sweep with telemetry off (the default) and with a live registry
    prices both sides of that contract, and the bit-identity check
    confirms the instrumentation never touches the numbers.
    """
    from repro.core.telemetry import MetricsRegistry

    n_values = [4, 8] if quick else [4, 8, 16]
    steps = 10_000 if quick else 60_000
    repeats = 8 if quick else 32

    def sweep(telemetry):
        return lambda: latency_sweep(
            cas_counter,
            make_counter_memory,
            n_values,
            steps=steps,
            repeats=repeats,
            seed=2,
            engine="batched",
            telemetry=telemetry,
        )

    # Interleave repeated timings and keep the per-mode minimum so a
    # one-off scheduling hiccup cannot masquerade as telemetry cost.
    rounds = 3
    disabled_times, enabled_times = [], []
    points = {}
    for _ in range(rounds):
        seconds, points["disabled"] = timed(sweep(None))
        disabled_times.append(seconds)
        seconds, points["enabled"] = timed(sweep(MetricsRegistry()))
        enabled_times.append(seconds)
    seconds = {
        "disabled": min(disabled_times),
        "enabled": min(enabled_times),
    }
    return {
        "workload": "telemetry_overhead",
        "params": {
            "n_values": n_values,
            "steps": steps,
            "repeats": repeats,
            "rounds": rounds,
        },
        "seconds": seconds,
        "overhead_fraction_enabled": (
            seconds["enabled"] / seconds["disabled"] - 1.0
        ),
        "bit_identical": points["disabled"] == points["enabled"],
    }


def bench_store_compaction(quick):
    """The columnar store's journaling tax and resume-load payoff.

    Two measurements: (1) the same seeded FIG5-style sweep run bare and
    against a columnar store — the store's write-path overhead; (2) a
    synthetic many-record store loaded back — the columnar chunks are
    where million-replicate resume stops parsing a million JSON lines.
    The load must return every synthetic record.
    """
    import tempfile

    from repro.core.checkpoint import sweep_fingerprint
    from repro.core.store import ColumnarSweepStore

    n_values = [4, 8]
    steps = 8_000 if quick else 40_000
    repeats = 4 if quick else 16
    journal_records = 20_000 if quick else 200_000

    def sweep(**log):
        return latency_sweep(
            cas_counter,
            make_counter_memory,
            n_values,
            steps=steps,
            repeats=repeats,
            seed=2,
            engine="batched",
            **log,
        )

    seconds = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        seconds["sweep_bare"], bare = timed(sweep)
        seconds["sweep_store"], stored = timed(
            lambda: sweep(store=tmp / "store")
        )

        # Synthetic load at resume scale.
        fingerprint = sweep_fingerprint(
            seed=0,
            steps=steps,
            n_values=[64],
            repeats=journal_records,
            burn_in=None,
            crash_times=None,
        )
        with ColumnarSweepStore.open(
            tmp / "big-store", fingerprint, fsync_every=4096
        ) as store:
            for r in range(journal_records):
                store.record(64, r, (float(r), 0.5, 1.0))
        seconds["load_store"], from_store = timed(
            lambda: ColumnarSweepStore.load_completed(tmp / "big-store")
        )
    expected = {(64, r): (float(r), 0.5, 1.0) for r in range(journal_records)}
    if from_store != expected:
        raise SystemExit(
            f"store_compaction: load_store returned {len(from_store)} "
            f"records, not the {journal_records} written"
        )

    return {
        "workload": "store_compaction",
        "params": {
            "n_values": n_values,
            "steps": steps,
            "repeats": repeats,
            "journal_records": journal_records,
        },
        "seconds": seconds,
        "overhead_fraction_store": (
            seconds["sweep_store"] / seconds["sweep_bare"] - 1.0
        ),
        "bit_identical": bare == stored,
    }


def bench_memo_warm(quick):
    """The disk memo's warm-start payoff on exact chain solves.

    A cold pass computes every exact solve and writes the memo; a warm
    pass (in-process caches cleared, same disk — a fresh process in
    miniature) must re-run *zero* solvers, verified via the memo's
    compute counter, and return bit-identical values.
    """
    import tempfile

    from repro.chains.scu import (
        clear_exact_chain_caches,
        scu_full_system_latency_exact,
        scu_success_probability,
        scu_system_latency_exact,
    )
    from repro.core.memo import (
        configure_memo,
        memo_counters,
        reset_memo_counters,
    )

    n_values = [8, 16, 32] if quick else [8, 16, 32, 64, 96]
    # Full cells stay small: the aggregated SCU(q, s) chain has
    # C(n + phases - 1, phases - 1) states, so (4, 2, n) explodes fast.
    full_cells = [(2, 1, 8), (0, 2, 8)] if quick else [
        (2, 1, 8),
        (0, 2, 8),
        (4, 2, 8),
    ]

    def solve_all():
        return (
            [scu_success_probability(n) for n in n_values]
            + [scu_system_latency_exact(n) for n in n_values]
            + [scu_full_system_latency_exact(n, q, s) for q, s, n in full_cells]
        )

    solvers = (
        scu_success_probability,
        scu_system_latency_exact,
        scu_full_system_latency_exact,
    )
    seconds = {}
    with tempfile.TemporaryDirectory() as memo_dir:
        configure_memo(memo_dir)
        try:
            clear_exact_chain_caches()
            reset_memo_counters()
            seconds["cold"], cold = timed(solve_all)
            cold_computes = memo_counters().get("computes", 0)

            # A fresh process has empty lru_caches but the same disk.
            for solver in solvers:
                solver.cache_clear()
            reset_memo_counters()
            seconds["warm"], warm = timed(solve_all)
            warm_computes = memo_counters().get("computes", 0)
        finally:
            configure_memo(None)
            clear_exact_chain_caches()
            reset_memo_counters()

    return {
        "workload": "memo_warm",
        "params": {"n_values": n_values, "full_cells": full_cells},
        "seconds": seconds,
        "cold_computes": cold_computes,
        "warm_computes": warm_computes,
        "speedup_warm_vs_cold": seconds["cold"] / seconds["warm"],
        "bit_identical": warm == cold and warm_computes == 0,
    }


def bench_zoo_uniformity(quick):
    """The contention zoo: latency vs. departure-from-uniform per workload.

    Runs the SCU counter, two non-SCU structures (Michael-Scott queue,
    Treiber stack) and the randomized TAS-lock fairness baseline under
    the uniform anchor plus the epsilon and contention departure dials,
    and embeds the full latency-vs-TV-distance table in the report (the
    deliverable figure's data).  Bit-identity here is the serial vs.
    batched engines agreeing on a contention-scheduler run — the
    observe_pending hook must not break the trace-equivalence contract.
    """
    from repro.algorithms.registry import get_workload
    from repro.core.scheduler import ContentionScheduler
    from repro.core.uniformity import (
        measure_departure_point,
        zoo_departure_table,
    )

    names = ["cas-counter", "msqueue", "treiber", "rtas-lock"]
    n = 8
    steps = 4_000 if quick else 40_000

    seconds = {}
    seconds["zoo_batched"], table = timed(
        lambda: zoo_departure_table(names, n_processes=n, steps=steps, seed=0)
    )

    def engine_check(batched):
        return lambda: [
            measure_departure_point(
                get_workload(name),
                lambda: ContentionScheduler(focus=4.0),
                label="contention(4)",
                n_processes=n,
                steps=steps,
                seed=0,
                batched=batched,
            )
            for name in names
        ]

    seconds["contention_serial"], serial_points = timed(engine_check(False))
    seconds["contention_batched"], batched_points = timed(engine_check(True))
    return {
        "workload": "zoo_uniformity",
        "params": {"workloads": names, "n": n, "steps": steps},
        "seconds": seconds,
        "table": table,
        "bit_identical": serial_points == batched_points,
    }


BENCHES = {
    "fig5_sweep": bench_fig5_sweep,
    "fused_sweep": bench_fused_sweep,
    "sharedmem_dispatch": bench_sharedmem_dispatch,
    "thm4_cells": bench_thm4_cells,
    "single_run_100k": bench_single_run,
    "cor2_crash_sweep": bench_cor2_crash_sweep,
    "chain_assembly": bench_chain_assembly,
    "chaos_sweep": bench_chaos_sweep,
    "telemetry_overhead": bench_telemetry_overhead,
    "store_compaction": bench_store_compaction,
    "memo_warm": bench_memo_warm,
    "zoo_uniformity": bench_zoo_uniformity,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized steps/repeats (seconds, not minutes)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_PR10.json",
        help="output JSON path (default: BENCH_PR10.json at the repo root)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(BENCHES),
        default=None,
        metavar="WORKLOAD",
        help="run only this benchmark workload (repeatable; default all)",
    )
    args = parser.parse_args(argv)

    results = []
    benches = tuple(
        BENCHES[name]
        for name in (args.only if args.only else BENCHES)
    )
    for bench in benches:
        result = bench(args.quick)
        results.append(result)
        if "zoo_batched" in result["seconds"]:
            worst = max(
                (
                    point
                    for points in result["table"]["workloads"].values()
                    for point in points
                    if point["p99_latency"] != float("inf")
                ),
                key=lambda point: point["p99_latency"],
            )
            summary = (
                f"zoo {result['seconds']['zoo_batched']:8.3f}s"
                f"  worst p99 {worst['p99_latency']:8.1f}"
                f" @ TV {worst['tv_distance']:.3f}"
            )
        elif "speedup_auto_vs_numpy" in result:
            summary = (
                f"auto {result['seconds']['auto']:8.3f}s"
                f"  numpy {result['seconds']['numpy']:8.3f}s"
                f"  speedup {result['speedup_auto_vs_numpy']:5.2f}x"
            )
        elif "sharedmem" in result["seconds"]:
            summary = (
                f"sharedmem {result['seconds']['sharedmem']:8.3f}s"
                f"  pickle {result['seconds']['pickle']:8.3f}s"
                f"  per-chunk payload "
                f"{100 * result['chunk_payload_reduction_fraction']:+5.1f}%"
                f" smaller  orphans={result['orphaned_segments']}"
            )
        elif "sweep_store" in result["seconds"]:
            summary = (
                f"store {result['seconds']['sweep_store']:8.3f}s"
                f"  bare {result['seconds']['sweep_bare']:8.3f}s"
                f"  overhead {100 * result['overhead_fraction_store']:+5.1f}%"
                f"  load {result['seconds']['load_store']:8.3f}s"
            )
        elif "cold" in result["seconds"]:
            summary = (
                f"cold {result['seconds']['cold']:8.3f}s"
                f"  warm {result['seconds']['warm']:8.3f}s"
                f"  speedup {result['speedup_warm_vs_cold']:5.2f}x"
                f"  warm_computes={result['warm_computes']}"
            )
        elif "disabled" in result["seconds"]:
            summary = (
                f"disabled {result['seconds']['disabled']:8.3f}s"
                f"  enabled {result['seconds']['enabled']:8.3f}s"
                f"  overhead {100 * result['overhead_fraction_enabled']:+5.1f}%"
            )
        elif "bare_pool" in result["seconds"]:
            summary = (
                f"resilient {result['seconds']['resilient']:8.3f}s"
                f"  bare {result['seconds']['bare_pool']:8.3f}s"
                f"  overhead {100 * result['overhead_fraction_zero_faults']:+5.1f}%"
                f"  faulted {result['seconds']['resilient_faulted']:8.3f}s"
            )
        elif "ensemble" in result["seconds"]:
            summary = (
                f"ensemble {result['seconds']['ensemble']:8.3f}s"
                f"  batched {result['seconds']['batched']:8.3f}s"
                f"  speedup {result['speedup_ensemble_vs_batched']:5.2f}x"
            )
        else:
            summary = (
                f"scu {result['speedup_scu']:5.2f}x"
                f"  counter {result['speedup_counter']:5.2f}x"
            )
        print(
            f"{result['workload']:<16} {summary}"
            f"  bit_identical={result['bit_identical']}"
        )
        if not result["bit_identical"]:
            raise SystemExit(
                f"engines disagree on workload {result['workload']!r}"
            )

    report = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "machine": platform.machine(),
            "quick": args.quick,
        },
        "workloads": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
