"""Generate docs/API.md: a one-line-per-symbol index of the public API.

Walks every ``repro`` module, collects the public functions/classes
(those in ``__all__`` where defined, else non-underscore top-level
names defined in the module), and emits their signature plus the first
docstring line.

Usage:  python tools/generate_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.splitlines()[0].rstrip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def public_symbols(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and getattr(value, "__module__", None) == module.__name__
        ]
    for name in names:
        value = getattr(module, name, None)
        if value is None or inspect.ismodule(value):
            continue
        if getattr(value, "__module__", module.__name__) != module.__name__:
            continue  # re-exports are documented at their home module
        yield name, value


def main(out_path: str = "docs/API.md") -> int:
    import repro

    lines = [
        "# API index",
        "",
        "One line per public symbol, generated by"
        " `tools/generate_api_docs.py`.  See the module docstrings and",
        "docs/THEORY.md for the mathematics behind each piece.",
        "",
        "Three bit-identical execution engines drive simulations, in",
        "increasing speed and decreasing generality: **serial**",
        "(`Simulator.run`, the reference semantics), **batched**",
        "(`Simulator.run_batched`, trace-equivalent block scheduling;",
        "a scheduler with an `observe_pending` hook, such as",
        "`ContentionScheduler`, is observed and asked once per step",
        "inside the same blocks), and **ensemble**",
        "(`EnsembleSimulator`, whole-schedule array resolution of",
        "many replicates at once — crash schedules run",
        "segmented at their crash boundaries; SCU-shaped workloads",
        "only).  Sweeps select one via"
        " `latency_sweep(..., engine=...)`.",
        "",
        "The ensemble engine stacks same-shape replicates (same `q`,",
        "`s`, resolver kind — including replicates of different process",
        "counts across a whole sweep grid) into schedules resolved in",
        "one pass, on pluggable kernels",
        "(`repro.sim.kernels`): `cc` (a tiny C library built with the",
        "system compiler at first use, loaded via ctypes) and `numba`",
        "(optional) run one time-ordered scan for every `SCU(q, s)`",
        "shape; `numpy` (the always-available oracle) keeps a",
        "successor-chain walk for `q == 0` and a `heapq` scan otherwise.",
        "Select with `engine_kernel=` (`\"auto\"` default, `\"numpy\"`,",
        "`\"numba\"`, `\"cc\"`) on `EnsembleSimulator`, `latency_sweep`",
        "and `measure_latencies_ensemble`.  How many replicates share a",
        "block follows from the kernel: compiled kernels stack every",
        "block, the numpy chain walk only replicates under 4096 steps,",
        "the numpy `heapq` scan one replicate per block.  Every backend",
        "is bit-identical — the choice trades wall clock only",
        "(`tools/bench_perf.py`, `fused_sweep` workload).",
        "",
        "Sweeps have one multicore mechanism: `max_workers=` on",
        "`latency_sweep`.  At 1 (the default) every replicate runs in",
        "process; above 1 the missing `(n, replicate)` keys go in chunks",
        "to a `ResilientExecutor` process pool for every engine, and an",
        "ensemble chunk resolves as one ensemble grid in its worker.",
        "Replicates keep their `(seed, n, replicate)` streams, so every",
        "worker count is bit-identical.  `parallel_sweep` survives as a",
        "forwarder with the batched engine and one worker per available",
        "CPU.",
        "",
        "Long sweeps are fault tolerant: a `ColumnarSweepStore`",
        "(`latency_sweep(..., store=DIR)`, CLI `--store DIR`, also",
        "spelled `--checkpoint`) journals each completed",
        "`(n, replicate)` point (resume re-runs only what is missing,",
        "and a store recorded under different sweep parameters is",
        "rejected loudly), while",
        "`ResilientExecutor` retries failed chunks with capped",
        "exponential backoff, splits poison chunks down to the single",
        "offending replicate, rebuilds broken worker pools, and degrades",
        "to in-process serial execution when pools keep failing — all",
        "without changing results, because replicates are seeded by",
        "`(seed, n, replicate)` and are bit-identical however and",
        "wherever they run.  `repro.testing.chaos` injects worker",
        "kill/hang/raise faults to prove it.  `available_cpu_count`",
        "reports the *available* CPUs (`os.sched_getaffinity`, honoring",
        "cgroup/taskset limits), and the pool's task/result transport",
        "defaults to zero-copy",
        "`multiprocessing.shared_memory` segments (`repro.core.shm`,",
        "`dispatch=\"auto\"|\"sharedmem\"|\"pickle\"`): tasks are int64",
        "rows written once, results land in a float64 column the parent",
        "reads in place, segment names derive deterministically from the",
        "sweep fingerprint, and the parent unlinks both segments in a",
        "`finally` so worker kills, hangs and poison tasks leave zero",
        "orphaned `/dev/shm` entries (chaos-tested).",
        "",
        "At million-replicate scale the store pays off: results",
        "compact from a JSONL write-ahead tail into npz chunks (one",
        "float64 column per metric), so resume loads arrays instead of",
        "parsing a million JSON lines.  Sweep aggregation itself streams",
        "(`StreamingSweepAggregator`, Welford accumulators folded in",
        "canonical replicate order), so memory is O(sweep points), not",
        "O(replicates).  Exact chain solves warm start across processes",
        "through the on-disk `repro.core.memo` layer",
        "(`configure_memo(DIR)`, CLI `--memo-dir DIR`, or the",
        "`REPRO_MEMO_DIR` environment variable): atomic",
        "fingerprint-keyed JSON entries under an `lru_cache`, corrupt",
        "entries read as misses and recomputed, and",
        "`clear_exact_chain_caches()` clears both layers.",
        "",
        "Everything above is observable: pass a",
        "`repro.core.telemetry.MetricsRegistry` as the `telemetry=`",
        "argument accepted by the simulators, sweeps, executor and",
        "store to collect counters (steps, CAS wins/losses,",
        "crashes, retries, store records, resume hits/misses),",
        "gauges and timing histograms, attach a",
        "`SchedulerUniformityObserver` for total-variation distance and",
        "fairness ratios per thread count, and write everything as a",
        "structured JSON run report with `write_run_report` (the CLI's",
        "`--telemetry PATH` flag does all of this for you).  The default",
        "is the no-op `NULL_TELEMETRY`; instrumentation settles at",
        "run/point granularity, never per simulated step, so results are",
        "bit-identical with telemetry on or off and the disabled path",
        "costs nothing (`tools/bench_perf.py`, `telemetry_overhead`",
        "workload, < 2%).",
        "",
    ]
    modules = sorted(
        m.name
        for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not m.name.endswith("__main__")
    )
    for module_name in ["repro"] + modules:
        module = importlib.import_module(module_name)
        symbols = sorted(public_symbols(module), key=lambda kv: kv[0])
        if not symbols:
            continue
        lines.append(f"## `{module_name}`")
        lines.append("")
        if module.__doc__:
            lines.append(module.__doc__.strip().splitlines()[0])
            lines.append("")
        for name, value in symbols:
            if inspect.isclass(value):
                lines.append(f"- **`{name}`** (class) — {first_line(value)}")
                for method_name, method in sorted(vars(value).items()):
                    if method_name.startswith("_"):
                        continue
                    if callable(method) or isinstance(method, property):
                        target = method.fget if isinstance(method, property) else method
                        lines.append(
                            f"  - `{name}.{method_name}` — {first_line(target)}"
                        )
            elif callable(value):
                lines.append(
                    f"- `{name}{signature_of(value)}` — {first_line(value)}"
                )
            else:
                lines.append(f"- `{name}` — constant")
        lines.append("")
    Path(out_path).write_text("\n".join(lines))
    print(f"wrote {out_path}: {len(lines)} lines, {len(modules)} modules")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
