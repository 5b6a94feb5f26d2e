"""Regenerate EXPERIMENTS.md from a benchmark log.

Usage:
    pytest benchmarks/ --benchmark-only -s 2>&1 | tee /tmp/bench.log
    python tools/generate_experiments.py /tmp/bench.log

Parses the ``== ID: title ==`` experiment blocks each benchmark prints,
pairs them with the per-experiment verdicts below, and writes
EXPERIMENTS.md in a stable order.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ORDER = [
    "FIG1", "FIG3", "FIG4", "FIG5",
    "THM3", "LEM2", "THM4", "THM5",
    "LIFT", "LEM7", "LEM8", "LEM11", "LEM12", "COR2",
    "ABL1", "ABL2", "ABL3", "ABL4",
    "EXT1", "EXT2",
]

VERDICTS = {
    "FIG1": "**Reproduces.** Both chains rebuilt exactly: 8 individual states, 5 system states, every transition probability 1/2, and the clustering verified as a lifting to machine precision.",
    "FIG3": "**Reproduces (with documented substitution).** The hardware-like synthetic scheduler (quantum runs + speed jitter, standing in for the paper's Xeon recordings) yields per-process step shares within a fraction of a percent of the ideal 6.25%, statistically indistinguishable from the uniform model in the long run.",
    "FIG4": "**Reproduces, with the same caveat the paper reports.** After a p1 step, the distribution over *other* processes is flat. Our quantum-based scheduler over-selects the same process locally, the mirror image of the paper's note that their timer-based recording method *under*-selects it; both agree the local structure washes out of the long-run aggregates.",
    "FIG5": "**Reproduces — the paper's headline figure.** The measured completion rate tracks the scaled 1/sqrt(n) prediction within ~7% over the whole sweep (fitted exponent ~ -0.47), matches the exact chain rate within 1%, and pulls away from the 1/n worst case at the predicted sqrt(n) pace.",
    "THM3": "**Reproduces.** Every stochastic scheduler (theta > 0) yields maximal progress — all 8 processes complete operations, worst observed completion time a few hundred steps vs the astronomically loose (1/theta)^T = n^(2n) bound. The theta = 0 adversary starves its victim, confirming the hypothesis is necessary.",
    "LEM2": "**Reproduces.** In every trial at every n, a single process monopolised all completions of Algorithm 1 — at or above the paper's 1 - 2e^{-n} lower bound. Boundedness in Theorem 3 cannot be dropped.",
    "THM4": "**Reproduces.** Simulated system latencies match the exact phase-chain values within Monte-Carlo noise, sit below the q + 4s*sqrt(n) bound at every sweep point, stay well below the Theta(q + sn) worst case at n >= 16, and the fairness ratio W_i/(nW) is 1.0 +- a few percent everywhere.",
    "THM5": "**Reproduces, asymptotically tight as claimed.** Exact W from the system chain across n = 4..512 fits W ~ 1.77 n^0.51; the constant W/sqrt(n) stabilises at ~1.81. Simulation agrees with the exact values at both spot-checked n.",
    "LIFT": "**Reproduces exactly.** All three liftings (Lemmas 5, 10, 13) verify with flow errors at the 1e-16 level, collapsing 2186 -> 35, 1024 -> 56 and 4095 -> 12 states respectively.",
    "LEM7": "**Reproduces exactly.** W_i = nW holds to 1e-9 on both chain families at every n computed, and within ~4% in simulation.",
    "LEM8": "**Reproduces.** Conditional mean phase lengths sit below min(2*4n/sqrt(a), 3*4n/b^(1/3)) at every forced start configuration; at stationarity the third range (a < n/10) is never visited in 20k phases and <1% of phases exceed the inflated high-probability bound.",
    "LEM11": "**Reproduces exactly.** W = q and W_i = nq to 1e-9 from the chains (the doubly-stochastic/uniform-stationary argument), and within 2%/5% in simulation.",
    "LEM12": "**Reproduces, and sharpens the remark.** Chain return time == Z(n-1) == Ramanujan Q(n) *exactly* (not just asymptotically); Q(n) <= 2 sqrt(n) at every n; the sqrt(pi n/2) expansion is within 2% by n = 16; simulation agrees within 2%.",
    "COR2": "**Reproduces.** After n - k crashes the post-transient latency equals the k-process exact value within ~5% at every (n, k), monotone in k.",
    "ABL1": "**Extension.** The latency prediction is robust to *how* the scheduler is fair: bursty quantum scheduling even slightly beats the uniform model (solo runs finish read+CAS uninterfered). Skew leaves the system latency almost unchanged but destroys per-process fairness — practical wait-freedom needs long-run fairness, not local uniformity.",
    "ABL2": "**Extension.** The Theta(sqrt(n)) shape holds for the single-hot-spot structures (Treiber stack ~ n^0.44, universal construction ~ n^0.47). Structures outside strict SCU behave differently: the Michael-Scott queue (two CAS targets) scales somewhat steeper in this workload, while the Harris ordered set — whose operations touch *disjoint* keys — is nearly flat in n, its cost dominated by traversal. The class boundary is visible in the data.",
    "ABL3": "**Extension (negative result for the §8 open question).** Back-off strictly increases system latency in the model at every n, and the sqrt(n) shape persists at every back-off level: within the paper's step-counting cost model, the contention factor is not avoidable by waiting.",
    "ABL4": "**Reproduces the motivating observation.** Under both the uniform and the hardware-like scheduler the stack's per-operation tail is light (p99 within an order of magnitude of the median, max a tiny fraction of the run); only the starvation adversary produces the unbounded worst case — \"the impact of long worst-case executions\" is indeed negligible under realistic scheduling.",
    "EXT1": "**Extension (the §8 open question, answered exactly for small n).** Solving the weighted individual chain without any lifting: system latency moves < 12% across a 10x skew while the slow process's individual latency blows up super-linearly (3.6x at half weight, 76x at a tenth). Simulation confirms the exact numbers within 5%.",
    "EXT2": "**Extension.** The exact phase-type pmf of the completion gap matches the simulated histogram within Monte-Carlo error at every k; the means recover the exact latencies to 1e-9, and both distributions have light tails (p99 within an order of magnitude of the mean) — quantifying the \"timely completion\" the paper's motivation describes.",
}

HEADER = """# EXPERIMENTS — paper vs. measured

Every figure and quantitative theorem in the paper, reproduced.  Each
section shows the raw output of the corresponding benchmark
(`pytest benchmarks/bench_<id>.py --benchmark-only -s`) followed by the
verdict.  Seeds are fixed; all numbers regenerate deterministically.
Regenerate this file with `tools/generate_experiments.py`.

The paper's evaluation artifacts are Figures 3-5 (Appendices A-B) and
Figure 1; since it is a theory paper, the quantitative theorems are
treated as experiments too.  DESIGN.md §4 maps each experiment id to the
modules and bench target; DESIGN.md §7 lists the textual corrections
discovered while reproducing (garbled §6.1.1 transitions, the
periodicity of the Lemma 3 / §6.2 chains, the exact Z(n-1) = Q(n)
identity).

Summary: **all paper claims reproduce** — shapes, crossovers and, where
the theory gives exact values, the numbers themselves.  The ablation and
extension experiments (ABL1-ABL4, EXT1-EXT2) probe the model's stated
open questions and its motivating observation.

Simulation-heavy benchmarks run on the fast engines, each bit-identical
to the step-by-step executor — identical seeds give identical schedules
and numbers.  FIG5, THM4 and THM5 run on the ensemble engine
(`EnsembleSimulator`: whole-schedule draws resolved by the compiled
kernels, enforced by `tests/sim/test_ensemble_equivalence.py`); ABL1
runs on the batched engine (`Simulator.run_batched`, enforced by
`tests/sim/test_batched_equivalence.py`).

## Long-running sweeps: checkpoint, kill, resume

Replicates are seeded by `(seed, n, replicate)`, so a sweep can be
interrupted at any point and resumed without changing a single bit of
the result.  Pass `store=` to journal each completed point to a
columnar store directory, and `resume=True` to re-run only what is
missing:

```python
from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.core.sweep import latency_sweep

points = latency_sweep(
    cas_counter, make_counter_memory, [8, 16, 32, 64],
    steps=200_000, repeats=32, seed=0, store="fig5.store",
)
```

Kill the process mid-run (Ctrl-C is caught by the CLI, which flushes
the store and exits 130), then rerun the *same* call with
`resume=True`: completed replicates load from the store, only the
missing ones execute, and the final table is bit-identical to an
uninterrupted run — the chaos suites in `tests/core/test_chaos_sweep.py`
enforce this across the serial, batched and ensemble engines.  A
store recorded under different sweep parameters (seed, steps,
scheduler class and parameters, crash schedule, ...) is rejected with
a loud mismatch error naming the differing fields.  The engine is not
one of them: the sweep picks it (`engine="auto"`: ensemble for
SCU-shaped workloads under a scheduler that draws ahead, batched
otherwise), every engine gives the same bits, and a store written on
one engine resumes on any other.  A hard kill (SIGKILL, power loss) can
tear the final line of the store's JSONL write-ahead tail mid-append;
resume repairs the tail — the torn fragment is dropped (or its lost
newline restored) before appending — so repeated crash/resume cycles
never corrupt the store.  The same store works across entry points and
worker counts: `repro figure5 --store fig5.store --resume` on the CLI
(`--checkpoint` is another spelling of `--store`), and a store written
in process resumes under `max_workers=4` (or the other way round) to
the same bits.  JSONL checkpoint files from before the store are not
read; passing one fails loudly, and since every replicate is
deterministic, rerunning costs only time.

Worker faults need no babysitting: a pooled sweep retries failed
chunks with capped exponential backoff, isolates a poison replicate by
name, rebuilds crashed pools, and falls back to in-process serial
execution if pools keep dying — at under 5% overhead when nothing goes
wrong (`tools/bench_perf.py`, `chaos_sweep` workload).

## Fast large-ensemble sweeps: stacked kernels and zero-copy dispatch

The ensemble engine stacks same-shape replicates — same `(q, s)` and
resolver kind, across a point's replicate block and across the grid's
thread counts — into schedules resolved in one vectorized pass on
pluggable kernels: `cc` (a small C library compiled by the system
compiler at first use) runs one time-ordered scan for every `SCU(q, s)`
shape, and `numpy` (always available, the bit-identity oracle) keeps
its successor-chain walk and `heapq` scan.  `cc` is the default when a
C compiler is present, and how much to stack follows from the kernel,
not from a setting: `cc` stacks every block, the numpy
chain walk stacks replicates shorter than 4096 steps, and the numpy
`heapq` scan, which gains nothing from stacking, takes one replicate
per block.  A pooled sweep additionally moves tasks and results
through zero-copy shared-memory segments instead of the pickle pipe:

```python
from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.core.sweep import latency_sweep

# One process: the ensemble engine (auto's pick for the CAS counter),
# stacked resolution, fastest available kernel.
points = latency_sweep(
    cas_counter, make_counter_memory, [8, 16, 32, 64],
    steps=200_000, repeats=32, seed=0, engine_kernel="auto",
)

# Worker pool: zero-copy shared-memory dispatch.
points = latency_sweep(
    cas_counter, make_counter_memory, [8, 16, 32, 64],
    steps=200_000, repeats=32, seed=0,
    max_workers=4, dispatch="sharedmem",
)
```

Every combination is bit-identical — `engine_kernel=` and `dispatch=`
trade wall clock only, which `tests/sim/test_ensemble_fused.py` (every
replicate against `Simulator.run_batched`), `tests/sim/test_kernels.py`
and the benchmark harness re-check on every run (`tools/bench_perf.py`,
`fig5_sweep` and `fused_sweep` workloads).  Shared-memory dispatch
ships bare row indices where pickle dispatch ships task tuples out and
result triples back — per-chunk pipe payloads shrink by ~40% at
default chunking (`sharedmem_dispatch` workload) — and the parent
unlinks both segments in a `finally`, so worker kills, hangs and poison
tasks leave zero orphaned `/dev/shm` entries (chaos-enforced by
`tests/core/test_shm_dispatch.py`).

## Saturating all cores: one replicate pool for every engine

There is one multicore mechanism: `max_workers=` on `latency_sweep`.
At `1` (the default) the sweep runs in this process; at `k > 1` the
missing `(n, replicate)` keys go, in chunks, to a `ResilientExecutor`
pool of `k` processes, for every engine.  An ensemble chunk resolves as
one ensemble grid inside its worker, so the ensemble engine keeps its
stacked kernels and gains the cores:

```python
from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.core.runner import available_cpu_count
from repro.core.sweep import latency_sweep

# Every core: chunks of the replicate grid, each one ensemble.
points = latency_sweep(
    cas_counter, make_counter_memory, [8, 16, 32, 64],
    steps=200_000, repeats=32, seed=0,
    max_workers=available_cpu_count(),
)
```

Each replicate keeps its own `(seed, n, replicate)` stream, so every
worker count gives the same bits, crash schedules and resumed stores
included (`tests/sim/test_ensemble_sharded.py`,
`tests/core/test_sweep.py`).  Worker kills, hangs and poison replicates
ride the executor's recovery ladder, and the dispatch segments are
unlinked in a `finally`.  The pool pays for its start-up, so it only
wins on long replicates: on a 2-CPU Xeon host, a 2-worker ensemble pool
ran a 16-replicate grid at 0.55-0.91x the in-process ensemble with 20k
steps per replicate and at 1.13-1.31x with 200k steps (medians of seven
alternating trials, two runs).  Short grids, such as the FIG5
benchmark's, belong in one process.

## Million-replicate sweeps: the columnar store and the disk memo

At millions of replicates a line-per-record journal and in-memory
aggregation would both stop scaling: resume would parse a million JSON
lines and the results dict would hold a million triples.  The store
avoids both — results journal through a small JSONL write-ahead tail
that compacts into columnar npz chunks (one float64 column per metric),
sweep aggregation streams through Welford accumulators (memory O(sweep
points), not O(replicates)), and exact chain solves reused across runs
warm start from an on-disk memo:

```python
from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.core.memo import configure_memo
from repro.core.sweep import latency_sweep

configure_memo("~/.cache/repro-memo")   # or REPRO_MEMO_DIR=...
points = latency_sweep(
    cas_counter, make_counter_memory, [8, 16, 32, 64],
    steps=200_000, repeats=1_000_000, seed=0,
    max_workers=4, store="fig5.store",
)
```

Kill it, rerun with `resume=True`, and the result is bit-identical to
an uninterrupted run (`tests/core/test_store.py` pins it).  The store's
durability guarantees: the fingerprint header (mismatched parameters
are rejected loudly), a torn-tail repair on resume, atomic chunk
writes, last-wins deduplication if a crash lands between a chunk write
and the tail truncate, and a loud refusal of a directory that holds
results but no header.  On the CLI it is `repro figure5 --store DIR --memo-dir DIR`.
A warm memo skips every exact-chain solve — `tools/bench_perf.py`'s
`memo_warm` workload verifies zero recomputes via the memo counters —
and a corrupt memo entry can cost time, never correctness: unreadable
entries read as misses and are recomputed and overwritten.

## Measuring scheduler uniformity

The paper's model rests on the scheduler being (close to) uniformly
random.  To measure how close a given run actually is, attach a
`SchedulerUniformityObserver` to a telemetry registry and pass it to
any sweep or simulator — it accumulates per-process step counts from
every run and reports the total-variation distance from the uniform
distribution plus a min/max fairness ratio, bucketed per thread count:

```python
from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.core.sweep import latency_sweep
from repro.core.telemetry import (
    MetricsRegistry,
    SchedulerUniformityObserver,
    write_run_report,
)

telemetry = MetricsRegistry()
observer = SchedulerUniformityObserver().attach(telemetry)
latency_sweep(
    cas_counter, make_counter_memory, [4, 8, 16],
    steps=100_000, repeats=8, seed=0,
    telemetry=telemetry,
)
print(observer.total_variation_distance(n=16))  # ~0: uniform scheduling
print(observer.fairness_ratio(n=16))            # ~1: everyone gets a share
write_run_report("run_report.json", telemetry, observer=observer)
```

TV distance near 0 and fairness near 1 certify a FIG3-style fair run;
an adversarial scheduler that starves one of `n` processes shows up as
TV = 1/n and fairness 0 (`tests/core/test_telemetry.py` pins both
ends).  The same report — engine counters, store and executor
stats, per-point timings, uniformity — comes out of the CLI via
`repro figure5 --telemetry report.json`, and telemetry never changes
the numbers: all three engines are bit-identical with it on or off.

## Mapping the uniformity boundary

How far from uniform can the scheduler drift before the paper's latency
predictions stop holding — and does the answer depend on the data
structure?  The workload registry (`repro.algorithms.registry`) runs
the whole zoo — the SCU counter, Treiber stack, Michael-Scott queue,
Harris set, universal construction, obstruction pair, and three locks
including the Ben-David–Blelloch-style randomized test-and-set —
through the same `measure_latencies`/`latency_sweep` pipeline as the
counter, and `repro.core.uniformity` sweeps each one across a family of
schedulers at measured departures from uniform:

```console
$ repro zoo --workload cas-counter --workload rtas-lock \
    -n 8 --steps 20000 --epsilons 0,0.2,0.4,0.8 --focuses 4 --out zoo.json
```

Two dials move the departure.  `epsilon:E` mixes a point mass into the
uniform draw (`(1-E)/n` per process plus `E` on one pid) — TV distance
from uniform is exactly `E * (1 - 1/n)`, a clean controlled-degradation
axis.  `contention:F` is the contention adversary: an executor hook
(`observe_pending`) feeds it which processes currently target the same
register, and it reweights those by `F` — a scheduler that chases
contention instead of avoiding it.  Every point in the table pairs the
*measured* TV distance (via `SchedulerUniformityObserver`) with p50/p99
completion-gap latencies, system latency, and the fairness ratio.

The structure-dependence is the finding: on the single-hot-spot CAS
counter the contention adversary degenerates to uniform (every process
always contends on the one register, so the reweighting cancels) and
only the epsilon dial bites — p99 degrades smoothly as TV grows while
system latency *improves* (the favored process streams completions,
echoing EXT1's skew robustness).  On multi-register structures the
adversary finds real leverage: the randomized lock's p99 roughly
doubles under `contention:4` at near-zero TV distance — a scheduler can
hurt tails badly while looking almost uniform to the long-run counter.
The same grammar works everywhere: `repro latency --workload msqueue
--scheduler contention:4`, `repro figure5 --workload treiber` (the
workload name folds into the store fingerprint, so resume refuses
a store recorded for a different structure), and sweep-service specs
accept `"workload": "msqueue", "scheduler": "epsilon:0.4"`.
`tools/bench_perf.py --only zoo_uniformity` regenerates the measured
table and re-checks serial/batched bit-identity under the contention
hook on every run.

## Running the sweep service

For long campaigns — overnight grids, shared machines, sweeps submitted
from scripts — run the sweeps through a daemon instead of a foreground
process.  `repro serve` hosts a durable job queue: every state change
(queued, leased, running, heartbeat, completed, failed, poisoned)
journals to an append-only ledger, and every computed point to an
append-only point journal, both with the same torn-tail repair as the
store's tail.  The daemon can be SIGKILLed at any instant: a restart
replays the ledger, detects orphaned leases (dead owner PID or lapsed
TTL), and resumes each interrupted job from the point journal —
recomputing only the points it had not yet journaled:

```console
$ repro serve --root ~/sweeps --workers 4 &
$ python - <<'PY'
from repro.service import ServiceClient

client = ServiceClient.from_root("~/sweeps")
job = client.submit({
    "n_values": [8, 16, 32, 64],
    "steps": 200_000, "repeats": 32, "seed": 0,
})
print(client.wait(job["job_id"])["state"])    # completed
print(client.result(job["job_id"])["points"])
PY
$ kill -TERM %1    # graceful: drain, flush, release leases, exit 0
```

Specs name no engine: the daemon runs the same automatic choice as
`latency_sweep`, and a spec that still carries `engine` is refused as
an unknown field.  Jobs are content-addressed by their sweep
fingerprint: resubmitting the same spec returns the finished job
(`service.dedupe_hits` counts it), and an *overlapping* grid
warm-starts every already-computed `(n, r)` point from the same point
journal, recomputing only the novel points —
the result is bit-identical to a direct `latency_sweep` either way.
The root holds the two journals and nothing per job: a job adds one
line per new point and one fsync, and its result carries `points`,
`triples`, `warm_points` and `recomputed` (no `store` path any more).
Failed jobs retry with deterministic backoff and are quarantined as
`poisoned` after the retry budget; a full queue rejects loudly with a
structured `queue-full` payload (HTTP 429, `retriable: true`) instead
of buffering unboundedly.  The API is plain HTTP over TCP or a unix
socket (`--socket`): `/submit`, `/status`, `/result`, `/cancel`,
`/jobs`, `/healthz`, and `/metrics` serving the `service.*` telemetry
group.  SIGTERM anywhere in the CLI now matches Ctrl-C: stores
flush and the exit code is 143 (the daemon itself drains and exits 0).
The chaos suite (`tests/service/test_service_recovery.py`) SIGKILLs a
real daemon between lease grant and first heartbeat and proves the
restart re-leases exactly once and converges to the uninterrupted
bytes.
"""


def extract_blocks(text: str) -> dict:
    lines = text.split("\n")
    blocks, current = [], None

    def is_end(line: str) -> bool:
        if re.match(r"^\.+(\s*\[\s*\d+%\])?\s*$", line):
            return True
        if re.match(r"^={10,}", line):
            return True
        if line.startswith("Name (time in"):
            return True
        if re.match(r"^-{5,} benchmark", line):
            return True
        return False

    for line in lines:
        if line.startswith("== ") and line.rstrip().endswith("=="):
            if current:
                blocks.append("\n".join(current).rstrip())
            current = [line]
        elif current is not None:
            if is_end(line):
                blocks.append("\n".join(current).rstrip())
                current = None
            else:
                current.append(line)
    if current:
        blocks.append("\n".join(current).rstrip())
    return {b.split(":", 1)[0].replace("== ", "").strip(): b for b in blocks}


def main(log_path: str, out_path: str = "EXPERIMENTS.md") -> int:
    by_id = extract_blocks(Path(log_path).read_text())
    missing = [bid for bid in ORDER if bid not in by_id]
    if missing:
        print(f"missing experiment blocks: {missing}", file=sys.stderr)
        return 1
    parts = [HEADER]
    for bid in ORDER:
        block = by_id[bid]
        title = block.split("\n", 1)[0].strip("= ").strip()
        parts.append(f"## {title}\n")
        parts.append(f"```text\n{block}\n```\n")
        parts.append(VERDICTS[bid] + "\n")
    Path(out_path).write_text("\n".join(parts))
    print(f"wrote {out_path} with {len(ORDER)} experiments")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__)
        raise SystemExit(2)
    raise SystemExit(main(*sys.argv[1:]))
