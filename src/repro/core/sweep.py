"""Repeated-measurement sweeps with confidence intervals.

The benchmarks report single seeded runs (deterministic, diff-friendly);
downstream users doing their own studies want repeated runs and error
bars.  :func:`latency_sweep` measures an algorithm across process counts
with independent replicates and Student-t confidence intervals, in this
process (``max_workers=1``) or fanned out over worker processes
(``max_workers > 1``) — replicate seeds are derived identically either
way, so the two produce bit-identical results.  :func:`parallel_sweep`
is the historical pooled entry point and forwards to it.

Three engines drive the replicates: ``"serial"`` steps the simulator
one step at a time, ``"batched"`` uses the trace-equivalent block fast
path (:meth:`repro.sim.Simulator.run_batched`), and ``"ensemble"``
resolves all replicates together as array operations
(:class:`repro.sim.EnsembleSimulator`).  All three produce bit-identical
numbers for the same seeds, so the engine is a speed choice that sweeps
make themselves (:func:`select_engine`) and that no fingerprint holds;
``engine=`` names one only as the bit-identity suites' oracle selector.

Long sweeps are *fault-tolerant*: pooled sweeps run on a
:class:`repro.core.runner.ResilientExecutor` (worker crashes, hangs and
pool deaths are retried with backoff, isolated, or degraded to
in-process execution — never silently dropped), and every sweep accepts
``store=``/``resume=`` (a chunked columnar
:class:`repro.core.store.ColumnarSweepStore`, the one durable result
journal) so an interrupted sweep re-runs only the missing replicates.  Aggregation is streaming
(:class:`StreamingSweepAggregator`): replicate triples fold into
Welford accumulators as they land, so sweep memory is O(sweep points),
not O(replicates).  None of this machinery can change results: every
replicate is pure work keyed by ``(seed, n, replicate)``, so a retried
or resumed replicate recomputes exactly the bytes the uninterrupted run
would have produced.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.checkpoint import (
    CrashTimesLike,
    ResolvedCrashSchedule,
    sweep_fingerprint,
)
from repro.core.latency import (
    measure_latencies,
    resolve_vector_kernel,
    validate_burn_in,
)
from repro.core.runner import (
    ResilientExecutor,
    RetryPolicy,
    TaskError,
    available_cpu_count,
    validate_max_workers,
)
from repro.core.scheduler import Scheduler, UniformStochasticScheduler
from repro.sim.memory import Memory
from repro.sim.process import ProcessFactory
from repro.core.store import ColumnarSweepStore
from repro.stats.estimators import (
    MeanEstimate,
    StreamingMeanEstimator,
)

_ENGINES = ("auto", "serial", "batched", "ensemble")
_DISPATCHES = ("auto", "pickle", "sharedmem")

# Crash schedules for sweeps (``CrashTimesLike``): one ``{pid: time}``
# map applied at every process count, a callable ``n -> {pid: time}`` so
# the crash set can scale with the sweep point (the Corollary 2 shape:
# crash all but ``k`` of ``n``), or an already-resolved
# :class:`ResolvedCrashSchedule`.  The sweep resolves the schedule
# exactly once, up front, and feeds the *same* resolved map to the
# fingerprint and to every replicate — a stateful or nondeterministic
# callable can no longer diverge the stored fingerprint from the
# executed crash config.  A side effect: the resolved schedule is a
# plain frozen dataclass of dicts, so a pooled sweep does not need the
# callable itself to be picklable.


def _resolve_crash_times(
    crash_times: CrashTimesLike, n: int
) -> Optional[Dict[int, int]]:
    """The crash map for one sweep point."""
    if crash_times is None:
        return None
    if isinstance(crash_times, ResolvedCrashSchedule):
        return crash_times.for_n(n)
    if callable(crash_times):
        return crash_times(n)
    return crash_times


@dataclass(frozen=True)
class SweepPoint:
    """Measurements at one process count."""

    n: int
    system_latency: MeanEstimate
    completion_rate: MeanEstimate
    fairness_ratio: MeanEstimate


def select_engine(factory: ProcessFactory, scheduler: Scheduler) -> str:
    """The engine ``engine="auto"`` runs for this factory and scheduler.

    ``"ensemble"`` when the factory carries a ``vector_kernel`` and the
    scheduler has no ``observe_pending`` hook (whole schedules are drawn
    ahead), else ``"batched"``.
    """
    if getattr(factory, "vector_kernel", None) is None:
        return "batched"
    if getattr(scheduler, "observe_pending", None) is not None:
        return "batched"
    return "ensemble"


def _run_replicate(
    factory_builder: Callable[[], ProcessFactory],
    memory_builder: Callable[[], Memory],
    scheduler_builder: Callable[[], Scheduler],
    n: int,
    steps: int,
    seed: int,
    replicate: int,
    batched: bool,
    burn_in: Optional[int] = None,
    crash_times: CrashTimesLike = None,
    telemetry=None,
) -> Tuple[float, float, float]:
    """One independent replicate of one sweep point.

    Module-level (not a closure) so pooled sweeps can ship it to worker
    processes; the ``(seed, n, replicate)`` seed tuple is the single
    source of randomness, which is what makes in-process and pooled
    sweeps bit-identical.  ``telemetry`` is only ever non-None
    in-process (registries are not shipped to workers).
    """
    measurement = measure_latencies(
        factory_builder(),
        scheduler_builder(),
        n_processes=n,
        steps=steps,
        burn_in=burn_in,
        memory=memory_builder(),
        crash_times=_resolve_crash_times(crash_times, n),
        rng=(seed, n, replicate),
        batched=batched,
        telemetry=telemetry,
    )
    return (
        measurement.system_latency,
        measurement.completion_rate,
        measurement.fairness_ratio,
    )


def _chunk_worker(
    pairs: Sequence[Tuple[int, int]],
    factory_builder: Callable[[], ProcessFactory],
    memory_builder: Callable[[], Memory],
    scheduler_builder: Callable[[], Scheduler],
    steps: int,
    seed: int,
    engine: str,
    burn_in: Optional[int],
    crash_times: CrashTimesLike,
    engine_kernel: str = "auto",
) -> List[Tuple[float, float, float]]:
    """A chunk of ``(n, replicate)`` tasks, run back-to-back in one worker.

    The task keys come first — the calling convention
    :class:`~repro.core.runner.ResilientExecutor` (and the chaos harness
    wrapping it) uses.  An ensemble chunk resolves as one ensemble grid
    (:func:`_run_ensemble_grid`); the other engines run one replicate
    at a time.  Each replicate still derives its own
    ``(seed, n, replicate)`` seed, so chunking cannot affect results.
    """
    if engine == "ensemble":
        results: Dict[Tuple[int, int], Tuple[float, float, float]] = {}
        _run_ensemble_grid(
            factory_builder,
            scheduler_builder,
            pairs,
            steps,
            seed,
            burn_in,
            crash_times,
            results.__setitem__,
            None,
            engine_kernel=engine_kernel,
        )
        return [results[pair] for pair in pairs]
    return [
        _run_replicate(
            factory_builder,
            memory_builder,
            scheduler_builder,
            n,
            steps,
            seed,
            replicate,
            engine == "batched",
            burn_in,
            crash_times,
        )
        for n, replicate in pairs
    ]


def _shm_chunk_worker(
    rows: Sequence[int],
    task_name: str,
    result_name: str,
    task_count: int,
    *run_args,
) -> List[int]:
    """The shared-memory twin of :func:`_chunk_worker`.

    Task keys are *row indices* into the sweep's shared task segment;
    the worker reads each row's ``(n, replicate)`` pair from shared
    memory, runs the chunk, and writes the triples into the shared
    result segment in place — nothing but the row indices ever crosses
    the pickle pipe.  Returning the rows satisfies the executor's
    one-result-per-key contract and tells the parent which result rows
    are ready to read.  Retries rewrite identical bytes (replicates are
    pure functions of ``(seed, n, replicate)``), so recovery is
    idempotent.
    """
    from repro.core.shm import attach_array

    tasks = attach_array(task_name, (task_count, 2), np.int64)
    results = attach_array(result_name, (task_count, 3), np.float64)
    pairs = [(int(tasks[row, 0]), int(tasks[row, 1])) for row in rows]
    for row, triple in zip(rows, _chunk_worker(pairs, *run_args)):
        results[row] = triple
    return list(rows)


def _note_point_telemetry(telemetry, n: int, replicates: int, seconds: float) -> None:
    """Settle one sweep point's wall time and replicate count."""
    telemetry.inc("sweep.points")
    telemetry.inc("sweep.replicates", replicates)
    telemetry.observe("sweep.point_seconds", seconds)
    telemetry.emit(
        "sweep.point",
        {"n": n, "replicates": replicates, "seconds": seconds},
    )


def _note_grid_telemetry(
    telemetry, pending: Sequence[Tuple[int, int]], seconds: float
) -> None:
    """Per-point telemetry for replicates resolved together.

    One ``sweep.point`` event per ``n``, with the elapsed wall time
    apportioned by the point's share of the replicates (per-point timing
    is not individually observable once points share a stacked block or
    a worker pool).
    """
    counts: Dict[int, int] = {}
    for n, _ in pending:
        counts[n] = counts.get(n, 0) + 1
    for n, replicates in counts.items():
        _note_point_telemetry(
            telemetry, n, replicates, seconds * replicates / len(pending)
        )


class StreamingSweepAggregator:
    """Streaming per-``(n, metric)`` aggregation for sweep results.

    Three :class:`StreamingMeanEstimator` accumulators per sweep point
    (system latency, completion rate, fairness ratio), fed one replicate
    triple at a time via :meth:`add` — memory is O(sweep points), not
    O(replicates), which is what makes million-replicate sweeps fit.

    Replicates may :meth:`add` in *any* order (parallel sweeps complete
    out of order; resumed sweeps replay the log first), but the
    accumulators are always folded in canonical ``replicate`` order:
    out-of-order arrivals wait in a small pending buffer until the gap
    before them fills.  Folding order is therefore a function of the
    sweep's task set alone, never of scheduling — which is why serial,
    batched, ensemble, parallel and resumed runs of the same sweep
    produce bit-identical :class:`SweepPoint` lists.
    """

    def __init__(self, n_values: Sequence[int], repeats: int):
        if repeats < 2:
            raise ValueError("repeats must be at least 2 for confidence intervals")
        self._n_values = list(n_values)
        self._repeats = repeats
        self._accumulators: Dict[int, Tuple[StreamingMeanEstimator, ...]] = {
            n: tuple(StreamingMeanEstimator() for _ in range(3))
            for n in self._n_values
        }
        self._pending: Dict[int, Dict[int, Tuple[float, float, float]]] = {
            n: {} for n in self._n_values
        }
        self._cursor: Dict[int, int] = {n: 0 for n in self._n_values}

    def add(self, key: Tuple[int, int], triple: Sequence[float]) -> None:
        """Fold one replicate's ``(latency, rate, fairness)`` triple."""
        n, r = key
        if n not in self._accumulators:
            raise KeyError(f"replicate key {key} has n outside the sweep")
        if not 0 <= r < self._repeats:
            raise KeyError(
                f"replicate key {key} has replicate outside [0, {self._repeats})"
            )
        pending = self._pending[n]
        if r < self._cursor[n] or r in pending:
            raise ValueError(f"replicate {key} was already added")
        pending[r] = (float(triple[0]), float(triple[1]), float(triple[2]))
        cursor = self._cursor[n]
        accumulators = self._accumulators[n]
        while cursor in pending:
            for accumulator, value in zip(accumulators, pending.pop(cursor)):
                accumulator.add(value)
            cursor += 1
        self._cursor[n] = cursor

    @property
    def pending_count(self) -> int:
        """Replicates buffered out-of-order, awaiting an earlier gap."""
        return sum(len(pending) for pending in self._pending.values())

    @property
    def completed_count(self) -> int:
        """Replicates already folded into the accumulators."""
        return sum(self._cursor.values())

    def points(self, confidence: float) -> List[SweepPoint]:
        """The finished :class:`SweepPoint` list; every replicate must
        have been added."""
        missing = [
            n
            for n in self._n_values
            if self._cursor[n] != self._repeats
        ]
        if missing:
            raise ValueError(
                f"sweep points n={missing} are missing replicates "
                f"(expected {self._repeats} each)"
            )
        points: List[SweepPoint] = []
        for n in self._n_values:
            latency, rate, fairness = self._accumulators[n]
            points.append(
                SweepPoint(
                    n=n,
                    system_latency=latency.estimate(confidence),
                    completion_rate=rate.estimate(confidence),
                    fairness_ratio=fairness.estimate(confidence),
                )
            )
        return points


_GRID_FUSE_STEPS = 32_000_000  # upfront-drawn schedule budget per grid chunk

#: One :class:`~repro.sim.ensemble.EnsembleWorkspace` per thread, so the
#: daemon's worker threads never share one; a forked pool worker starts
#: from a private copy of its parent's.
_THREAD_STATE = threading.local()


def _thread_workspace():
    """The calling thread's ensemble workspace, made on first use."""
    from repro.sim.ensemble import EnsembleWorkspace

    workspace = getattr(_THREAD_STATE, "workspace", None)
    if workspace is None:
        workspace = _THREAD_STATE.workspace = EnsembleWorkspace()
    return workspace


def release_thread_workspace() -> None:
    """Let the calling thread's ensemble workspace memory go.

    A long-lived thread calls this when it goes idle (the daemon's
    workers do when their queue is empty), so it holds no sweep memory
    between bursts of jobs; its next sweep maps afresh.
    """
    workspace = getattr(_THREAD_STATE, "workspace", None)
    if workspace is not None:
        workspace.release()


def _run_ensemble_grid(
    factory_builder: Callable[[], ProcessFactory],
    scheduler_builder: Callable[[], Scheduler],
    pending: Sequence[Tuple[int, int]],
    steps: int,
    seed: int,
    burn_in: Optional[int],
    schedule: CrashTimesLike,
    note: Callable[[Tuple[int, int], Tuple[float, float, float]], None],
    telemetry,
    engine_kernel: str = "auto",
) -> None:
    """Resolve the ``pending`` ``(n, r)`` replicates as ensembles.

    Every pending replicate across *all* sweep points joins one ensemble
    (chunked so at most ``_GRID_FUSE_STEPS`` schedule steps are drawn up
    front per chunk), and the engine stacks same-shape replicates
    regardless of ``n`` where its kernel profits — one vectorized pass
    can cover the whole n-grid, not just one point's replicate block.  Replicates keep
    their ``(seed, n, r)`` seeds and dedicated scheduler instances, so
    results are bit-identical to the per-point path.  They carry no
    memory, so no final memory is rebuilt: only the measurement triples
    are kept.  Chunks run in the calling thread's ensemble workspace, so
    steady-state sweeps reuse their block stacks and success buffers;
    each chunk's result is dropped once measured, before the next chunk
    overwrites it.  ``note`` fires in ``pending`` order.
    """
    from repro.sim.ensemble import EnsembleReplicate, EnsembleSimulator

    if not pending:
        return
    kernel = resolve_vector_kernel(factory_builder())
    crash_of: Dict[int, Optional[Dict[int, int]]] = {}
    for n, _ in pending:
        if n not in crash_of:
            crash = _resolve_crash_times(schedule, n)
            crash_of[n] = dict(crash) if crash else None
    grid_started = time.perf_counter() if telemetry is not None else 0.0
    chunk = max(1, _GRID_FUSE_STEPS // max(steps, 1))
    workspace = _thread_workspace()
    for start in range(0, len(pending), chunk):
        block = pending[start : start + chunk]
        members = [
            EnsembleReplicate(
                kernel=kernel,
                n_processes=n,
                scheduler=scheduler_builder(),
                rng=(seed, n, r),
                crash_times=dict(crash_of[n]) if crash_of[n] else None,
            )
            for n, r in block
        ]
        result = EnsembleSimulator(
            members,
            telemetry=telemetry,
            engine_kernel=engine_kernel,
            workspace=workspace,
        ).run(steps)
        measurements = result.measurements(burn_in=burn_in)
        del result
        for key, measurement in zip(block, measurements):
            note(
                key,
                (
                    measurement.system_latency,
                    measurement.completion_rate,
                    measurement.fairness_ratio,
                ),
            )
    if telemetry is not None:
        _note_grid_telemetry(
            telemetry, pending, time.perf_counter() - grid_started
        )


def _run_pooled(
    tasks: List[Tuple[int, int]],
    run_args: Tuple,
    note: Callable[[Tuple[int, int], Tuple[float, float, float]], None],
    *,
    max_workers: int,
    chunk_size: Optional[int],
    retry: Optional[RetryPolicy],
    pool_factory: Optional[Callable],
    dispatch: str,
    fingerprint: Dict[str, object],
    telemetry,
) -> None:
    """Run ``tasks`` on a :class:`ResilientExecutor` pool.

    ``run_args`` are :func:`_chunk_worker`'s arguments after the task
    keys.  Under shared-memory dispatch the executor's keys are row
    indices into a :class:`~repro.core.shm.SweepTaskBuffers` pair whose
    segments are named off the sweep ``fingerprint`` and unlinked in
    ``finally``; a poison row is re-raised as a :class:`TaskError`
    naming its ``(n, replicate)`` pair.
    """
    buffers = None
    if dispatch != "pickle":
        try:
            from repro.core.shm import SweepTaskBuffers, segment_digest

            buffers = SweepTaskBuffers(
                tasks, segment_digest(fingerprint), telemetry=telemetry
            )
        except Exception:
            if dispatch == "sharedmem":
                raise
            # auto: the platform refused (no /dev/shm, tiny rlimits, ...)
            # — dispatch is transport only, so degrade to pickle.
            if telemetry is not None and telemetry.enabled:
                telemetry.inc("shm.fallbacks")
    executor = ResilientExecutor(
        _chunk_worker if buffers is None else _shm_chunk_worker,
        max_workers=max_workers,
        policy=retry,
        pool_factory=pool_factory,
        telemetry=telemetry,
    )
    # ``on_result`` fires exactly once per task, so the aggregator sees
    # every replicate; ``collect=False`` keeps the executor from
    # building a second O(replicates) dict.
    if buffers is None:
        executor.run(
            tasks, run_args, chunk_size=chunk_size, on_result=note, collect=False
        )
        return
    try:
        executor.run(
            list(range(len(tasks))),
            (buffers.task_name, buffers.result_name, buffers.task_count)
            + run_args,
            chunk_size=chunk_size,
            on_result=lambda row, _: note(buffers.key_of(row), buffers.triple(row)),
            collect=False,
        )
    except TaskError as error:
        if isinstance(error.key, int):
            raise TaskError(tasks[error.key], error.cause) from error.cause
        raise
    finally:
        buffers.close()


def _collect_points(
    n_values: Sequence[int],
    repeats: int,
    results: Dict[Tuple[int, int], Tuple[float, float, float]],
    confidence: float,
) -> List[SweepPoint]:
    """Aggregate a completed results dict into sweep points.

    Delegates to :class:`StreamingSweepAggregator` so batch and
    streaming aggregation are a single code path producing identical
    bits.
    """
    aggregator = StreamingSweepAggregator(n_values, repeats)
    for n in n_values:
        for r in range(repeats):
            aggregator.add((n, r), results[(n, r)])
    return aggregator.points(confidence)


def latency_sweep(
    factory_builder: Callable[[], ProcessFactory],
    memory_builder: Callable[[], Memory],
    n_values: Sequence[int],
    *,
    steps: int = 100_000,
    repeats: int = 5,
    scheduler_builder: Optional[Callable[[], Scheduler]] = None,
    confidence: float = 0.95,
    seed: int = 0,
    engine: str = "auto",
    burn_in: Optional[int] = None,
    crash_times: CrashTimesLike = None,
    store=None,
    resume: bool = False,
    on_progress: Optional[Callable[[int, int, Tuple[int, int]], None]] = None,
    telemetry=None,
    engine_kernel: str = "auto",
    workload: Optional[str] = None,
    max_workers: int = 1,
    chunk_size: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    pool_factory: Optional[Callable] = None,
    dispatch: str = "auto",
) -> List[SweepPoint]:
    """Measure latencies across ``n_values`` with ``repeats`` replicates.

    Each replicate gets a fresh factory, memory, scheduler and seed, so
    the replicates are independent and the confidence intervals honest
    (the ensemble engine never calls ``memory_builder``: it measures
    without rebuilding final memory).
    ``engine="auto"`` runs :func:`select_engine`'s pick, made once in
    this process; ``"serial"``/``"batched"``/``"ensemble"`` force one (an
    ensemble the workload cannot run raises ``ValueError``).
    ``engine_kernel`` picks the ensemble engine's resolve backend (see
    :class:`~repro.sim.EnsembleSimulator`) and is validated whichever
    engine runs; every engine and backend gives the same bits.

    ``max_workers`` is the number of processes.  ``1`` (the default)
    runs every replicate in this process.  Any larger int sends the
    missing ``(n, replicate)`` keys, in chunks of ``chunk_size``
    (``None``: about four chunks per worker), to a fault-tolerant
    :class:`~repro.core.runner.ResilientExecutor` pool — for every
    engine; an ensemble chunk resolves as one ensemble grid.  A sweep with
    a single missing replicate stays in process: one task cannot run in
    parallel.  Each replicate keeps its own ``(seed, n, replicate)``
    stream, so the worker count never changes a bit.  On a 2-CPU Xeon
    host a 2-worker ensemble pool ran 16 replicates x 20k steps at
    0.55-0.91x the in-process ensemble and 16 x 200k at 1.13-1.31x:
    pool start-up only pays off on long replicates.

    The pool retries failed or timed-out chunks with capped exponential
    backoff and deterministic jitter, splits repeat offenders down to
    single replicates (a poison replicate raises
    :class:`~repro.core.runner.TaskError` naming its ``(n, replicate)``),
    rebuilds a broken pool, and after ``retry.fallback_after``
    consecutive pool failures runs the rest in this process.  ``retry``
    tunes this (default :class:`RetryPolicy`; its ``timeout`` is the
    per-chunk deadline).  ``pool_factory`` swaps the pool class — the
    fault-injection hook :class:`repro.testing.chaos.ChaosPool` plugs in
    there.  ``dispatch`` picks the transport: ``"sharedmem"`` moves task
    keys and result triples through ``multiprocessing.shared_memory``
    segments (:class:`repro.core.shm.SweepTaskBuffers`; chunks then
    carry row indices, and chaos plans key faults by row), ``"pickle"``
    through the pool's pipe, and ``"auto"`` tries shared memory and
    falls back to pickle (counted as ``shm.fallbacks``).  The segments
    are unlinked before this function returns, faults included.  Pooled
    builders must be picklable (module-level functions or
    ``functools.partial`` over them); a callable ``crash_times`` need
    not be, because only its resolved schedule ships.

    ``crash_times`` turns the sweep into a halting-failure study
    (Corollary 2): a ``{pid: time}`` map applied at every sweep point, a
    callable ``n -> {pid: time}`` when the crash set depends on the
    process count, or a pre-resolved
    :class:`~repro.core.checkpoint.ResolvedCrashSchedule`.  A callable
    is resolved exactly once, up front; the fingerprint and every
    replicate see the same resolved map.  All three engines accept it
    and stay bit-identical.  ``burn_in`` overrides the per-replicate
    burn-in (default ``steps // 10``) — crash sweeps usually want it
    past the crash transient.

    ``store`` names a :class:`~repro.core.store.ColumnarSweepStore`
    directory; finished replicates are appended as they land, and
    ``resume=True`` skips the ones already recorded (after validating
    the store belongs to *this* sweep).  Resuming, at any worker count,
    is bit-identical to the uninterrupted run.  ``on_progress(done, total, (n, replicate))`` fires after each
    replicate.  None of this can change the numbers.

    ``telemetry`` (a :class:`~repro.core.telemetry.MetricsRegistry`)
    records per-point wall time, replicate counts and throughput, plus
    every engine/store counter along the way — engine counters
    in-process only, since registries stay in this process (a pool
    reports its executor and ``shm.*`` counters instead).  Telemetry
    observes the sweep and never feeds back into it — results are
    bit-identical with it on or off.

    ``workload`` names the registered workload the builders came from
    (:mod:`repro.algorithms.registry`); it is folded into the store
    fingerprint so stores of different workloads can never be confused,
    and is otherwise inert.  ``None`` keeps the historical CAS-counter
    fingerprints valid.
    """
    if repeats < 2:
        raise ValueError("repeats must be at least 2 for confidence intervals")
    validate_burn_in(burn_in, steps)
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    from repro.sim.kernels import KERNEL_NAMES, get_kernel

    if engine_kernel not in KERNEL_NAMES:
        raise ValueError(
            f"unknown engine kernel {engine_kernel!r}; expected one of "
            f"{KERNEL_NAMES}"
        )
    validate_max_workers(max_workers)
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if dispatch not in _DISPATCHES:
        raise ValueError(
            f"unknown dispatch {dispatch!r}; expected one of {_DISPATCHES}"
        )
    if resume and store is None:
        raise ValueError("resume=True requires store=<dir>")
    if scheduler_builder is None:
        scheduler_builder = UniformStochasticScheduler
    scheduler = scheduler_builder()
    factory = factory_builder()
    selected = select_engine(factory, scheduler)
    if engine == "auto":
        engine = selected
    elif engine == "ensemble" and selected != "ensemble":
        # Fail here rather than in (and again in every retry of) a worker.
        resolve_vector_kernel(factory)
        raise ValueError(
            "the ensemble engine draws whole schedules and cannot feed "
            "a contention scheduler's observe_pending hook; use the "
            "serial or batched engine"
        )
    telemetry_on = telemetry is not None and telemetry.enabled
    schedule = ResolvedCrashSchedule.resolve(crash_times, n_values)
    fingerprint = sweep_fingerprint(
        seed=seed,
        steps=steps,
        scheduler=scheduler,
        n_values=n_values,
        repeats=repeats,
        burn_in=burn_in,
        crash_times=schedule,
        workload=workload,
    )
    log = None
    if store is not None:
        log = ColumnarSweepStore.open(
            store, fingerprint, resume=resume, telemetry=telemetry
        )
    aggregator = StreamingSweepAggregator(n_values, repeats)
    recorded = set()
    if log is not None:
        for key, triple in log.completed.items():
            aggregator.add(key, triple)
            recorded.add(key)
    total = len(n_values) * repeats
    done = len(recorded)
    if telemetry_on and log is not None and resume:
        telemetry.inc("store.resume_misses", total - done)
    sweep_started = time.perf_counter() if telemetry_on else 0.0
    run_replicates = total - done

    def note(key: Tuple[int, int], triple: Tuple[float, float, float]) -> None:
        nonlocal done
        done += 1
        aggregator.add(key, triple)
        if log is not None:
            log.record(key[0], key[1], triple)
        if on_progress is not None:
            on_progress(done, total, key)

    def missing() -> List[Tuple[int, int]]:
        return [
            (n, r)
            for n in n_values
            for r in range(repeats)
            if (n, r) not in recorded
        ]

    try:
        if max_workers > 1 and run_replicates > 1:
            if engine == "ensemble":
                # Load the kernel here, so forked workers inherit it
                # instead of each loading it again, and an unavailable
                # one fails here rather than in every retry of a worker.
                get_kernel(engine_kernel)
            tasks = missing()
            _run_pooled(
                tasks,
                (
                    factory_builder,
                    memory_builder,
                    scheduler_builder,
                    steps,
                    seed,
                    engine,
                    burn_in,
                    schedule,
                    engine_kernel,
                ),
                note,
                max_workers=max_workers,
                chunk_size=chunk_size,
                retry=retry,
                pool_factory=pool_factory,
                dispatch=dispatch,
                fingerprint=fingerprint,
                telemetry=telemetry,
            )
            if telemetry_on:
                _note_grid_telemetry(
                    telemetry, tasks, time.perf_counter() - sweep_started
                )
        elif engine == "ensemble":
            _run_ensemble_grid(
                factory_builder,
                scheduler_builder,
                missing(),
                steps,
                seed,
                burn_in,
                schedule,
                note,
                telemetry if telemetry_on else None,
                engine_kernel=engine_kernel,
            )
        else:
            for n in n_values:
                point_started = time.perf_counter() if telemetry_on else 0.0
                point_replicates = 0
                for r in range(repeats):
                    if (n, r) in recorded:
                        continue
                    triple = _run_replicate(
                        factory_builder,
                        memory_builder,
                        scheduler_builder,
                        n,
                        steps,
                        seed,
                        r,
                        engine == "batched",
                        burn_in,
                        schedule,
                        telemetry,
                    )
                    note((n, r), triple)
                    point_replicates += 1
                if telemetry_on and point_replicates:
                    _note_point_telemetry(
                        telemetry,
                        n,
                        point_replicates,
                        time.perf_counter() - point_started,
                    )
    finally:
        if log is not None:
            log.close()
    if telemetry_on:
        elapsed = time.perf_counter() - sweep_started
        if run_replicates and elapsed > 0:
            telemetry.set_gauge(
                "sweep.replicates_per_sec", run_replicates / elapsed
            )
    return aggregator.points(confidence)


def parallel_sweep(
    *args, max_workers: Optional[int] = None, **kwargs
) -> List[SweepPoint]:
    """:func:`latency_sweep` on a process pool.

    ``max_workers=None`` means one worker per *available* CPU
    (:func:`~repro.core.runner.available_cpu_count`); every other
    argument passes through unchanged.
    """
    if max_workers is None:
        max_workers = available_cpu_count()
    return latency_sweep(*args, max_workers=max_workers, **kwargs)


def sweep_table(points: Sequence[SweepPoint], *, precision: int = 3) -> str:
    """Render a sweep as an aligned table with +- half-widths."""
    from repro.bench.formats import format_table

    rows = []
    for point in points:
        rows.append(
            (
                point.n,
                f"{point.system_latency.mean:.{precision}f} "
                f"+- {point.system_latency.half_width:.{precision}f}",
                f"{point.completion_rate.mean:.{precision}f} "
                f"+- {point.completion_rate.half_width:.{precision}f}",
                f"{point.fairness_ratio.mean:.{precision}f}",
            )
        )
    return format_table(
        ["n", "system latency", "completion rate", "fairness"], rows
    )
