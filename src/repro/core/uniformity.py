"""Mapping the uniformity boundary: latency vs. departure-from-uniform.

The paper proves its latency bounds under the *uniform* stochastic
scheduler and observes (Appendix A) that real schedulers are
approximately uniform.  The natural follow-up — where does "practically
wait-free" break as the scheduler departs from uniform? — is what this
module measures.  For each workload in the zoo
(:mod:`repro.algorithms.registry`) and each scheduler in a *departure
family* (the closed-form :class:`~repro.core.scheduler.EpsilonUniformScheduler`
dial, the contention adversary
:class:`~repro.core.scheduler.ContentionScheduler`, or any custom
builder), one run yields a :class:`DeparturePoint`:

* the **measured** total-variation distance from uniform (the
  :class:`~repro.core.telemetry.SchedulerUniformityObserver` statistic,
  computed from the realised schedule — not the scheduler's nominal
  parameter);
* **p50/p99 invocation latency**, from per-process inter-completion
  gaps after burn-in (each gap is the steps one process needed for one
  method call — the per-invocation latency of an endless closed-system
  workload);
* the system latency, completion rate and min/max fairness ratio.

:func:`departure_curve` strings points into one workload's curve;
:func:`zoo_departure_table` runs the whole zoo and returns the
JSON-ready table the ``repro zoo`` CLI command and the ``bench_perf``
zoo benchmark emit — the deliverable "latency vs departure-from-uniform"
figure across the algorithm zoo, with the randomized TAS lock
(arXiv:2108.04520 flavour) as the fairness baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.registry import Workload, get_workload
from repro.core.scheduler import (
    ContentionScheduler,
    EpsilonUniformScheduler,
    Scheduler,
    UniformStochasticScheduler,
)
from repro.core.telemetry import SchedulerUniformityObserver
from repro.sim.executor import Simulator

SchedulerBuilder = Callable[[], Scheduler]

#: Default epsilon dial for departure families: uniform to heavily skewed.
DEFAULT_EPSILONS: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8)

#: Default contention focus dial (1.0 is exactly uniform).
DEFAULT_FOCUSES: Tuple[float, ...] = (2.0, 4.0, 8.0)


@dataclass(frozen=True)
class DeparturePoint:
    """One (workload, scheduler) measurement on the departure curve."""

    scheduler: str
    tv_distance: float
    fairness_ratio: float
    p50_latency: float
    p99_latency: float
    system_latency: float
    completion_rate: float
    completions: int
    steps: int

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


def epsilon_family(
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    *,
    favored: int = 0,
) -> List[Tuple[str, SchedulerBuilder]]:
    """Labelled builders for the epsilon-from-uniform departure dial."""

    def make(eps: float) -> SchedulerBuilder:
        return lambda: EpsilonUniformScheduler(eps, favored=favored)

    return [(f"epsilon({eps:g})", make(float(eps))) for eps in epsilons]


def contention_family(
    focuses: Sequence[float] = DEFAULT_FOCUSES,
) -> List[Tuple[str, SchedulerBuilder]]:
    """Labelled builders for the contention-adversary departure dial."""

    def make(focus: float) -> SchedulerBuilder:
        return lambda: ContentionScheduler(focus=focus)

    return [(f"contention({focus:g})", make(float(focus))) for focus in focuses]


def default_departure_schedulers() -> List[Tuple[str, SchedulerBuilder]]:
    """Uniform anchor + the epsilon dial + the contention dial."""
    schedulers: List[Tuple[str, SchedulerBuilder]] = [
        ("uniform", UniformStochasticScheduler)
    ]
    schedulers.extend(epsilon_family())
    schedulers.extend(contention_family())
    return schedulers


def _completion_gaps(recorder, burn_in: int) -> np.ndarray:
    """Per-process inter-completion gaps, pooled, after ``burn_in``.

    For an endless closed-system workload each process starts its next
    invocation immediately, so the gap between a process's consecutive
    completions is exactly the latency of one method call.
    """
    times = np.asarray(recorder.completion_times, dtype=np.int64)
    pids = np.asarray(recorder.completion_pids, dtype=np.int64)
    gaps: List[np.ndarray] = []
    for pid in range(recorder.n_processes):
        mine = times[pids == pid]
        mine = mine[mine >= burn_in]
        if mine.size >= 2:
            gaps.append(np.diff(mine))
    if not gaps:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(gaps)


def measure_departure_point(
    workload: Workload,
    scheduler_builder: SchedulerBuilder,
    *,
    label: Optional[str] = None,
    n_processes: int,
    steps: int,
    seed: int = 0,
    burn_in: Optional[int] = None,
    batched: bool = True,
) -> DeparturePoint:
    """Run one workload under one scheduler; measure latency and TV distance.

    Seeding follows the sweep convention — the run RNG is
    ``default_rng((seed, n_processes))`` — so a departure point is
    reproducible independently of which curve it belongs to.  ``batched``
    selects the fast engine, bit-identical to serial for every scheduler:
    contention schedulers run its block loop with the ``observe_pending``
    hook once per step and pick with ``select_from_uniform`` from a block
    of uniforms drawn at once, so both engines consume the same draws and
    leave the RNG and scheduler in the same state.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    resolved_burn_in = steps // 10 if burn_in is None else burn_in
    if not 0 <= resolved_burn_in < steps:
        raise ValueError(
            f"burn_in={resolved_burn_in} must lie in [0, steps={steps})"
        )
    scheduler = scheduler_builder()
    simulator = Simulator(
        workload.factory_builder(),
        scheduler,
        n_processes=n_processes,
        memory=workload.memory_builder(),
        rng=np.random.default_rng((seed, n_processes)),
        record_completion_times=True,
    )
    result = (
        simulator.run_batched(steps) if batched else simulator.run(steps)
    )
    observer = SchedulerUniformityObserver()
    observer.observe_recorder(simulator.recorder)
    gaps = _completion_gaps(simulator.recorder, resolved_burn_in)
    completions = result.completions_this_run
    if gaps.size:
        p50 = float(np.percentile(gaps, 50))
        p99 = float(np.percentile(gaps, 99))
    else:
        p50 = p99 = float("inf")
    system_latency = (
        result.steps_this_run / completions if completions else float("inf")
    )
    return DeparturePoint(
        scheduler=label if label is not None else type(scheduler).__name__,
        tv_distance=observer.total_variation_distance(),
        fairness_ratio=observer.fairness_ratio(),
        p50_latency=p50,
        p99_latency=p99,
        system_latency=float(system_latency),
        completion_rate=float(result.completion_rate),
        completions=int(completions),
        steps=int(result.steps_this_run),
    )


def departure_curve(
    workload: Workload,
    schedulers: Optional[Sequence[Tuple[str, SchedulerBuilder]]] = None,
    *,
    n_processes: int = 8,
    steps: int = 20_000,
    seed: int = 0,
    burn_in: Optional[int] = None,
    batched: bool = True,
) -> List[DeparturePoint]:
    """One workload's latency-vs-departure curve across a scheduler family."""
    if schedulers is None:
        schedulers = default_departure_schedulers()
    return [
        measure_departure_point(
            workload,
            builder,
            label=label,
            n_processes=n_processes,
            steps=steps,
            seed=seed,
            burn_in=burn_in,
            batched=batched,
        )
        for label, builder in schedulers
    ]


def zoo_departure_table(
    workload_names_or_all: Optional[Sequence[str]] = None,
    schedulers: Optional[Sequence[Tuple[str, SchedulerBuilder]]] = None,
    *,
    n_processes: int = 8,
    steps: int = 20_000,
    seed: int = 0,
    burn_in: Optional[int] = None,
    batched: bool = True,
) -> Dict[str, object]:
    """The full zoo table: every workload's departure curve, JSON-ready.

    ``workload_names_or_all=None`` runs every registered workload.  The
    returned dict is the schema both ``repro zoo --out`` and the
    ``bench_perf`` zoo benchmark write::

        {"n_processes": ..., "steps": ..., "seed": ...,
         "workloads": {name: [point dicts sorted by tv_distance]}}
    """
    from repro.algorithms.registry import workload_names

    names = (
        tuple(workload_names_or_all)
        if workload_names_or_all is not None
        else workload_names()
    )
    table: Dict[str, List[Dict[str, object]]] = {}
    for name in names:
        workload = get_workload(name)
        points = departure_curve(
            workload,
            schedulers,
            n_processes=n_processes,
            steps=steps,
            seed=seed,
            burn_in=burn_in,
            batched=batched,
        )
        table[name] = [
            point.as_dict()
            for point in sorted(points, key=lambda p: p.tv_distance)
        ]
    return {
        "n_processes": int(n_processes),
        "steps": int(steps),
        "seed": int(seed),
        "workloads": table,
    }
