"""Latency measurement (Section 2.4's complexity measures).

*System latency* is the expected number of system steps between
consecutive completions of any two invocations; *individual latency* is
the expected number of system steps between consecutive completions of
the *same* process.  The *completion rate* (Appendix B) is completions
per system step, i.e. the inverse of the system latency.

These estimators operate on a :class:`repro.sim.TraceRecorder` after a
run; :func:`measure_latencies` is the one-call convenience that builds a
simulator, runs it with a burn-in (so estimates reflect the stationary
regime the paper analyses), and reports everything at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.sim.executor import Simulator
from repro.sim.memory import Memory
from repro.sim.process import ProcessFactory
from repro.sim.trace import TraceRecorder

RngLike = Union[int, np.random.Generator, None]


def system_latency(recorder: TraceRecorder, *, burn_in: int = 0) -> float:
    """Mean steps between consecutive completions (any process).

    ``burn_in`` drops completions at or before that time step, so the
    estimate reflects stationary behaviour.
    """
    times = np.asarray(recorder.completion_times, dtype=np.int64)
    times = times[times > burn_in]
    if times.size < 2:
        raise ValueError(
            f"need >= 2 completions after burn_in={burn_in} to estimate "
            f"system latency, got {times.size} "
            f"(n={recorder.n_processes}, steps={recorder.total_steps}); "
            "system latency grows with n, so increase steps or lower burn_in"
        )
    return float((times[-1] - times[0]) / (times.size - 1))


def individual_latency(
    recorder: TraceRecorder, pid: int, *, burn_in: int = 0
) -> float:
    """Mean steps between consecutive completions of one process."""
    times = recorder.completion_times_of(pid)
    times = times[times > burn_in]
    if times.size < 2:
        raise ValueError(
            f"process {pid} completed {times.size} times after "
            f"burn_in={burn_in}; need >= 2 "
            f"(n={recorder.n_processes}, steps={recorder.total_steps}); "
            "individual latency is ~n times the system latency, so "
            "increase steps or lower burn_in"
        )
    return float((times[-1] - times[0]) / (times.size - 1))


def individual_latencies(
    recorder: TraceRecorder, *, burn_in: int = 0
) -> Dict[int, float]:
    """Per-process individual latencies (processes with >= 2 completions)."""
    out: Dict[int, float] = {}
    for pid in range(recorder.n_processes):
        times = recorder.completion_times_of(pid)
        times = times[times > burn_in]
        if times.size >= 2:
            out[pid] = float((times[-1] - times[0]) / (times.size - 1))
    return out


def method_latencies(history, *, burn_in: int = 0) -> Dict[str, float]:
    """Mean steps between consecutive completions, per method name.

    The paper's Discussion raises "implementations which export several
    distinct methods"; this measures each method's own system latency
    (e.g. push vs pop of a stack) from a recorded history.
    """
    times_by_method: Dict[str, list] = {}
    for response in history.responses:
        if response.time > burn_in:
            times_by_method.setdefault(response.method, []).append(response.time)
    out: Dict[str, float] = {}
    for method, times in times_by_method.items():
        if len(times) >= 2:
            out[method] = float((times[-1] - times[0]) / (len(times) - 1))
    return out


def validate_burn_in(burn_in: Optional[int], steps: int) -> None:
    """Reject a burn-in that cannot leave any completions to measure.

    Called at every measurement entry point (``measure_latencies*``, the
    sweeps) so the mistake fails loudly up front instead of surfacing as
    a confusing "need >= 2 completions after burn_in" error at the end
    of a long run.  ``None`` (the ``steps // 10`` default) is always
    valid.
    """
    if burn_in is None:
        return
    if burn_in < 0:
        raise ValueError(f"burn_in must be non-negative, got {burn_in}")
    if burn_in >= steps:
        raise ValueError(
            f"burn_in={burn_in} must be < steps={steps}: every completion "
            "would fall inside the burn-in window, leaving nothing to "
            "measure"
        )


def _no_repeat_completion_error(
    n_processes: int, steps: int, burn_in: int
) -> ValueError:
    """The shared 'nothing completed twice' failure, with enough context
    to act on — the first wall users hit at large ``n``."""
    return ValueError(
        f"no process completed twice after burn_in={burn_in} "
        f"(n={n_processes}, steps={steps}); individual latency is "
        "~n times the system latency, so increase steps (or lower burn_in)"
    )


def completion_rate(recorder: TraceRecorder, total_steps: int) -> float:
    """Completions per system step over the whole run (Appendix B)."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    return recorder.total_completions / total_steps


@dataclass(frozen=True)
class LatencyMeasurement:
    """Everything :func:`measure_latencies` reports for one run."""

    n_processes: int
    steps: int
    burn_in: int
    total_completions: int
    system_latency: float
    individual: Dict[int, float]
    completion_rate: float

    @property
    def max_individual_latency(self) -> float:
        """The paper's individual latency: the max over processes."""
        return max(self.individual.values())

    @property
    def mean_individual_latency(self) -> float:
        """Average individual latency across processes."""
        return float(np.mean(list(self.individual.values())))

    @property
    def fairness_ratio(self) -> float:
        """``max individual / (n * system)`` — 1.0 when Lemma 7 holds."""
        return self.max_individual_latency / (self.n_processes * self.system_latency)


def measure_latencies(
    factory: ProcessFactory,
    scheduler,
    n_processes: int,
    steps: int,
    *,
    burn_in: Optional[int] = None,
    memory: Optional[Memory] = None,
    memory_factory: Optional[Callable[[], Memory]] = None,
    crash_times: Optional[Dict[int, int]] = None,
    rng: RngLike = None,
    batched: bool = False,
    telemetry=None,
) -> LatencyMeasurement:
    """Run a fresh simulation and measure its latencies.

    Parameters
    ----------
    factory:
        Process factory used for all processes (symmetric workload).
    scheduler:
        Scheduler instance.
    n_processes, steps:
        Run size.  ``burn_in`` defaults to ``steps // 10``.
    memory / memory_factory:
        Initial shared memory (instance, or a zero-argument builder so the
        same call can be repeated independently).
    crash_times:
        Forwarded to the simulator (Corollary 2 experiments).
    rng:
        Seed or generator for the run.
    batched:
        Drive the run through :meth:`Simulator.run_batched` (the
        trace-equivalent fast path) instead of the step-by-step executor.
        Same seed, same measurement — just faster.
    telemetry:
        Optional :class:`~repro.core.telemetry.MetricsRegistry`; the run
        reports its counters there.  ``None`` (the default) adds no
        overhead and never changes results.
    """
    if memory is not None and memory_factory is not None:
        raise ValueError("pass memory or memory_factory, not both")
    validate_burn_in(burn_in, steps)
    if burn_in is None:
        burn_in = steps // 10
    if memory_factory is not None:
        memory = memory_factory()
    simulator = Simulator(
        factory,
        scheduler,
        n_processes=n_processes,
        memory=memory,
        crash_times=crash_times,
        rng=rng,
        telemetry=telemetry,
    )
    result = simulator.run_batched(steps) if batched else simulator.run(steps)
    individual = individual_latencies(result.recorder, burn_in=burn_in)
    if not individual:
        raise _no_repeat_completion_error(n_processes, result.steps_executed, burn_in)
    return LatencyMeasurement(
        n_processes=n_processes,
        steps=result.steps_executed,
        burn_in=burn_in,
        total_completions=result.recorder.total_completions,
        system_latency=system_latency(result.recorder, burn_in=burn_in),
        individual=individual,
        completion_rate=completion_rate(result.recorder, result.steps_executed),
    )


def resolve_vector_kernel(factory_or_kernel) -> object:
    """The ensemble step kernel for a workload.

    Accepts either a kernel directly (anything exposing ``q``/``s``/
    ``commit``) or a process factory carrying one as ``vector_kernel``
    (factories from :func:`repro.algorithms.cas_counter` /
    :func:`repro.algorithms.scu_algorithm` do).  Raises a
    :class:`ValueError` naming the workload when neither applies, since
    the ensemble engine only resolves SCU-shaped workloads.
    """
    if hasattr(factory_or_kernel, "commit") and hasattr(factory_or_kernel, "q"):
        return factory_or_kernel
    kernel = getattr(factory_or_kernel, "vector_kernel", None)
    if kernel is None:
        raise ValueError(
            f"{factory_or_kernel!r} has no ensemble step kernel: the "
            "ensemble engine resolves SCU-shaped workloads only (factories "
            "from cas_counter()/scu_algorithm() with calls=None expose one "
            "as `.vector_kernel`); use engine=\"batched\" (latency_sweep) "
            "or batched=True (measure_latencies) for other workloads"
        )
    return kernel


def measure_latencies_ensemble(
    factory: ProcessFactory,
    scheduler_builder: Callable[[], object],
    n_processes: int,
    steps: int,
    seeds: Sequence[RngLike],
    *,
    burn_in: Optional[int] = None,
    crash_times: Optional[Dict[int, int]] = None,
    telemetry=None,
    engine_kernel: str = "auto",
) -> "List[LatencyMeasurement]":
    """Measure many independent replicates on the ensemble engine.

    One :class:`LatencyMeasurement` per seed, each bit-identical to
    ``measure_latencies(factory, scheduler_builder(), n_processes, steps,
    rng=seed, crash_times=crash_times, batched=True)`` — the replicates
    are resolved together as array operations instead of one simulation
    at a time (see :class:`repro.sim.EnsembleSimulator`).  No final
    shared memory is rebuilt: measurements never read it.

    ``scheduler_builder`` is a zero-argument builder because every
    replicate needs its *own* scheduler instance (stateful schedulers).
    ``crash_times`` is the executor's ``{pid: time}`` halting-failure
    map, applied to every replicate (Corollary 2 experiments crash the
    same processes in each replicate and vary only the seed).
    ``engine_kernel`` picks the resolve backend (see
    :class:`~repro.sim.EnsembleSimulator`); results are bit-identical on
    every backend.
    """
    from repro.sim.ensemble import EnsembleReplicate, EnsembleSimulator

    validate_burn_in(burn_in, steps)
    kernel = resolve_vector_kernel(factory)
    replicates = [
        EnsembleReplicate(
            kernel=kernel,
            n_processes=n_processes,
            scheduler=scheduler_builder(),
            rng=seed,
            crash_times=dict(crash_times) if crash_times else None,
        )
        for seed in seeds
    ]
    result = EnsembleSimulator(
        replicates,
        telemetry=telemetry,
        engine_kernel=engine_kernel,
    ).run(steps)
    return result.measurements(burn_in=burn_in)
