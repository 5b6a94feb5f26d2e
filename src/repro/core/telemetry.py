"""Telemetry: metrics, spans, event hooks, and structured run reports.

The paper's empirical backbone (Appendix A, Figures 3-4) is an
*observation* claim — real schedulers are approximately uniform over
long executions — yet a reproduction with no observability cannot turn
that measurement on itself.  This module gives every layer of the stack
a way to report what it actually did:

* :class:`MetricsRegistry` — named counters, gauges and histograms,
  plus :meth:`MetricsRegistry.span` wall-clock timers and a small
  publish/subscribe event protocol (:meth:`MetricsRegistry.subscribe` /
  :meth:`MetricsRegistry.emit`).
* :class:`NullMetricsRegistry` / :data:`NULL_TELEMETRY` — the
  zero-overhead default.  Every instrumented component accepts
  ``telemetry=None`` and guards its instrumentation with a single
  ``is not None and .enabled`` check, so results and performance are
  untouched when telemetry is off (``tools/bench_perf.py`` prices this
  at well under 2% on a batched FIG5 sweep, and the bit-identity suites
  run with telemetry both on and off).
* :class:`SchedulerUniformityObserver` — the Appendix A measurement
  turned on our own runs: it accumulates the empirical per-process step
  distribution (via the ``sim.run`` event every engine emits) and
  reports the total-variation distance from the uniform distribution
  plus a min/max fairness ratio, per process count.
* :func:`write_run_report` — a structured JSON run report combining a
  registry's metrics with an observer's uniformity verdict; surfaced on
  the CLI as ``--telemetry <path>``.

Instrumentation sites settle their counters at run/block granularity —
never per simulated step — so the engines' hot loops contain no
telemetry calls at all.  Nothing here consumes randomness or touches
control flow, which is what keeps the three execution engines
bit-identical with telemetry enabled or disabled.

Metric names are dotted strings grouped by component: ``sim.*`` (the
serial/batched executor), ``ensemble.*`` (the ensemble engine —
per-replicate counters plus ``ensemble.fused_blocks`` /
``ensemble.fused_replicates`` / ``ensemble.fused_steps`` from the fused
resolution path), ``executor.*``
(:class:`repro.core.runner.ResilientExecutor`), ``store.*``
(:class:`repro.core.store.ColumnarSweepStore`), ``sweep.*``
(:func:`repro.core.sweep.latency_sweep`),
``shm.*`` (the zero-copy dispatch buffers of :mod:`repro.core.shm` —
``shm.segments`` / ``shm.bytes`` created, ``shm.unlinked`` on cleanup,
``shm.fallbacks`` when ``dispatch="auto"`` degrades to pickle), and
``service.*`` (the sweep job daemon of :mod:`repro.service` —
``service.submitted`` / ``completed`` / ``failed`` / ``poisoned`` /
``cancelled`` job outcomes, ``service.dedupe_hits`` for submissions
answered by an existing job, ``service.memo_warm_points`` /
``service.recomputed_points`` for the point-level cache split,
``service.rejected`` admissions shed at the bounded queue,
``service.recovered_jobs`` re-queued after crash recovery, the
``service.ledger_*`` event counters, and ``service.queue_depth`` /
``service.jobs_running`` gauges; the daemon serves this registry's
:meth:`MetricsRegistry.report` at ``/metrics``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

#: Event emitted once per finished simulation run (any engine); the
#: payload carries ``engine``, ``n_processes``, ``steps``,
#: ``completions`` and the per-process ``step_counts`` list.
EVENT_RUN = "sim.run"

#: Event emitted by ``latency_sweep`` after each sweep point, with
#: ``n``, ``seconds`` and ``replicates``.
EVENT_SWEEP_POINT = "sweep.point"


class Histogram:
    """Streaming summary of an observed quantity (count/total/min/max).

    Deliberately a summary rather than a bucketed histogram: the
    observations instrumented here (span durations, per-point sweep
    times, backoff waits) are low-rate, and a four-number summary keeps
    the registry allocation-free per observation.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """JSON-ready summary; empty histograms report null min/max."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }


class Span:
    """Context manager timing a block into a histogram.

    ``with registry.span("sweep.point_seconds"): ...`` observes the
    block's wall-clock duration (seconds) on exit, success or not.
    """

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._registry.observe(self._name, time.perf_counter() - self._start)
        return False


class _NullSpan:
    """The reusable no-op span; one shared instance, zero allocation."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """Named counters, gauges, histograms, spans and event hooks.

    Thread-compatibility: a registry is owned by the orchestrating
    process (sweeps instrument coordination, not worker internals), so
    no locking is needed or provided.

    ``enabled`` is the single switch instrumented components check
    before doing any telemetry work; subclassing with ``enabled=False``
    (see :class:`NullMetricsRegistry`) turns every site into one boolean
    test.
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._subscribers: Dict[str, List[Callable[[Dict[str, Any]], None]]] = {}

    # -- metrics -----------------------------------------------------------

    def inc(self, name: str, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def span(self, name: str) -> Union[Span, _NullSpan]:
        """A context manager timing its block into histogram ``name``."""
        return Span(self, name)

    # -- events ------------------------------------------------------------

    def subscribe(
        self, event: str, callback: Callable[[Dict[str, Any]], None]
    ) -> None:
        """Register ``callback(payload)`` for every :meth:`emit` of ``event``."""
        self._subscribers.setdefault(event, []).append(callback)

    def emit(self, event: str, payload: Dict[str, Any]) -> None:
        """Deliver ``payload`` to every subscriber of ``event``."""
        for callback in self._subscribers.get(event, ()):
            callback(payload)

    # -- reporting ---------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Everything recorded so far, as a JSON-serialisable dict."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.summary()
                for name, histogram in self.histograms.items()
            },
        }


class NullMetricsRegistry(MetricsRegistry):
    """The zero-overhead default: every method is a no-op.

    Instrumented components guard with ``telemetry is not None and
    telemetry.enabled``, so passing this registry (or ``None``) costs
    one boolean test per run — nothing is allocated, counted, or
    emitted, and :meth:`report` is always empty.
    """

    enabled = False

    def inc(self, name: str, amount: Union[int, float] = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def subscribe(
        self, event: str, callback: Callable[[Dict[str, Any]], None]
    ) -> None:
        pass

    def emit(self, event: str, payload: Dict[str, Any]) -> None:
        pass


#: Shared no-op registry; pass where an always-callable registry is
#: wanted (``telemetry=None`` means the same thing everywhere).
NULL_TELEMETRY = NullMetricsRegistry()


class SchedulerUniformityObserver:
    """Appendix A's uniformity measurement, applied to our own runs.

    Accumulates the empirical per-process step distribution — per
    process count, since a sweep mixes runs of different ``n`` and the
    uniform reference depends on ``n`` — and reports:

    * the **total-variation distance** from the uniform distribution,
      ``0.5 * sum_i |share_i - 1/n|`` (0 for a perfectly uniform
      scheduler, approaching ``1 - 1/n`` for a monopolising adversary);
    * the **fairness ratio** ``min_i share_i / max_i share_i`` (1.0 when
      every process takes exactly its ``1/n`` of the steps, 0 when some
      process is starved of steps entirely).

    Attach to a registry with :meth:`attach` (it subscribes to the
    ``sim.run`` event every engine emits), or feed it step counts
    directly with :meth:`observe_counts` / :meth:`observe_recorder`.
    """

    def __init__(self) -> None:
        self._counts: Dict[int, np.ndarray] = {}
        self.runs = 0

    def attach(self, registry: MetricsRegistry) -> "SchedulerUniformityObserver":
        """Subscribe to ``registry``'s ``sim.run`` events; returns self."""
        registry.subscribe(EVENT_RUN, self._on_run)
        return self

    def _on_run(self, payload: Dict[str, Any]) -> None:
        self.observe_counts(payload["step_counts"])

    def observe_counts(self, step_counts: Sequence[int]) -> None:
        """Accumulate one run's per-process step counts."""
        counts = np.asarray(step_counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("step_counts must be a non-empty 1-D sequence")
        n = int(counts.size)
        bucket = self._counts.get(n)
        if bucket is None:
            self._counts[n] = counts.copy()
        else:
            bucket += counts
        self.runs += 1

    def observe_recorder(self, recorder) -> None:
        """Accumulate a :class:`~repro.sim.TraceRecorder`'s step counts."""
        self.observe_counts(
            [recorder.steps[pid] for pid in range(recorder.n_processes)]
        )

    # -- statistics --------------------------------------------------------

    @property
    def n_values(self) -> List[int]:
        """The process counts observed so far, ascending."""
        return sorted(self._counts)

    def _bucket(self, n: Optional[int]) -> np.ndarray:
        if not self._counts:
            raise ValueError("no runs observed yet")
        if n is None:
            if len(self._counts) > 1:
                raise ValueError(
                    f"runs with several process counts observed "
                    f"({self.n_values}); pass n= to pick one"
                )
            n = next(iter(self._counts))
        counts = self._counts.get(n)
        if counts is None:
            raise ValueError(
                f"no runs with n={n} observed (have {self.n_values})"
            )
        return counts

    def distribution(self, n: Optional[int] = None) -> np.ndarray:
        """Empirical per-process step shares for process count ``n``."""
        counts = self._bucket(n)
        total = counts.sum()
        if total == 0:
            raise ValueError("observed runs contain no steps")
        return counts / total

    def total_variation_distance(self, n: Optional[int] = None) -> float:
        """TV distance between the empirical distribution and uniform."""
        shares = self.distribution(n)
        return float(0.5 * np.abs(shares - 1.0 / shares.size).sum())

    def fairness_ratio(self, n: Optional[int] = None) -> float:
        """``min share / max share``; 1.0 = perfectly fair, 0 = starved."""
        shares = self.distribution(n)
        return float(shares.min() / shares.max())

    def report(self) -> Dict[str, Any]:
        """Per-``n`` uniformity verdicts plus worst-case aggregates."""
        per_n = {}
        for n in self.n_values:
            per_n[str(n)] = {
                "steps": int(self._counts[n].sum()),
                "tv_distance": self.total_variation_distance(n),
                "fairness_ratio": self.fairness_ratio(n),
            }
        report: Dict[str, Any] = {"runs": self.runs, "per_n": per_n}
        if per_n:
            report["max_tv_distance"] = max(
                entry["tv_distance"] for entry in per_n.values()
            )
            report["min_fairness_ratio"] = min(
                entry["fairness_ratio"] for entry in per_n.values()
            )
        return report


def write_run_report(
    path: Union[str, Path],
    registry: MetricsRegistry,
    *,
    command: Optional[str] = None,
    observer: Optional[SchedulerUniformityObserver] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write a structured JSON run report; returns the report dict.

    The report combines the registry's metrics with (optionally) a
    uniformity observer's verdict and free-form ``extra`` context (CLI
    arguments, workload names).  The schema is versioned so downstream
    dashboards can evolve with it.

    Schema 2: ``extra`` lives under its own ``report["extra"]`` key.
    Schema 1 merged it into the top level, where a caller-supplied key
    could silently clobber ``schema``/``command`` and was in turn
    silently clobbered by the reserved ``metrics``/``uniformity`` keys.
    """
    report: Dict[str, Any] = {"schema": 2}
    if command is not None:
        report["command"] = command
    if extra:
        report["extra"] = dict(extra)
    report["metrics"] = registry.report()
    if observer is not None:
        report["uniformity"] = observer.report()
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report
