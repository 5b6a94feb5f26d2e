"""repro — a reproduction of *"Are Lock-Free Concurrent Algorithms
Practically Wait-Free?"* (Alistarh, Censor-Hillel, Shavit; PODC/STOC 2014).

The library provides:

* a discrete-time shared-memory simulator matching the paper's system
  model (:mod:`repro.sim`),
* the scheduler hierarchy of Definition 1, from the uniform stochastic
  scheduler to encoded adversaries (:mod:`repro.core.scheduler`),
* the lock-free algorithms the paper analyses — CAS counters, the
  ``SCU(q, s)`` skeleton, Treiber stack, Michael-Scott queue, a universal
  construction, and Algorithm 1's unbounded counterexample
  (:mod:`repro.algorithms`),
* the paper's Markov chains with their liftings, built exactly
  (:mod:`repro.chains` on top of :mod:`repro.markov`),
* the iterated balls-into-bins game behind the ``O(sqrt(n))`` bound
  (:mod:`repro.ballsbins`),
* latency/progress measurement and the paper's closed-form predictions
  (:mod:`repro.core`).

Quickstart::

    from repro import SCU, UniformStochasticScheduler

    spec = SCU(q=0, s=1)                         # the CAS counter pattern
    m = spec.measure(n=16, steps=200_000, rng=0)
    print(m.system_latency, spec.predicted_system_latency(16))
"""

from repro._lazy import lazy_exports

#: Where each name in ``__all__`` is defined; imported on first use.
_EXPORTS = {
    "repro.core.latency": (
        "LatencyMeasurement",
        "measure_latencies",
        "measure_latencies_ensemble",
    ),
    "repro.core.progress": ("progress_report",),
    "repro.core.scheduler": (
        "AdversarialScheduler",
        "DistributionScheduler",
        "HardwareLikeScheduler",
        "LotteryScheduler",
        "Scheduler",
        "SkewedStochasticScheduler",
        "UniformStochasticScheduler",
    ),
    "repro.core.scu": ("SCU",),
    "repro.sim.ensemble": (
        "EnsembleReplicate",
        "EnsembleResult",
        "EnsembleSimulator",
    ),
    "repro.sim.executor": ("SimulationResult", "Simulator"),
    "repro.sim.memory": ("Memory",),
}

__version__ = "1.0.0"

__all__ = [
    "SCU",
    "AdversarialScheduler",
    "DistributionScheduler",
    "EnsembleReplicate",
    "EnsembleResult",
    "EnsembleSimulator",
    "HardwareLikeScheduler",
    "LatencyMeasurement",
    "LotteryScheduler",
    "Memory",
    "Scheduler",
    "SimulationResult",
    "Simulator",
    "SkewedStochasticScheduler",
    "UniformStochasticScheduler",
    "__version__",
    "measure_latencies",
    "measure_latencies_ensemble",
    "progress_report",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
