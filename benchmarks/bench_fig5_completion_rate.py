"""FIG5 — Figure 5: completion rate of the CAS fetch-and-increment
counter vs. the model's Theta(1/sqrt(n)) prediction vs. the 1/n worst
case, for varying thread counts.

As in the paper, the prediction curve is scaled to the first measured
point.  We add a fourth series the paper could not show: the *exact*
stationary rate from the system chain, which the measured curve should
sit on almost exactly.

All thread counts run as one heterogeneous ensemble
(:class:`repro.sim.EnsembleSimulator`) — bit-identical to the per-``n``
batched runs this benchmark used previously, with the same seeds.
"""

import numpy as np

from repro.algorithms.counter import cas_counter
from repro.bench.harness import Experiment
from repro.chains.scu import scu_system_latency_exact
from repro.core.analysis import (
    completion_rate_prediction,
    worst_case_completion_rate,
)
from repro.core.latency import resolve_vector_kernel
from repro.core.scheduler import UniformStochasticScheduler
from repro.sim import EnsembleReplicate, EnsembleSimulator
from repro.stats.estimators import fit_power_law

THREAD_COUNTS = [2, 4, 8, 12, 16, 20, 28, 40]
STEPS = 120_000


def reproduce_figure5():
    kernel = resolve_vector_kernel(cas_counter())
    ensemble = EnsembleSimulator(
        [
            EnsembleReplicate(
                kernel,
                n,
                UniformStochasticScheduler(),
                rng=n,
            )
            for n in THREAD_COUNTS
        ]
    )
    measurements = ensemble.run(STEPS).measurements()
    measured = np.array([m.completion_rate for m in measurements])
    predicted = completion_rate_prediction(THREAD_COUNTS, measured_first=measured[0])
    worst = worst_case_completion_rate(THREAD_COUNTS)
    exact = np.array([1.0 / scu_system_latency_exact(n) for n in THREAD_COUNTS])
    return measured, predicted, worst, exact


def test_fig5_completion_rate(run_once, benchmark):
    measured, predicted, worst, exact = run_once(benchmark, reproduce_figure5)

    experiment = Experiment(
        exp_id="FIG5",
        title="Completion rate of the lock-free counter vs thread count",
        paper_claim="the Theta(1/sqrt(n)) rate predicted by the uniform "
        "stochastic scheduler model is close to the actual completion "
        "rate, far above the 1/n worst case",
    )
    experiment.headers = [
        "threads",
        "measured",
        "prediction(scaled 1/sqrt n)",
        "exact chain",
        "worst case 1/n",
    ]
    for i, n in enumerate(THREAD_COUNTS):
        experiment.add_row(n, measured[i], predicted[i], exact[i], worst[i])
    exponent, _ = fit_power_law(THREAD_COUNTS, measured)
    experiment.add_note(f"fitted scaling exponent of the measured rate: {exponent:.3f} "
                        "(model predicts -0.5; worst case would be -1)")
    experiment.report()

    assert np.all(np.abs(exact - measured) / exact < 0.1)
    # The advantage over the worst case grows like sqrt(n): modest at
    # n = 8 (~1.45x), a factor 3+ by n = 40.
    gaps = measured / worst
    assert np.all(np.diff(gaps) > 0)
    assert gaps[-1] > 3.0
    assert -0.62 < exponent < -0.38
