"""THM4 — Theorem 4: for SCU(q, s) under the uniform stochastic
scheduler, system latency is O(q + s sqrt(n)) and individual latency is
n times that.

The sweep crosses q, s and n; each cell reports the simulated system
latency, the exact chain value where tractable, the paper's bound with
alpha = 4, and the fairness ratio W_i / (n W).

All nine cells run as one heterogeneous ensemble
(:class:`repro.sim.EnsembleSimulator`) — bit-identical to the per-cell
``spec.measure(..., batched=True)`` runs this benchmark used
previously, with the same ``(q, s, n)`` seeds.
"""

import numpy as np

from repro.bench.harness import Experiment
from repro.core.latency import resolve_vector_kernel
from repro.core.scheduler import UniformStochasticScheduler
from repro.core.scu import SCU
from repro.sim import EnsembleReplicate, EnsembleSimulator

SWEEP = [
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
STEPS = 250_000
EXACT_LIMIT = 40_000  # max chain states we are willing to solve exactly


def exact_if_tractable(spec, n):
    from math import comb

    k = spec.q + 2 * spec.s + 1
    if comb(n + k - 1, k - 1) > EXACT_LIMIT:
        return None
    return spec.exact_system_latency(n)


def reproduce_theorem4():
    specs = [SCU(q, s) for q, s, _ in SWEEP]
    ensemble = EnsembleSimulator(
        [
            EnsembleReplicate(
                resolve_vector_kernel(spec.factory()),
                n,
                UniformStochasticScheduler(),
                rng=(q, s, n),
            )
            for spec, (q, s, n) in zip(specs, SWEEP)
        ]
    )
    measurements = ensemble.run(STEPS).measurements()
    rows = []
    for spec, (q, s, n), measured in zip(specs, SWEEP, measurements):
        exact = exact_if_tractable(spec, n)
        fairness = measured.mean_individual_latency / (
            n * measured.system_latency
        )
        rows.append(
            (
                f"SCU({q},{s})",
                n,
                measured.system_latency,
                exact if exact is not None else float("nan"),
                spec.predicted_system_latency(n),
                spec.worst_case_system_latency(n),
                fairness,
            )
        )
    return rows


def test_thm4_scu_latency_sweep(run_once, benchmark):
    rows = run_once(benchmark, reproduce_theorem4)

    experiment = Experiment(
        exp_id="THM4",
        title="SCU(q, s) latencies under the uniform stochastic scheduler",
        paper_claim="system latency O(q + s sqrt(n)); individual latency "
        "n times the system latency",
    )
    experiment.headers = [
        "algorithm",
        "n",
        "simulated W",
        "exact chain W",
        "bound q+4s*sqrt(n)",
        "worst case q+sn",
        "mean Wi/(nW)",
    ]
    for row in rows:
        experiment.add_row(*row)
    experiment.report()

    for _, n, simulated, exact, bound, worst, fairness in rows:
        assert simulated <= bound
        if not np.isnan(exact):
            assert simulated == np.clip(simulated, 0.93 * exact, 1.07 * exact)
        assert abs(fairness - 1.0) < 0.2
        if n >= 16:
            assert simulated < worst


def test_thm4_exact_chain_kernel(benchmark):
    """Micro-benchmark: solving the SCU(2,2) phase chain for n = 8."""
    spec = SCU(2, 2)
    result = benchmark(spec.exact_system_latency, 8)
    assert result > 0
