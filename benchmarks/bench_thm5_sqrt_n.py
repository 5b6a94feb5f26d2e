"""THM5 — Theorem 5: the scan-validate component's system latency is
Theta(sqrt(n)).

We compute the *exact* stationary latency from the system chain across
two decades of n and fit the scaling exponent; simulation spot-checks
two points.  The bound is asymptotically tight, so the exponent must be
0.5 and the constant W / sqrt(n) must stabilise.
"""

import numpy as np

from repro.bench.harness import Experiment
from repro.chains.scu import scu_system_latency_exact
from repro.core.scu import SCU
from repro.stats.estimators import fit_power_law

N_VALUES = [4, 8, 16, 32, 64, 128, 256, 512]


def reproduce_theorem5():
    from repro.core.latency import resolve_vector_kernel
    from repro.core.scheduler import UniformStochasticScheduler
    from repro.sim import EnsembleReplicate, EnsembleSimulator

    exact = [scu_system_latency_exact(n) for n in N_VALUES]
    # Both spot-checks run as one ensemble — bit-identical to the
    # per-n batched runs, with the same seeds.
    spot = (16, 128)
    spec = SCU(0, 1)
    ensemble = EnsembleSimulator(
        [
            EnsembleReplicate(
                resolve_vector_kernel(spec.factory()),
                n,
                UniformStochasticScheduler(),
                rng=n,
            )
            for n in spot
        ]
    )
    measurements = ensemble.run(150_000).measurements()
    simulated = {n: m.system_latency for n, m in zip(spot, measurements)}
    return exact, simulated


def test_thm5_sqrt_n_latency(run_once, benchmark):
    exact, simulated = run_once(benchmark, reproduce_theorem5)

    experiment = Experiment(
        exp_id="THM5",
        title="Scan-validate system latency scales as sqrt(n)",
        paper_claim="expected steps between successes is O(sqrt(n)), "
        "asymptotically tight",
    )
    experiment.headers = ["n", "exact W", "W / sqrt(n)", "simulated W"]
    for n, w in zip(N_VALUES, exact):
        experiment.add_row(n, w, w / np.sqrt(n), simulated.get(n, float("nan")))
    exponent, coeff = fit_power_law(N_VALUES, exact)
    experiment.add_note(
        f"fitted W ~ {coeff:.3f} * n^{exponent:.3f} (theory: exponent 0.5)"
    )
    experiment.report()

    assert 0.42 < exponent < 0.55
    constants = np.array(exact) / np.sqrt(N_VALUES)
    assert constants[-4:].max() / constants[-4:].min() < 1.06
    for n, w in simulated.items():
        assert w == np.clip(w, 0.95 * scu_system_latency_exact(n),
                            1.05 * scu_system_latency_exact(n))


def test_thm5_exact_solver_kernel(benchmark):
    """Micro-benchmark: sparse stationary solve of the n=128 system chain."""
    result = benchmark(scu_system_latency_exact, 128)
    assert result > 10
