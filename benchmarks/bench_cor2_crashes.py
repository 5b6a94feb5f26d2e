"""COR2 — Corollary 2: with only k correct processes, latencies are
governed by k.

We crash n - k of n processes early and compare the post-crash
stationary latency with the k-process exact value.  All four crash
configurations run together on the ensemble engine (segmented
whole-schedule execution); each replicate is bit-identical to the
``Simulator.run_batched`` run with the same seed, so the reported
numbers are unchanged from the batched-engine version of this
experiment.
"""

import numpy as np

from repro.algorithms.counter import cas_counter
from repro.bench.harness import Experiment
from repro.chains.scu import scu_system_latency_exact
from repro.core.latency import resolve_vector_kernel, system_latency
from repro.core.scheduler import UniformStochasticScheduler
from repro.sim import EnsembleReplicate, EnsembleSimulator

N = 32
K_VALUES = [4, 8, 16, 32]
STEPS = 250_000
CRASH_AT = 2_000


def reproduce_corollary2():
    ensemble = EnsembleSimulator(
        [
            EnsembleReplicate(
                resolve_vector_kernel(cas_counter()),
                N,
                UniformStochasticScheduler(),
                rng=k,
                crash_times={pid: CRASH_AT for pid in range(k, N)},
            )
            for k in K_VALUES
        ]
    )
    result = ensemble.run(STEPS)
    rows = []
    for k, outcome in zip(K_VALUES, result):
        recorder = outcome.recorder()
        measured = system_latency(recorder, burn_in=CRASH_AT * 10)
        rows.append((N, k, measured, scu_system_latency_exact(k)))
    return rows


def test_cor2_crash_latency(run_once, benchmark):
    rows = run_once(benchmark, reproduce_corollary2)

    experiment = Experiment(
        exp_id="COR2",
        title="Latency with k correct processes out of n",
        paper_claim="system latency O(q + s sqrt(k)): at infinity only the "
        "correct processes matter",
    )
    experiment.headers = [
        "n",
        "k correct",
        "measured W after crashes",
        "exact W for k processes",
    ]
    for row in rows:
        experiment.add_row(*row)
    experiment.report()

    for _, k, measured, exact in rows:
        assert abs(measured - exact) / exact < 0.08
    # Monotone in k: fewer survivors, faster completions.
    latencies = [row[2] for row in rows]
    assert latencies == sorted(latencies)
