"""The paper's Markov chains, built explicitly.

Three families, each with an *individual* (per-process, exponential-size)
chain, a collapsed *system* chain, and the lifting map between them:

* :mod:`repro.chains.scu` — the scan-validate component (Section 6.1):
  individual chain over ``{Read, OldCAS, CCAS}^n`` minus the all-``OldCAS``
  state; system chain over pairs ``(a, b)``; plus exact latency
  computations and a generalised chain for ``s`` scan steps and a ``q``-step
  preamble (Section 6.3).
* :mod:`repro.chains.parallel` — parallel code (Section 6.2): individual
  chain over step-counter vectors, system chain over counter histograms.
* :mod:`repro.chains.counter` — the augmented-CAS counter (Section 7):
  individual chain over non-empty subsets of current-value holders, global
  chain over subset sizes, and the ``Z``-recurrence return times.
"""

from repro._lazy import lazy_exports

#: Where each name in ``__all__`` is defined; imported on first use.
_EXPORTS = {
    "repro.chains.counter": (
        "counter_global_chain",
        "counter_global_chain_enumerated",
        "counter_individual_chain",
        "counter_individual_latency_exact",
        "counter_lifting",
        "counter_lifting_map",
        "counter_system_latency_exact",
    ),
    "repro.chains.parallel": (
        "parallel_individual_chain",
        "parallel_lifting",
        "parallel_lifting_map",
        "parallel_individual_latency_exact",
        "parallel_system_chain",
        "parallel_system_latency_exact",
    ),
    "repro.chains.observe": (
        "scu_extended_state",
        "scu_system_state",
    ),
    "repro.chains.scu": (
        "CCAS",
        "OLD_CAS",
        "READ",
        "clear_exact_chain_caches",
        "scu_full_individual_chain",
        "scu_full_individual_latency_exact",
        "scu_full_lifting",
        "scu_full_system_chain",
        "scu_full_system_latency_exact",
        "scu_individual_chain",
        "scu_individual_latency_exact",
        "scu_lifting",
        "scu_lifting_map",
        "scu_stationary_profile",
        "scu_system_chain",
        "scu_system_chain_enumerated",
        "scu_system_latency_exact",
    ),
    "repro.chains.gaps": (
        "counter_gap_mean",
        "counter_gap_pmf",
        "counter_gap_quantile",
        "scu_gap_mean",
        "scu_gap_pmf",
        "scu_gap_quantile",
    ),
    "repro.chains.weighted": (
        "counter_weighted_latencies",
        "scu_weighted_latencies",
    ),
}

__all__ = [
    "CCAS",
    "OLD_CAS",
    "READ",
    "clear_exact_chain_caches",
    "counter_gap_mean",
    "counter_gap_pmf",
    "counter_gap_quantile",
    "scu_gap_mean",
    "scu_gap_pmf",
    "scu_gap_quantile",
    "counter_global_chain",
    "counter_global_chain_enumerated",
    "counter_individual_chain",
    "counter_individual_latency_exact",
    "counter_lifting",
    "counter_lifting_map",
    "counter_system_latency_exact",
    "counter_weighted_latencies",
    "parallel_individual_chain",
    "parallel_individual_latency_exact",
    "parallel_lifting",
    "parallel_lifting_map",
    "parallel_system_chain",
    "parallel_system_latency_exact",
    "scu_extended_state",
    "scu_full_individual_chain",
    "scu_full_individual_latency_exact",
    "scu_full_lifting",
    "scu_full_system_chain",
    "scu_full_system_latency_exact",
    "scu_individual_chain",
    "scu_individual_latency_exact",
    "scu_lifting",
    "scu_lifting_map",
    "scu_stationary_profile",
    "scu_system_chain",
    "scu_system_chain_enumerated",
    "scu_system_latency_exact",
    "scu_system_state",
    "scu_weighted_latencies",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
