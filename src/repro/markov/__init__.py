"""General finite Markov chain substrate.

This package provides the Markov machinery the paper's analysis relies on
(Section 3 of the paper): time-invariant finite chains, ergodicity checks,
stationary distributions, hitting/return times, ergodic flows, trajectory
sampling and Markov chain *lifting* verification.

The chains specific to the paper (individual/system chains of the
scan-validate component, the parallel-code chains, and the augmented-CAS
counter chains) live in :mod:`repro.chains` and are built on top of this
package.
"""

from repro._lazy import lazy_exports

#: Where each name in ``__all__`` is defined; imported on first use.
_EXPORTS = {
    "repro.markov.chain": (
        "MarkovChain",
    ),
    "repro.markov.hitting": (
        "expected_hitting_times",
        "expected_return_time",
        "fundamental_matrix",
        "return_times_from_stationary",
    ),
    "repro.markov.lifting": (
        "Lifting",
        "collapse_chain",
        "collapse_distribution",
        "ergodic_flow_matrix",
        "verify_lifting",
    ),
    "repro.markov.mixing": (
        "distance_to_stationary",
        "mixing_time",
    ),
    "repro.markov.phasetype": (
        "phase_type_mean",
        "phase_type_pmf",
        "phase_type_quantile",
        "phase_type_survival",
    ),
    "repro.markov.properties": (
        "communicating_classes",
        "is_aperiodic",
        "is_ergodic",
        "is_irreducible",
        "period",
    ),
    "repro.markov.spectral": (
        "relaxation_time",
        "slem",
        "spectral_gap",
    ),
    "repro.markov.sampling": (
        "empirical_distribution",
        "sample_path",
        "sample_steps",
    ),
    "repro.markov.stationary": (
        "stationary_distribution",
    ),
}

__all__ = [
    "MarkovChain",
    "Lifting",
    "collapse_chain",
    "collapse_distribution",
    "communicating_classes",
    "distance_to_stationary",
    "empirical_distribution",
    "ergodic_flow_matrix",
    "expected_hitting_times",
    "expected_return_time",
    "fundamental_matrix",
    "is_aperiodic",
    "is_ergodic",
    "is_irreducible",
    "mixing_time",
    "period",
    "phase_type_mean",
    "phase_type_pmf",
    "phase_type_quantile",
    "phase_type_survival",
    "relaxation_time",
    "return_times_from_stationary",
    "sample_path",
    "sample_steps",
    "slem",
    "spectral_gap",
    "stationary_distribution",
    "verify_lifting",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
