"""Statistical helpers: the Ramanujan Q-function, estimators, and
distribution-comparison utilities used by the empirical experiments."""

from repro._lazy import lazy_exports

#: Where each name in ``__all__`` is defined; imported on first use.
_EXPORTS = {
    "repro.stats.compare": (
        "chi_square_uniformity",
        "empirical_threshold",
        "total_variation",
    ),
    "repro.stats.estimators": (
        "MeanEstimate",
        "StreamingMeanEstimator",
        "autocorrelation",
        "batch_means",
        "effective_sample_size",
        "fit_power_law",
        "fit_sqrt_scaling",
        "mean_confidence_interval",
    ),
    "repro.stats.ramanujan": (
        "birthday_expected_collision",
        "counter_return_times",
        "ramanujan_q",
        "ramanujan_q_asymptotic",
    ),
}

__all__ = [
    "MeanEstimate",
    "StreamingMeanEstimator",
    "autocorrelation",
    "batch_means",
    "birthday_expected_collision",
    "chi_square_uniformity",
    "counter_return_times",
    "effective_sample_size",
    "empirical_threshold",
    "fit_power_law",
    "fit_sqrt_scaling",
    "mean_confidence_interval",
    "ramanujan_q",
    "ramanujan_q_asymptotic",
    "total_variation",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
