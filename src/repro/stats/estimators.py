"""Estimators: confidence intervals, batch means, scaling-law fits."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class MeanEstimate:
    """A mean with a symmetric confidence interval."""

    mean: float
    half_width: float
    confidence: float
    n_samples: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high


@lru_cache(maxsize=1024)
def _t_crit(confidence: float, df: int) -> float:
    """The two-sided Student-t critical value for ``df`` degrees of
    freedom.  Sweeps ask for the same few ``(confidence, df)`` pairs
    over and over (three estimates per point, one df per replicate
    count), and each quantile costs tens of microseconds, so the values
    are cached.  ``scipy.stats.t.ppf(q, df)`` is ``stdtrit(df, q)``;
    calling ``scipy.special`` directly keeps ``scipy.stats``, which
    takes most of a second to import, off every sweep's path."""
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.5 + confidence / 2.0))


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> MeanEstimate:
    """Student-t confidence interval for the mean of i.i.d. samples."""
    data = np.asarray(samples, dtype=float)
    if data.size < 2:
        raise ValueError("need at least two samples")
    import scipy.stats

    mean = float(data.mean())
    sem = float(scipy.stats.sem(data))
    t_crit = _t_crit(confidence, data.size - 1)
    return MeanEstimate(mean, t_crit * sem, confidence, data.size)


class StreamingMeanEstimator:
    """Welford accumulator producing the same Student-t interval as
    :func:`mean_confidence_interval` without holding the samples.

    ``add`` is O(1) in time and memory, so a million-replicate sweep
    point costs three floats of state instead of a million-entry list.
    The running mean/variance recurrences differ from numpy's pairwise
    summation only in floating-point association, so the resulting
    estimate matches the batch path to float64 round-off (not bitwise)
    — callers that need *bit*-identical results across execution paths
    get them by feeding every path through this estimator in the same
    order, which is what :class:`repro.core.sweep.StreamingSweepAggregator`
    does.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the running mean and variance."""
        self.count += 1
        delta = float(value) - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (float(value) - self.mean)

    @property
    def variance(self) -> float:
        """The unbiased sample variance of everything added so far."""
        if self.count < 2:
            raise ValueError("need at least two samples")
        return self._m2 / (self.count - 1)

    def estimate(self, confidence: float = 0.95) -> MeanEstimate:
        """The Student-t interval over everything added so far."""
        if self.count < 2:
            raise ValueError("need at least two samples")
        sem = float(np.sqrt(self.variance / self.count))
        t_crit = _t_crit(confidence, self.count - 1)
        return MeanEstimate(self.mean, t_crit * sem, confidence, self.count)


def batch_means(samples: Sequence[float], batches: int = 20) -> np.ndarray:
    """Split a correlated series into batch means (for stationary series,
    batch means are approximately independent)."""
    data = np.asarray(samples, dtype=float)
    if batches < 2:
        raise ValueError("need at least two batches")
    if data.size < batches:
        raise ValueError(f"{data.size} samples cannot fill {batches} batches")
    usable = data.size - data.size % batches
    return data[:usable].reshape(batches, -1).mean(axis=1)


def fit_power_law(
    xs: Sequence[float], ys: Sequence[float]
) -> Tuple[float, float]:
    """Least-squares fit ``y = c * x**e`` in log-log space.

    Returns ``(exponent, coefficient)``.  Used to assert the *shape* of
    latency scalings (Theorem 5 predicts exponent ~= 0.5 for the
    scan-validate component's system latency).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need matching x/y arrays with at least two points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit requires positive data")
    exponent, log_coeff = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(exponent), float(np.exp(log_coeff))


def fit_sqrt_scaling(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares coefficient ``c`` in ``y = c * sqrt(x)``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 1:
        raise ValueError("need matching non-empty x/y arrays")
    roots = np.sqrt(xs)
    return float((roots @ ys) / (roots @ roots))


def autocorrelation(series: Sequence[float], max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags ``0 .. max_lag``.

    Completion-gap series from the simulator are autocorrelated (the
    chain remembers where the last success landed); the ACF sizes the
    batch lengths and effective sample counts used when attaching error
    bars to latency estimates.
    """
    data = np.asarray(series, dtype=float)
    if data.size < 2:
        raise ValueError("need at least two samples")
    if not 0 <= max_lag < data.size:
        raise ValueError("max_lag must lie in [0, len(series))")
    centered = data - data.mean()
    denominator = float(centered @ centered)
    if denominator == 0:
        raise ValueError("series is constant; autocorrelation undefined")
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        out[lag] = float(centered[: data.size - lag] @ centered[lag:]) / denominator
    return out


def effective_sample_size(
    series: Sequence[float], *, max_lag: Optional[int] = None
) -> float:
    """Effective number of independent samples in a correlated series.

    ``n / (1 + 2 sum_k rho_k)`` with the sum truncated at the first
    non-positive autocorrelation (Geyer's initial positive sequence,
    simplified).
    """
    data = np.asarray(series, dtype=float)
    if max_lag is None:
        max_lag = min(data.size // 4, 200)
    rho = autocorrelation(data, max_lag)
    total = 0.0
    for lag in range(1, max_lag + 1):
        if rho[lag] <= 0:
            break
        total += rho[lag]
    return float(data.size / (1.0 + 2.0 * total))
