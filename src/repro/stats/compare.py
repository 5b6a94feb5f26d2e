"""Distribution comparison utilities for the scheduler experiments.

Figures 3-4 of the paper argue real schedulers look uniform over long
executions; these helpers quantify "looks uniform" for our synthetic
recordings: total-variation distance, a chi-square uniformity test, and
an empirical weak-fairness threshold (Definition 1's ``theta``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two distributions on the same
    finite support: ``0.5 * sum |p_i - q_i|``."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    for name, vec in (("p", p), ("q", q)):
        if np.any(vec < -1e-12) or abs(vec.sum() - 1.0) > 1e-6:
            raise ValueError(f"{name} is not a probability vector")
    return float(0.5 * np.abs(p - q).sum())


def chi_square_uniformity(counts: np.ndarray) -> Tuple[float, float]:
    """Chi-square test of uniformity over observed category counts.

    Returns ``(statistic, p_value)``.  A large p-value is consistent with
    the uniform stochastic scheduler hypothesis.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or counts.size < 2:
        raise ValueError("counts must be a 1-D array with >= 2 categories")
    if counts.sum() <= 0:
        raise ValueError("counts must not be all zero")
    from scipy.stats import chisquare

    statistic, p_value = chisquare(counts)
    return float(statistic), float(p_value)


def empirical_threshold(schedule: np.ndarray, n_processes: int) -> float:
    """Empirical weak-fairness threshold: the smallest per-process step
    share observed in a schedule.

    For a uniform stochastic scheduler this converges to ``1/n``; a
    starvation adversary drives it to 0.
    """
    schedule = np.asarray(schedule)
    if schedule.size == 0:
        raise ValueError("empty schedule")
    counts = np.bincount(schedule, minlength=n_processes).astype(float)
    return float(counts.min() / schedule.size)


def step_share_spread(schedule: np.ndarray, n_processes: int) -> float:
    """Max-minus-min per-process step share — Figure 3's "how flat is the
    bar chart" statistic."""
    schedule = np.asarray(schedule)
    if schedule.size == 0:
        raise ValueError("empty schedule")
    shares = np.bincount(schedule, minlength=n_processes) / schedule.size
    return float(shares.max() - shares.min())
