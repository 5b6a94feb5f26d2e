"""Tests for repro.stats.estimators."""

import numpy as np
import pytest
import scipy.stats

from repro.stats.estimators import (
    StreamingMeanEstimator,
    _t_crit,
    batch_means,
    fit_power_law,
    fit_sqrt_scaling,
    mean_confidence_interval,
)


class TestConfidenceInterval:
    def test_covers_true_mean(self):
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(200):
            sample = rng.normal(5.0, 2.0, size=50)
            if mean_confidence_interval(sample, 0.95).contains(5.0):
                hits += 1
        assert hits / 200 > 0.9

    def test_interval_shrinks_with_samples(self):
        rng = np.random.default_rng(1)
        small = mean_confidence_interval(rng.normal(size=20))
        large = mean_confidence_interval(rng.normal(size=2_000))
        assert large.half_width < small.half_width

    def test_bounds(self):
        est = mean_confidence_interval([1.0, 2.0, 3.0])
        assert est.low < est.mean < est.high

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0])


class TestCriticalValueCache:
    CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999)
    #: Every df a sweep can plausibly ask for, and some it cannot.
    DFS = np.concatenate([np.arange(1, 5_000), [100_000, 1_000_000, 10_000_000]])

    def test_cached_value_is_exactly_scipys(self):
        # _t_crit calls scipy.special.stdtrit so that sweeps never import
        # scipy.stats; it must give exactly what scipy.stats.t.ppf gives.
        for confidence in self.CONFIDENCES:
            expected = scipy.stats.t.ppf(0.5 + confidence / 2.0, self.DFS)
            for df, value in zip(self.DFS.tolist(), expected.tolist()):
                # Twice: the first call fills the cache, the second reads it.
                assert _t_crit(confidence, df) == value, (confidence, df)
                assert _t_crit(confidence, df) == value, (confidence, df)

    def test_estimators_use_the_uncached_formula_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for size in (2, 5, 40):
            sample = rng.normal(size=size)
            streaming = StreamingMeanEstimator()
            for value in sample:
                streaming.add(value)
            t_crit = float(scipy.stats.t.ppf(0.975, size - 1))
            batch = mean_confidence_interval(sample, 0.95)
            assert batch.half_width == t_crit * float(scipy.stats.sem(sample))
            estimate = streaming.estimate(0.95)
            assert estimate.half_width == t_crit * float(
                np.sqrt(streaming.variance / size)
            )


class TestBatchMeans:
    def test_shape(self):
        out = batch_means(np.arange(100.0), batches=10)
        assert out.shape == (10,)

    def test_values(self):
        out = batch_means(np.array([1.0, 1.0, 3.0, 3.0]), batches=2)
        assert out.tolist() == [1.0, 3.0]

    def test_truncates_remainder(self):
        out = batch_means(np.arange(11.0), batches=2)
        assert out.shape == (2,)

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_means([1.0, 2.0], batches=1)
        with pytest.raises(ValueError):
            batch_means([1.0], batches=2)


class TestAutocorrelation:
    def test_white_noise_near_zero(self):
        from repro.stats.estimators import autocorrelation

        rng = np.random.default_rng(3)
        rho = autocorrelation(rng.normal(size=20_000), max_lag=5)
        assert rho[0] == pytest.approx(1.0)
        assert np.all(np.abs(rho[1:]) < 0.05)

    def test_ar1_matches_theory(self):
        from repro.stats.estimators import autocorrelation

        rng = np.random.default_rng(4)
        phi = 0.7
        x = np.zeros(40_000)
        for i in range(1, x.size):
            x[i] = phi * x[i - 1] + rng.normal()
        rho = autocorrelation(x, max_lag=3)
        for lag in (1, 2, 3):
            assert rho[lag] == pytest.approx(phi**lag, abs=0.05)

    def test_validation(self):
        from repro.stats.estimators import autocorrelation

        with pytest.raises(ValueError):
            autocorrelation([1.0], max_lag=0)
        with pytest.raises(ValueError):
            autocorrelation([1.0, 2.0], max_lag=5)
        with pytest.raises(ValueError, match="constant"):
            autocorrelation([2.0, 2.0, 2.0], max_lag=1)


class TestEffectiveSampleSize:
    def test_independent_series_full_size(self):
        from repro.stats.estimators import effective_sample_size

        rng = np.random.default_rng(5)
        n = 10_000
        ess = effective_sample_size(rng.normal(size=n))
        assert ess == pytest.approx(n, rel=0.15)

    def test_correlated_series_shrinks(self):
        from repro.stats.estimators import effective_sample_size

        rng = np.random.default_rng(6)
        phi = 0.9
        x = np.zeros(20_000)
        for i in range(1, x.size):
            x[i] = phi * x[i - 1] + rng.normal()
        ess = effective_sample_size(x)
        # Theory: ESS ~ n (1 - phi) / (1 + phi) ~ n / 19.
        assert ess < x.size / 8

    def test_simulator_gaps_have_finite_ess(self):
        from repro.algorithms.counter import cas_counter, make_counter_memory
        from repro.core.scheduler import UniformStochasticScheduler
        from repro.sim.executor import Simulator
        from repro.stats.estimators import effective_sample_size

        sim = Simulator(
            cas_counter(),
            UniformStochasticScheduler(),
            n_processes=8,
            memory=make_counter_memory(),
            rng=0,
        )
        sim.run(60_000)
        gaps = np.diff(np.asarray(sim.recorder.completion_times))
        ess = effective_sample_size(gaps)
        assert 0 < ess <= gaps.size


class TestFits:
    def test_power_law_recovers_exponent(self):
        xs = np.array([4, 16, 64, 256], dtype=float)
        ys = 3.0 * xs**0.5
        exponent, coeff = fit_power_law(xs, ys)
        assert exponent == pytest.approx(0.5)
        assert coeff == pytest.approx(3.0)

    def test_power_law_with_noise(self):
        rng = np.random.default_rng(2)
        xs = np.geomspace(10, 10_000, 20)
        ys = 2.0 * xs**0.75 * np.exp(rng.normal(0, 0.02, size=20))
        exponent, _ = fit_power_law(xs, ys)
        assert exponent == pytest.approx(0.75, abs=0.05)

    def test_power_law_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, -1.0], [2.0, 2.0])

    def test_sqrt_fit(self):
        xs = np.array([1, 4, 9], dtype=float)
        ys = 5.0 * np.sqrt(xs)
        assert fit_sqrt_scaling(xs, ys) == pytest.approx(5.0)

    def test_sqrt_fit_validation(self):
        with pytest.raises(ValueError):
            fit_sqrt_scaling([], [])
