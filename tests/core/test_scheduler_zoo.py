"""The contention-adversary zoo's schedulers and the PR 10 bugfixes.

Covers the two new departure-family schedulers
(:class:`EpsilonUniformScheduler`, :class:`ContentionScheduler`) and
pins the scheduler bugfixes: strict weight-length checks in
``threshold()``, ``AdversarialScheduler.distribution()`` refusing to
advance stateful strategies, the alternating spoiler's pid-stable
victim-crashed rotation, and the Markov-modulated threshold formula
checked against an empirical Monte-Carlo minimum frequency.
"""

import numpy as np
import pytest

from repro.core.scheduler import (
    AdversarialScheduler,
    ContentionScheduler,
    EpsilonUniformScheduler,
    LotteryScheduler,
    MarkovModulatedScheduler,
    SkewedStochasticScheduler,
    _CDF_CACHE_LIMIT,
)


class TestEpsilonUniform:
    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonUniformScheduler(-0.1)
        with pytest.raises(ValueError):
            EpsilonUniformScheduler(1.1)
        with pytest.raises(ValueError):
            EpsilonUniformScheduler(0.5, favored=-1)

    def test_distribution_closed_form(self):
        sched = EpsilonUniformScheduler(0.4, favored=2)
        dist = sched.distribution(0, [0, 1, 2, 3])
        assert dist[2] == pytest.approx(0.6 / 4 + 0.4)
        for pid in (0, 1, 3):
            assert dist[pid] == pytest.approx(0.6 / 4)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_tv_distance_is_epsilon_scaled(self):
        # TV from uniform with all n active: eps * (1 - 1/n).
        for eps, n in [(0.0, 4), (0.3, 4), (0.8, 8)]:
            dist = EpsilonUniformScheduler(eps).distribution(0, list(range(n)))
            tv = 0.5 * sum(abs(p - 1.0 / n) for p in dist.values())
            assert tv == pytest.approx(eps * (1 - 1.0 / n))

    def test_threshold(self):
        assert EpsilonUniformScheduler(0.25).threshold(4) == pytest.approx(
            0.75 / 4
        )

    def test_favored_crash_falls_back_pid_stably(self):
        sched = EpsilonUniformScheduler(0.5, favored=1)
        # favored=1 crashed: the point mass moves to the smallest active
        # pid — a pid, not an index into the shrinking active list.
        dist = sched.distribution(0, [0, 2, 3])
        assert dist[0] == pytest.approx(0.5 / 3 + 0.5)
        dist = sched.distribution(0, [2, 3])
        assert dist[2] == pytest.approx(0.5 / 2 + 0.5)

    def test_epsilon_zero_is_uniform(self):
        dist = EpsilonUniformScheduler(0.0).distribution(0, [0, 1, 2])
        assert all(p == pytest.approx(1 / 3) for p in dist.values())


class TestContention:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContentionScheduler(focus=0.5)

    def test_observe_pending_groups_by_register(self):
        sched = ContentionScheduler(focus=3.0)
        sched.observe_pending({0: "top", 1: "top", 2: "head", 3: None})
        # Only groups of >= 2 contend; None (no pending register) never.
        dist = sched.distribution(0, [0, 1, 2, 3])
        contended = 3.0 / (3.0 + 3.0 + 1.0 + 1.0)
        rest = 1.0 / 8.0
        assert dist[0] == pytest.approx(contended)
        assert dist[1] == pytest.approx(contended)
        assert dist[2] == pytest.approx(rest)
        assert dist[3] == pytest.approx(rest)

    def test_no_contention_is_uniform(self):
        sched = ContentionScheduler(focus=8.0)
        sched.observe_pending({0: "a", 1: "b", 2: None})
        dist = sched.distribution(0, [0, 1, 2])
        assert all(p == pytest.approx(1 / 3) for p in dist.values())

    def test_crashed_contender_never_weighted(self):
        sched = ContentionScheduler(focus=5.0)
        sched.observe_pending({0: "top", 1: "top", 2: "x"})
        # pid 0 crashes: its stale contending membership must not leak
        # into the distribution over the survivors.
        dist = sched.distribution(0, [1, 2])
        assert dist[1] == pytest.approx(5.0 / 6.0)
        assert dist[2] == pytest.approx(1.0 / 6.0)

    def test_threshold_is_worst_case_share(self):
        # Worst case for one pid: everyone else contends.
        sched = ContentionScheduler(focus=4.0)
        n = 5
        sched.observe_pending({pid: "hot" for pid in range(1, n)})
        dist = sched.distribution(0, list(range(n)))
        assert min(dist.values()) == pytest.approx(sched.threshold(n))
        assert dist[0] == pytest.approx(1.0 / (1.0 + 4.0 * (n - 1)))

    def test_snapshot_restore_round_trips_contending_set(self):
        sched = ContentionScheduler(focus=2.0)
        sched.observe_pending({0: "a", 1: "a"})
        before = sched.distribution(0, [0, 1, 2])
        snapshot = sched.state_snapshot()
        sched.observe_pending({1: "b", 2: "b"})
        assert sched.distribution(0, [0, 1, 2]) != before
        sched.state_restore(snapshot)
        assert sched.distribution(0, [0, 1, 2]) == before


    def test_cdf_cache_stays_within_its_limit(self):
        """Random pending maps at n = 64 make nearly every contending set
        new; the cdf cache must drop old entries, not grow without bound."""
        n = 64
        sched = ContentionScheduler(focus=4.0)
        rng = np.random.default_rng(17)
        names = [f"r{k}" for k in range(24)] + [None]
        draws = np.random.default_rng(18).integers(len(names), size=(50_000, n))
        active = list(range(n))
        largest = 0
        for row in draws.tolist():
            sched.observe_pending({pid: names[k] for pid, k in enumerate(row)})
            sched.select(0, active, rng)
            largest = max(largest, len(sched._cdfs))
        assert largest == _CDF_CACHE_LIMIT


class TestThresholdLengthChecks:
    def test_skewed_threshold_rejects_mismatched_n(self):
        sched = SkewedStochasticScheduler([1.0, 2.0, 3.0])
        with pytest.raises(ValueError) as excinfo:
            sched.threshold(2)
        # The error names both lengths instead of silently truncating.
        assert "3 weights" in str(excinfo.value)
        assert "2 processes" in str(excinfo.value)

    def test_lottery_threshold_rejects_mismatched_n(self):
        sched = LotteryScheduler([1, 1])
        with pytest.raises(ValueError) as excinfo:
            sched.threshold(3)
        assert "2 weights" in str(excinfo.value)
        assert "3 processes" in str(excinfo.value)

    def test_matching_n_still_works(self):
        assert SkewedStochasticScheduler([1.0, 3.0]).threshold(2) == 0.25
        assert LotteryScheduler([1, 1, 2]).threshold(3) == 0.25


class TestAdversarialDistribution:
    def test_stateless_strategy_works(self):
        sched = AdversarialScheduler(lambda time, active: active[time % len(active)])
        assert sched.distribution(1, [5, 6]) == {5: 0.0, 6: 1.0}

    def test_stateful_strategy_with_peek_does_not_advance(self):
        sched = AdversarialScheduler.round_robin()
        rng = np.random.default_rng(0)
        first = sched.distribution(0, [0, 1, 2])
        assert first == sched.distribution(0, [0, 1, 2])
        # The select sequence is what a fresh scheduler produces: the
        # distribution queries above advanced nothing.
        picks = [sched.select(t, [0, 1, 2], rng) for t in range(1, 4)]
        assert picks == [0, 1, 2]

    def test_stateful_strategy_without_peek_raises(self):
        class OpaqueRotation:
            def __init__(self):
                self.calls = 0

            def state_snapshot(self):
                return self.calls

            def state_restore(self, snapshot):
                self.calls = snapshot

            def __call__(self, time, active):
                pid = active[self.calls % len(active)]
                self.calls += 1
                return pid

        sched = AdversarialScheduler(OpaqueRotation())
        with pytest.raises(NotImplementedError) as excinfo:
            sched.distribution(0, [0, 1])
        assert "OpaqueRotation" in str(excinfo.value)
        # ...and the refusal must not have advanced the strategy either.
        rng = np.random.default_rng(0)
        assert sched.select(1, [0, 1], rng) == 0


class TestSpoilerCrashRotation:
    def test_victim_present_alternates_two_to_one(self):
        sched = AdversarialScheduler.alternating_spoiler(0)
        rng = np.random.default_rng(0)
        picks = [sched.select(t, [0, 1, 2, 3], rng) for t in range(1, 10)]
        assert picks == [0, 0, 1, 0, 0, 2, 0, 0, 3]

    def test_victim_crashed_rotates_over_survivors(self):
        sched = AdversarialScheduler.alternating_spoiler(0)
        rng = np.random.default_rng(0)
        # Victim 0 crashed from the start: every slot goes to a
        # pid-stable rotation over the others — not others[0] pinned.
        picks = [sched.select(t, [1, 2, 3], rng) for t in range(1, 7)]
        assert picks == [1, 2, 3, 1, 2, 3]

    def test_rotation_survives_mid_run_crashes_pid_stably(self):
        sched = AdversarialScheduler.alternating_spoiler(0)
        rng = np.random.default_rng(0)
        for t in range(1, 7):  # spoiler slots at t=3 (pid 1), t=6 (pid 2)
            sched.select(t, [0, 1, 2, 3], rng)
        # Victim crashes: the same rotation resumes after pid 2, so no
        # survivor is skipped or double-scheduled by list reindexing.
        picks = [sched.select(t, [1, 2, 3], rng) for t in range(7, 10)]
        assert picks == [3, 1, 2]
        # A spoiler crash removes exactly its own pid from the cycle.
        picks = [sched.select(t, [1, 3], rng) for t in range(10, 12)]
        assert picks == [3, 1]


class TestMarkovThresholdMonteCarlo:
    def test_threshold_matches_empirical_minimum_frequency(self):
        # The docstring's theta must be the slowed process's share in
        # its own regime — the per-step minimum.  Hold the scheduler in
        # the regime that slows pid 0 and measure pid 0's frequency.
        n, slowdown = 4, 4.0
        sched = MarkovModulatedScheduler(slowdown=slowdown)
        sched.state_restore((0, 10**9))  # regime: pid 0 slowed, pinned
        rng = np.random.default_rng(7)
        draws = 20_000
        active = list(range(n))
        hits = sum(sched.select(t, active, rng) == 0 for t in range(draws))
        freq = hits / draws

        theta = sched.threshold(n)
        assert theta == pytest.approx(1.0 / (slowdown * (n - 1) + 1.0))
        sigma = (theta * (1 - theta) / draws) ** 0.5
        assert abs(freq - theta) < 5 * sigma

        # The formula the docstring used to claim, 1/(n-1+slowdown),
        # is NOT a valid per-step lower bound for n >= 3: the measured
        # minimum frequency sits far below it.
        old_docstring_theta = 1.0 / (n - 1 + slowdown)
        assert freq + 5 * sigma < old_docstring_theta
