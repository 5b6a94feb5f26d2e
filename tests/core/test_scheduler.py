"""Unit tests for repro.core.scheduler (Definition 1)."""

import numpy as np
import pytest

from repro.core.scheduler import (
    AdversarialScheduler,
    DistributionScheduler,
    HardwareLikeScheduler,
    LotteryScheduler,
    SkewedStochasticScheduler,
    UniformStochasticScheduler,
    scheduler_chain_distribution,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestUniform:
    def test_distribution_is_uniform(self):
        sched = UniformStochasticScheduler()
        dist = sched.distribution(1, [0, 1, 2, 3])
        assert dist == {pid: 0.25 for pid in range(4)}

    def test_distribution_over_active_subset(self):
        sched = UniformStochasticScheduler()
        dist = sched.distribution(1, [1, 3])
        assert dist == {1: 0.5, 3: 0.5}

    def test_threshold_is_one_over_n(self):
        assert UniformStochasticScheduler().threshold(8) == pytest.approx(1 / 8)

    def test_selection_frequency(self, rng):
        sched = UniformStochasticScheduler()
        counts = np.zeros(4)
        for t in range(20_000):
            counts[sched.select(t, [0, 1, 2, 3], rng)] += 1
        assert np.allclose(counts / counts.sum(), 0.25, atol=0.02)

    def test_selects_from_active_only(self, rng):
        sched = UniformStochasticScheduler()
        for t in range(100):
            assert sched.select(t, [2, 5], rng) in (2, 5)

    @pytest.mark.parametrize("n", [1, 3, 16, 64])
    @pytest.mark.parametrize("size", [1, 7, 1_000])
    def test_full_range_draw_keeps_the_batch_contract(self, n, size):
        """Over ``range(n)`` the draw is returned ungathered; it must
        still give the pids and consume the RNG words of the list form
        and of ``size`` sequential ``select`` calls."""
        sched = UniformStochasticScheduler()
        rngs = [np.random.default_rng(11) for _ in range(3)]
        full = sched.select_batch(5, range(n), rngs[0], size)
        listed = sched.select_batch(5, list(range(n)), rngs[1], size)
        sequential = [
            sched.select(5 + k, list(range(n)), rngs[2]) for k in range(size)
        ]
        assert full.dtype == np.int64
        assert full.tolist() == listed.tolist() == sequential
        states = [r.bit_generator.state for r in rngs]
        assert states[0] == states[1] == states[2]

    @pytest.mark.parametrize(
        "active", [[0, 2, 5], [1, 2, 3], range(2, 6), range(0, 8, 2)]
    )
    def test_partial_active_sets_are_gathered(self, active):
        """A crashed-down active list, or any range other than
        ``range(n)``, maps the drawn indices through the active set."""
        sched = UniformStochasticScheduler()
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        pids = sched.select_batch(1, active, rng, 500)
        indices = twin.integers(len(active), size=500)
        assert pids.tolist() == np.asarray(list(active))[indices].tolist()
        assert set(pids.tolist()) <= set(active)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestSkewed:
    def test_weights_drive_frequencies(self, rng):
        sched = SkewedStochasticScheduler([1.0, 3.0])
        counts = np.zeros(2)
        for t in range(20_000):
            counts[sched.select(t, [0, 1], rng)] += 1
        assert counts[1] / counts.sum() == pytest.approx(0.75, abs=0.02)

    def test_threshold_is_min_share(self):
        sched = SkewedStochasticScheduler([1.0, 3.0])
        assert sched.threshold(2) == pytest.approx(0.25)

    def test_renormalises_over_active(self):
        sched = SkewedStochasticScheduler([1.0, 1.0, 2.0])
        dist = sched.distribution(1, [0, 2])
        assert dist[0] == pytest.approx(1 / 3)
        assert dist[2] == pytest.approx(2 / 3)

    def test_rejects_non_positive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            SkewedStochasticScheduler([1.0, 0.0])

    def test_rejects_empty_weights(self):
        with pytest.raises(ValueError):
            SkewedStochasticScheduler([])


class TestLottery:
    def test_integer_tickets_required(self):
        with pytest.raises(ValueError, match="integers"):
            LotteryScheduler([1.5, 2.5])

    def test_ticket_proportions(self, rng):
        sched = LotteryScheduler([1, 4])
        dist = sched.distribution(1, [0, 1])
        assert dist[1] == pytest.approx(0.8)


class TestDistributionScheduler:
    def test_valid_distribution_accepted(self, rng):
        sched = DistributionScheduler(
            lambda t, active: {pid: 1.0 / len(active) for pid in active},
            theta=0.1,
        )
        assert sched.select(1, [0, 1], rng) in (0, 1)
        assert sched.threshold(2) == 0.1

    def test_well_formedness_enforced(self, rng):
        sched = DistributionScheduler(lambda t, active: {0: 0.5, 1: 0.4})
        with pytest.raises(ValueError, match="well-formedness"):
            sched.select(1, [0, 1], rng)

    def test_weak_fairness_enforced(self, rng):
        sched = DistributionScheduler(
            lambda t, active: {0: 0.95, 1: 0.05}, theta=0.1
        )
        with pytest.raises(ValueError, match="theta"):
            sched.select(1, [0, 1], rng)

    def test_crash_condition_enforced(self, rng):
        sched = DistributionScheduler(lambda t, active: {0: 0.5, 9: 0.5})
        with pytest.raises(ValueError, match="non-active"):
            sched.select(1, [0, 1], rng)

    def test_validation_can_be_disabled(self, rng):
        sched = DistributionScheduler(
            lambda t, active: {0: 0.6, 1: 0.4}, theta=0.5, validate=False
        )
        assert sched.select(1, [0, 1], rng) in (0, 1)

    def test_theta_bounds_checked(self):
        with pytest.raises(ValueError, match="theta"):
            DistributionScheduler(lambda t, a: {}, theta=1.5)


class TestAdversarial:
    def test_round_robin_cycles(self, rng):
        sched = AdversarialScheduler.round_robin()
        picks = [sched.select(t, [0, 1, 2], rng) for t in range(1, 7)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_starve_never_schedules_victim(self, rng):
        sched = AdversarialScheduler.starve(victim=1)
        picks = {sched.select(t, [0, 1, 2], rng) for t in range(1, 50)}
        assert 1 not in picks

    def test_starve_schedules_victim_when_alone(self, rng):
        sched = AdversarialScheduler.starve(victim=1)
        assert sched.select(1, [1], rng) == 1

    def test_degenerate_distribution(self):
        sched = AdversarialScheduler.round_robin()
        dist = sched.distribution(1, [0, 1])
        assert dist == {0: 1.0, 1: 0.0}

    def test_threshold_is_zero(self):
        assert AdversarialScheduler.round_robin().threshold(4) == 0.0

    def test_invalid_choice_raises(self, rng):
        sched = AdversarialScheduler(lambda t, active: 99)
        with pytest.raises(ValueError, match="inactive"):
            sched.select(1, [0, 1], rng)

    def test_alternating_spoiler_interleaves(self, rng):
        sched = AdversarialScheduler.alternating_spoiler(victim=0)
        picks = [sched.select(t, [0, 1], rng) for t in range(1, 10)]
        assert 0 in picks and 1 in picks


class TestHardwareLike:
    def test_long_run_fairness(self, rng):
        sched = HardwareLikeScheduler()
        counts = np.zeros(8)
        for t in range(1, 60_000):
            counts[sched.select(t, list(range(8)), rng)] += 1
        shares = counts / counts.sum()
        assert np.allclose(shares, 1 / 8, atol=0.02)

    def test_produces_runs(self, rng):
        sched = HardwareLikeScheduler(mean_quantum=4.0, jitter=0.0)
        picks = [sched.select(t, [0, 1, 2], rng) for t in range(1, 2000)]
        runs = []
        current, length = picks[0], 1
        for pid in picks[1:]:
            if pid == current:
                length += 1
            else:
                runs.append(length)
                current, length = pid, 1
        assert np.mean(runs) > 1.5  # bursty, unlike the uniform scheduler

    def test_handles_crashing_current(self, rng):
        sched = HardwareLikeScheduler(mean_quantum=10.0)
        first = sched.select(1, [0, 1], rng)
        other = 1 - first
        # The current process disappears from the active set.
        assert sched.select(2, [other], rng) == other

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HardwareLikeScheduler(mean_quantum=0.5)
        with pytest.raises(ValueError):
            HardwareLikeScheduler(jitter=1.0)
        with pytest.raises(ValueError):
            HardwareLikeScheduler(jitter_rate=0.0)

    def test_no_closed_form_distribution(self):
        with pytest.raises(NotImplementedError):
            HardwareLikeScheduler().distribution(1, [0, 1])


class TestHelpers:
    def test_scheduler_chain_distribution(self):
        dist = scheduler_chain_distribution(UniformStochasticScheduler(), 4)
        assert np.allclose(dist, 0.25)


class TestAdversarialCrashRotation:
    """Regression tests: the rotation must be pid-stable under crashes.

    The previous position-indexed implementation (``active[(t - 1) %
    len(active)]``) shifted every later process's slot when the active
    list shrank, skipping some survivors and double-scheduling others.
    """

    def test_round_robin_pid_stable_after_crash(self, rng):
        sched = AdversarialScheduler.round_robin()
        assert [sched.select(t, [0, 1, 2], rng) for t in (1, 2, 3)] == [0, 1, 2]
        # Process 0 crashes: the survivors keep cycling 1, 2, 1, 2, ...
        assert sched.select(4, [1, 2], rng) == 1
        assert sched.select(5, [1, 2], rng) == 2
        assert sched.select(6, [1, 2], rng) == 1

    def test_round_robin_does_not_skip_after_crash(self, rng):
        sched = AdversarialScheduler.round_robin()
        assert sched.select(1, [0, 1, 2, 3], rng) == 0
        # The next process in line (1) crashes: 2 steps next, nobody is
        # skipped and nobody is scheduled twice in a row.
        assert sched.select(2, [0, 2, 3], rng) == 2
        assert sched.select(3, [0, 2, 3], rng) == 3
        assert sched.select(4, [0, 2, 3], rng) == 0

    def test_starve_rotation_pid_stable_after_crash(self, rng):
        sched = AdversarialScheduler.starve(victim=2)
        picks = [sched.select(t, [0, 1, 2, 3], rng) for t in (1, 2, 3)]
        assert picks == [0, 1, 3]
        # Process 0 crashes; the non-victim rotation wraps to 1 and the
        # victim still never runs.
        assert sched.select(4, [1, 2, 3], rng) == 1
        assert sched.select(5, [1, 2, 3], rng) == 3
        assert sched.select(6, [1, 2, 3], rng) == 1

    def test_starve_victim_alone_does_not_advance_rotation(self, rng):
        sched = AdversarialScheduler.starve(victim=1)
        assert sched.select(1, [0, 1], rng) == 0
        assert sched.select(2, [1], rng) == 1
        # 0 is schedulable again: the rotation resumes from its own state
        # rather than having been advanced by the victim's forced step.
        assert sched.select(3, [0, 1], rng) == 0


class TestDistributionWellFormedness:
    def test_unvalidated_ill_formed_sum_raises(self, rng):
        # Regression: validate=False used to silently renormalise
        # probs / probs.sum(), masking an ill-formed Pi_tau entirely.
        sched = DistributionScheduler(
            lambda t, active: {0: 0.25, 1: 0.25}, validate=False
        )
        with pytest.raises(ValueError, match="well-formedness"):
            sched.select(1, [0, 1], rng)

    def test_unvalidated_roundoff_drift_tolerated(self, rng):
        drift = DistributionScheduler.SUM_TOLERANCE / 4
        sched = DistributionScheduler(
            lambda t, active: {0: 0.5, 1: 0.5 + drift}, validate=False
        )
        assert sched.select(1, [0, 1], rng) in (0, 1)


class TestCrashInteraction:
    """Schedulers with hidden state must honour a shrinking active set."""

    def test_markov_regime_pinned_to_crashed_pid(self, rng):
        from repro.core.scheduler import MarkovModulatedScheduler

        sched = MarkovModulatedScheduler(slowdown=8.0, mean_dwell=10_000.0)
        # Enter a regime that slows process 0, then crash process 0: the
        # scheduler must never select it and must stay weakly fair over
        # the survivors.
        sched.state_restore((0, 10_000))
        survivors = [1, 2, 3]
        steps = 10_000
        counts = {pid: 0 for pid in survivors}
        for t in range(1, steps + 1):
            pid = sched.select(t, survivors, rng)
            assert pid in survivors
            counts[pid] += 1
        theta = sched.threshold(len(survivors))
        for pid in survivors:
            assert counts[pid] / steps >= 0.8 * theta

    def test_hardware_like_mid_quantum_crash(self, rng):
        sched = HardwareLikeScheduler(mean_quantum=8.0)
        active = [0, 1, 2, 3]
        # Drive until a quantum is in flight.
        t = 1
        while True:
            sched.select(t, active, rng)
            t += 1
            current, remaining, _ = sched.state_snapshot()
            if remaining > 0:
                break
        # The running process crashes mid-quantum: its leftover quantum
        # must not leak to the survivors' schedule.
        survivors = [pid for pid in active if pid != current]
        counts = {pid: 0 for pid in survivors}
        for _ in range(2_000):
            pid = sched.select(t, survivors, rng)
            assert pid != current and pid in survivors
            counts[pid] += 1
            t += 1
        # threshold() is 0 for this scheduler (it is not stochastic in
        # the paper's sense), so weak fairness is vacuous; still, every
        # survivor should run in a long execution.
        assert all(counts[pid] > 0 for pid in survivors)
        for pid in survivors:
            assert counts[pid] / 2_000 >= sched.threshold(len(survivors))

    def test_hardware_like_mid_quantum_crash_batched(self, rng):
        sched = HardwareLikeScheduler(mean_quantum=8.0)
        active = [0, 1, 2, 3]
        sched.select_batch(1, active, rng, 64)
        current, remaining, _ = sched.state_snapshot()
        if remaining == 0:
            current = active[0]
        survivors = [pid for pid in active if pid != current]
        pids = sched.select_batch(100, survivors, rng, 512)
        assert set(pids.tolist()) <= set(survivors)
