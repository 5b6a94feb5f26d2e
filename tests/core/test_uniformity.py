"""Mapping the uniformity boundary: departure points, curves, the zoo table.

Also pins the executor plumbing the contention adversary rides on: the
``observe_pending`` hook fires identically on the serial and batched
engines (bit-identical traces), and the ensemble engine refuses
schedulers that need per-step contention state rather than silently
ignoring it.
"""

import numpy as np
import pytest

from repro.algorithms.registry import get_workload
from repro.core.scheduler import (
    ContentionScheduler,
    EpsilonUniformScheduler,
    UniformStochasticScheduler,
)
from repro.core.sweep import latency_sweep
from repro.core.uniformity import (
    DeparturePoint,
    contention_family,
    default_departure_schedulers,
    departure_curve,
    epsilon_family,
    measure_departure_point,
    zoo_departure_table,
)
from repro.sim.executor import Simulator


class TestDeparturePoint:
    def test_uniform_point_is_sane(self):
        point = measure_departure_point(
            get_workload("cas-counter"),
            UniformStochasticScheduler,
            n_processes=4,
            steps=4_000,
        )
        assert isinstance(point, DeparturePoint)
        assert 0.0 <= point.tv_distance <= 1.0
        assert point.completions > 0
        assert point.p50_latency <= point.p99_latency
        assert point.system_latency == pytest.approx(
            point.steps / point.completions
        )
        assert set(point.as_dict()) == {
            "scheduler",
            "tv_distance",
            "fairness_ratio",
            "p50_latency",
            "p99_latency",
            "system_latency",
            "completion_rate",
            "completions",
            "steps",
        }

    def test_serial_and_batched_engines_agree_under_contention(self):
        kwargs = dict(n_processes=4, steps=3_000, seed=1)
        points = [
            measure_departure_point(
                get_workload("rtas-lock"),
                lambda: ContentionScheduler(focus=4.0),
                batched=batched,
                **kwargs,
            )
            for batched in (False, True)
        ]
        assert points[0] == points[1]

    def test_burn_in_validation(self):
        with pytest.raises(ValueError, match="burn_in"):
            measure_departure_point(
                get_workload("cas-counter"),
                lambda: EpsilonUniformScheduler(0.0),
                n_processes=2,
                steps=100,
                burn_in=100,
            )


class TestDepartureFamilies:
    def test_epsilon_family_labels(self):
        family = epsilon_family([0.0, 0.25])
        assert [label for label, _ in family] == ["epsilon(0)", "epsilon(0.25)"]
        assert family[1][1]().epsilon == 0.25

    def test_contention_family_labels(self):
        family = contention_family([2.0])
        assert family[0][0] == "contention(2)"
        assert family[0][1]().focus == 2.0

    def test_default_family_starts_at_uniform(self):
        labels = [label for label, _ in default_departure_schedulers()]
        assert labels[0] == "uniform"
        assert "epsilon(0.8)" in labels
        assert "contention(8)" in labels

    def test_measured_tv_tracks_the_epsilon_dial(self):
        # The realised TV distance must grow with epsilon and approach
        # the closed form eps * (1 - 1/n).
        curve = departure_curve(
            get_workload("cas-counter"),
            epsilon_family([0.0, 0.4, 0.8]),
            n_processes=4,
            steps=4_000,
        )
        tv = [point.tv_distance for point in curve]
        assert tv[0] < tv[1] < tv[2]
        assert tv[2] == pytest.approx(0.8 * (1 - 1 / 4), abs=0.05)


class TestZooTable:
    def test_table_shape_and_sorting(self):
        table = zoo_departure_table(
            ["cas-counter", "rtas-lock"],
            [("uniform", lambda: EpsilonUniformScheduler(0.0))]
            + epsilon_family([0.6]),
            n_processes=4,
            steps=2_000,
        )
        assert set(table["workloads"]) == {"cas-counter", "rtas-lock"}
        assert table["n_processes"] == 4
        for points in table["workloads"].values():
            distances = [p["tv_distance"] for p in points]
            assert distances == sorted(distances)

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            zoo_departure_table(["no-such-workload"], n_processes=2, steps=100)


class TestExecutorContentionHook:
    def test_hook_feeds_contending_set(self):
        scheduler = ContentionScheduler(focus=4.0)
        workload = get_workload("cas-counter")
        sim = Simulator(
            workload.factory_builder(),
            scheduler,
            n_processes=3,
            memory=workload.memory_builder(),
            rng=np.random.default_rng(0),
        )
        sim.run(50)
        # Every CAS-counter process targets the one counter register,
        # so after warm-up the whole active set is contending.
        assert scheduler.state_snapshot() == frozenset({0, 1, 2})

    def test_serial_batched_traces_identical_with_hook(self):
        workload = get_workload("rtas-lock")
        recorders = []
        for batched in (False, True):
            sim = Simulator(
                workload.factory_builder(),
                ContentionScheduler(focus=4.0),
                n_processes=3,
                memory=workload.memory_builder(),
                rng=np.random.default_rng(9),
                record_completion_times=True,
            )
            sim.run_batched(2_000) if batched else sim.run(2_000)
            recorders.append(sim.recorder)
        assert recorders[0].completion_times == recorders[1].completion_times
        assert recorders[0].completion_pids == recorders[1].completion_pids

    @pytest.mark.parametrize("name", ["msqueue", "rtas-lock"])
    def test_run_batched_leaves_rng_and_scheduler_state_where_run_does(
        self, name
    ):
        """Contention schedulers take the serial loop under run_batched,
        so both calls leave the RNG stream, the scheduler's contending
        set and the clock in the same place — and can interleave."""
        workload = get_workload(name)
        ends = []
        for batched in (False, True):
            scheduler = ContentionScheduler(focus=8.0)
            sim = Simulator(
                workload.factory_builder(),
                scheduler,
                n_processes=4,
                memory=workload.memory_builder(),
                rng=np.random.default_rng(3),
            )
            if batched:
                sim.run_batched(700)
                sim.run(300)
                sim.run_batched(500, batch_size=64)
            else:
                sim.run(1_500)
            ends.append(
                (
                    sim.rng.bit_generator.state,
                    scheduler.state_snapshot(),
                    sim.time,
                    sim.recorder.total_completions,
                )
            )
        assert ends[0] == ends[1]

    def test_ensemble_engine_rejects_contention_schedulers(self):
        workload = get_workload("cas-counter")
        with pytest.raises(ValueError, match="observe_pending"):
            latency_sweep(
                workload.factory_builder,
                workload.memory_builder,
                [2],
                steps=200,
                repeats=2,
                scheduler_builder=lambda: ContentionScheduler(),
                engine="ensemble",
            )
