"""The workload registry: every zoo member through the measurement pipeline.

The acceptance bar for the registry is not "constructs" but "flows":
every registered workload must run through ``measure_latencies`` and
``latency_sweep`` on the serial and batched engines bit-identically,
checkpoint/resume bit-identically with the workload name folded into
the fingerprint, and cross process boundaries for ``parallel_sweep``.
"""

import pytest

from repro.algorithms.registry import (
    Workload,
    _REGISTRY,
    get_workload,
    iter_workloads,
    register_workload,
    workload_names,
)
from repro.core.checkpoint import CheckpointMismatchError
from repro.core.latency import measure_latencies
from repro.core.scheduler import UniformStochasticScheduler
from repro.core.sweep import latency_sweep

EXPECTED_NAMES = (
    "cas-counter",
    "harris-set",
    "msqueue",
    "obstruction",
    "rtas-lock",
    "tas-lock",
    "ticket-lock",
    "treiber",
    "universal-counter",
)


class TestRegistryBasics:
    def test_expected_zoo_members(self):
        assert workload_names() == EXPECTED_NAMES

    def test_get_unknown_names_the_options(self):
        with pytest.raises(KeyError) as excinfo:
            get_workload("nope")
        assert "cas-counter" in str(excinfo.value)

    def test_iter_matches_names(self):
        assert tuple(w.name for w in iter_workloads()) == workload_names()

    def test_fingerprint_is_the_name(self):
        assert get_workload("msqueue").fingerprint == "msqueue"

    def test_duplicate_registration_refused(self):
        workload = get_workload("treiber")
        with pytest.raises(ValueError, match="already registered"):
            register_workload(workload)
        # replace=True is the explicit override.
        assert register_workload(workload, replace=True) is workload

    def test_throwaway_registration_round_trips(self):
        probe = Workload(
            "throwaway-test-only",
            get_workload("cas-counter").factory_builder,
            get_workload("cas-counter").memory_builder,
        )
        register_workload(probe)
        try:
            assert get_workload("throwaway-test-only") is probe
        finally:
            del _REGISTRY["throwaway-test-only"]

    def test_metadata_flags(self):
        assert get_workload("cas-counter").scu_shape == (0, 1)
        assert get_workload("universal-counter").scu_shape == (0, 1)
        assert get_workload("msqueue").scu_shape is None
        assert get_workload("tas-lock").blocking
        assert get_workload("ticket-lock").blocking
        assert get_workload("rtas-lock").blocking
        assert not get_workload("treiber").blocking


class TestEveryWorkloadMeasures:
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_serial_and_batched_engines_bit_identical(self, name):
        workload = get_workload(name)
        runs = [
            measure_latencies(
                workload.factory_builder(),
                UniformStochasticScheduler(),
                n_processes=3,
                steps=1_500,
                memory=workload.memory_builder(),
                rng=11,
                batched=batched,
            )
            for batched in (False, True)
        ]
        assert runs[0] == runs[1]
        assert runs[0].total_completions > 0

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_latency_sweep_checkpoint_resume_bit_identity(self, name, tmp_path):
        workload = get_workload(name)
        kwargs = dict(
            steps=400,
            repeats=2,
            seed=3,
            checkpoint=tmp_path / "cp.jsonl",
            workload=workload.fingerprint,
        )
        points = latency_sweep(
            workload.factory_builder, workload.memory_builder, [2, 3], **kwargs
        )
        resumed = latency_sweep(
            workload.factory_builder,
            workload.memory_builder,
            [2, 3],
            resume=True,
            **kwargs,
        )
        assert resumed == points

    def test_checkpoint_rejects_other_workload(self, tmp_path):
        msqueue = get_workload("msqueue")
        treiber = get_workload("treiber")
        kwargs = dict(steps=300, repeats=2, checkpoint=tmp_path / "cp.jsonl")
        latency_sweep(
            msqueue.factory_builder,
            msqueue.memory_builder,
            [2],
            workload=msqueue.fingerprint,
            **kwargs,
        )
        with pytest.raises(CheckpointMismatchError, match="workload"):
            latency_sweep(
                treiber.factory_builder,
                treiber.memory_builder,
                [2],
                workload=treiber.fingerprint,
                resume=True,
                **kwargs,
            )

    def test_workload_none_is_a_distinct_fingerprint(self, tmp_path):
        # The historical CAS-counter default (workload=None) must not
        # resume against a named-workload checkpoint, or vice versa.
        counter = get_workload("cas-counter")
        kwargs = dict(steps=300, repeats=2, checkpoint=tmp_path / "cp.jsonl")
        latency_sweep(
            counter.factory_builder,
            counter.memory_builder,
            [2],
            workload=counter.fingerprint,
            **kwargs,
        )
        with pytest.raises(CheckpointMismatchError, match="workload"):
            latency_sweep(
                counter.factory_builder,
                counter.memory_builder,
                [2],
                resume=True,
                **kwargs,
            )

    def test_parallel_sweep_matches_serial_for_registry_workload(self):
        # Registry builders are module-level callables, so they pickle
        # across parallel_sweep's process pool.
        from repro.core.sweep import parallel_sweep

        workload = get_workload("msqueue")
        kwargs = dict(steps=300, repeats=2, seed=5, engine="batched")
        serial = latency_sweep(
            workload.factory_builder, workload.memory_builder, [2, 3], **kwargs
        )
        parallel = parallel_sweep(
            workload.factory_builder,
            workload.memory_builder,
            [2, 3],
            max_workers=2,
            workload=workload.fingerprint,
            **kwargs,
        )
        assert parallel == serial
