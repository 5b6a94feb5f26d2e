"""Tests for the sweep service daemon core (repro.service.daemon)."""

import threading
import time

import pytest

from repro.core.runner import RetryPolicy
from repro.core.telemetry import MetricsRegistry
from repro.service import (
    AdmissionError,
    SweepService,
    UnknownJobError,
    job_digest,
    validate_spec,
)

SPEC = {"n_values": [2, 3], "steps": 200, "repeats": 2, "seed": 7}


def wait_terminal(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = service.status(job_id)
        if status["state"] in ("completed", "failed", "poisoned", "cancelled"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never became terminal: {status}")


class TestValidateSpec:
    def test_defaults_filled_in(self):
        spec = validate_spec({"n_values": [2]})
        assert spec["workload"] == "cas-counter"
        assert spec["scheduler"] == "uniform"
        assert spec["repeats"] == 5

    def test_equivalent_spellings_digest_equal(self):
        a = validate_spec({"n_values": [2], "steps": 100, "repeats": 2})
        b = validate_spec(
            {"repeats": 2, "steps": 100, "n_values": (2,), "seed": 0}
        )
        assert job_digest(a) == job_digest(b)

    def test_scu_requires_q_and_s(self):
        with pytest.raises(ValueError, match="scu workload requires"):
            validate_spec({"workload": "scu", "n_values": [2]})

    def test_repeats_below_two_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            validate_spec({"n_values": [2], "repeats": 1})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            validate_spec({"n_values": [2], "banana": 1})

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            validate_spec({"workload": "no-such", "n_values": [2]})

    def test_crash_map_normalized(self):
        spec = validate_spec({"n_values": [4], "crash": {0: 50, "1": 60.5}})
        assert spec["crash"] == {"0": 50.0, "1": 60.5}

    def test_burn_in_must_be_below_steps(self):
        with pytest.raises(ValueError, match="burn_in"):
            validate_spec({"n_values": [2], "steps": 100, "burn_in": 100})

    def test_registry_workloads_accepted(self):
        spec = validate_spec({"workload": "msqueue", "n_values": [2]})
        assert spec["workload"] == "msqueue"

    def test_parameterized_schedulers_normalize(self):
        a = validate_spec({"n_values": [2], "scheduler": "epsilon:0.40"})
        b = validate_spec({"n_values": [2], "scheduler": "epsilon:.4"})
        assert a["scheduler"] == b["scheduler"] == "epsilon:0.4"
        assert job_digest(a) == job_digest(b)
        assert (
            validate_spec({"n_values": [2], "scheduler": "contention"})[
                "scheduler"
            ]
            == "contention:4"
        )

    def test_scheduler_parameter_ranges_checked(self):
        with pytest.raises(ValueError, match="focus"):
            validate_spec({"n_values": [2], "scheduler": "contention:0.5"})
        with pytest.raises(ValueError, match="epsilon"):
            validate_spec({"n_values": [2], "scheduler": "epsilon:1.5"})

    @pytest.mark.parametrize("engine", ["serial", "batched", "ensemble"])
    def test_engine_field_is_unknown(self, engine):
        # The engine is chosen by the sweep, never by the spec: an old
        # client's spec that still names one is refused by name.
        with pytest.raises(
            ValueError, match=r"unknown spec fields: \['engine'\]"
        ):
            validate_spec({"n_values": [2], "engine": engine})

    def test_scheduler_folds_into_spec_fingerprint(self):
        from repro.core.checkpoint import scheduler_identity
        from repro.core.scheduler import EpsilonUniformScheduler
        from repro.service.daemon import spec_fingerprint

        fingerprints = [
            spec_fingerprint(validate_spec({"n_values": [2], "scheduler": name}))
            for name in ("uniform", "epsilon:0.2", "epsilon:0.4", "hardware")
        ]
        assert "engine" not in fingerprints[0]
        assert fingerprints[1]["scheduler"] == scheduler_identity(
            EpsilonUniformScheduler(0.2)
        )
        schedulers = [fp["scheduler"] for fp in fingerprints]
        assert len({repr(identity) for identity in schedulers}) == 4

    def test_workload_folds_into_spec_fingerprint(self):
        from repro.service.daemon import spec_fingerprint

        base = validate_spec({"n_values": [2], "steps": 100, "repeats": 2})
        named = validate_spec(
            {
                "workload": "msqueue",
                "n_values": [2],
                "steps": 100,
                "repeats": 2,
            }
        )
        # cas-counter keeps the historical None fingerprint; every other
        # zoo member folds its registry name.
        assert spec_fingerprint(base)["workload"] is None
        assert spec_fingerprint(named)["workload"] == "msqueue"


class TestFakeRunnerService:
    """Daemon mechanics with an injected (instant) job runner."""

    def make(self, tmp_path, runner, **kwargs):
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("telemetry", MetricsRegistry())
        return SweepService(tmp_path, job_runner=runner, **kwargs)

    def test_submit_runs_and_completes(self, tmp_path):
        def runner(spec, store_dir, *, on_point, telemetry):
            on_point(1, 1)
            return {"recomputed": 0, "triples": []}

        with self.make(tmp_path, runner) as service:
            snap = service.submit(SPEC)
            assert snap["dedupe"] is False
            status = wait_terminal(service, snap["job_id"])
        assert status["state"] == "completed"
        assert status["heartbeats"] >= 1

    def test_resubmit_is_dedupe_hit(self, tmp_path):
        def runner(spec, store_dir, *, on_point, telemetry):
            return {"ok": True}

        telemetry = MetricsRegistry()
        with self.make(tmp_path, runner, telemetry=telemetry) as service:
            job_id = service.submit(SPEC)["job_id"]
            wait_terminal(service, job_id)
            again = service.submit(SPEC)
            assert again["dedupe"] is True
            assert again["state"] == "completed"
        assert telemetry.counters["service.dedupe_hits"] == 1

    def test_admission_control_sheds_load(self, tmp_path):
        gate = threading.Event()

        def runner(spec, store_dir, *, on_point, telemetry):
            gate.wait(30)
            return {}

        with self.make(tmp_path, runner, max_queue=1) as service:
            specs = [dict(SPEC, seed=i) for i in range(8)]
            rejected = None
            for spec in specs:
                try:
                    service.submit(spec)
                except AdmissionError as exc:
                    rejected = exc
                    break
            assert rejected is not None
            assert rejected.payload["error"] == "queue-full"
            assert rejected.payload["limit"] == 1
            assert rejected.payload["retriable"] is True
            gate.set()

    def test_failed_job_retried_then_poisoned(self, tmp_path):
        attempts = []

        def runner(spec, store_dir, *, on_point, telemetry):
            attempts.append(1)
            raise RuntimeError("injected persistent failure")

        policy = RetryPolicy(max_retries=2, base_delay=0.0, max_delay=0.0)
        with self.make(tmp_path, runner, retry_policy=policy) as service:
            job_id = service.submit(SPEC)["job_id"]
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if service.status(job_id)["state"] == "poisoned":
                    break
                time.sleep(0.02)
            status = service.status(job_id)
        assert status["state"] == "poisoned"
        assert len(attempts) == 3  # max_retries + 1
        assert "injected persistent failure" in status["error"]

    def test_transient_failure_recovers(self, tmp_path):
        calls = []

        def runner(spec, store_dir, *, on_point, telemetry):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return {"ok": True}

        policy = RetryPolicy(max_retries=2, base_delay=0.0, max_delay=0.0)
        with self.make(tmp_path, runner, retry_policy=policy) as service:
            job_id = service.submit(SPEC)["job_id"]
            status = wait_terminal(service, job_id)
        assert status["state"] == "completed"
        assert status["attempt"] == 2

    def test_cancel_queued_job(self, tmp_path):
        gate = threading.Event()

        def runner(spec, store_dir, *, on_point, telemetry):
            gate.wait(30)
            return {}

        with self.make(tmp_path, runner) as service:
            blocker = service.submit(SPEC)["job_id"]
            queued = service.submit(dict(SPEC, seed=99))["job_id"]
            cancelled = service.cancel(queued)
            assert cancelled["state"] == "cancelled"
            gate.set()
            wait_terminal(service, blocker)

    def test_cancel_running_job_at_point_boundary(self, tmp_path):
        started = threading.Event()
        release = threading.Event()

        def runner(spec, store_dir, *, on_point, telemetry):
            started.set()
            for _ in range(600):
                release.wait(0.05)
                on_point(1, 600)  # raises JobCancelled once flagged
            return {}

        with self.make(tmp_path, runner, heartbeat_interval=0.01) as service:
            job_id = service.submit(SPEC)["job_id"]
            assert started.wait(10)
            service.cancel(job_id)
            status = wait_terminal(service, job_id)
        assert status["state"] == "cancelled"

    def test_unknown_job_raises(self, tmp_path):
        def runner(spec, store_dir, *, on_point, telemetry):
            return {}

        with self.make(tmp_path, runner) as service:
            with pytest.raises(UnknownJobError):
                service.status("no-such-job")

    def test_restart_requeues_queued_jobs(self, tmp_path):
        gate = threading.Event()
        ran = []

        def blocking_runner(spec, store_dir, *, on_point, telemetry):
            gate.wait(30)
            return {}

        service = SweepService(
            tmp_path, workers=1, job_runner=blocking_runner
        ).start()
        blocker = service.submit(SPEC)["job_id"]
        queued = service.submit(dict(SPEC, seed=5))["job_id"]
        gate.set()
        wait_terminal(service, blocker)
        wait_terminal(service, queued)
        service.shutdown()

        def counting_runner(spec, store_dir, *, on_point, telemetry):
            ran.append(spec["seed"])
            return {}

        # Restart: completed jobs replay as completed, nothing re-runs.
        with SweepService(
            tmp_path, workers=1, job_runner=counting_runner
        ) as service:
            assert service.status(blocker)["state"] == "completed"
            assert service.status(queued)["state"] == "completed"
            time.sleep(0.2)
        assert ran == []


class TestRealSweepService:
    """The daemon against the real ``latency_sweep`` job runner."""

    def test_results_bit_identical_to_direct_sweep_and_overlap_dedupes(
        self, tmp_path
    ):
        from repro.algorithms.counter import cas_counter, make_counter_memory
        from repro.core.sweep import latency_sweep

        telemetry = MetricsRegistry()
        with SweepService(
            tmp_path, workers=2, telemetry=telemetry
        ) as service:
            first = service.submit(SPEC)["job_id"]
            status = wait_terminal(service, first)
            assert status["state"] == "completed", status["error"]
            result = service.result(first)
            assert result["recomputed"] == 4
            assert result["warm_points"] == 0

            direct = latency_sweep(
                cas_counter,
                make_counter_memory,
                SPEC["n_values"],
                steps=SPEC["steps"],
                repeats=SPEC["repeats"],
                seed=SPEC["seed"],
                engine="batched",
            )
            for point, served in zip(direct, result["points"]):
                assert point.system_latency.mean == (
                    served["system_latency"]["mean"]
                )
                assert point.completion_rate.mean == (
                    served["completion_rate"]["mean"]
                )
                assert point.fairness_ratio.mean == (
                    served["fairness_ratio"]["mean"]
                )

            # An overlapping grid recomputes only the novel points.
            overlap = service.submit(dict(SPEC, n_values=[2, 3, 4]))
            assert overlap["dedupe"] is False
            status = wait_terminal(service, overlap["job_id"])
            assert status["state"] == "completed", status["error"]
            second = service.result(overlap["job_id"])
            assert second["warm_points"] == 4
            assert second["recomputed"] == 2
            shared = {tuple(t[:2]): t[2] for t in result["triples"]}
            for n, r, triple in second["triples"]:
                if (n, r) in shared:
                    assert shared[(n, r)] == triple
        counters = telemetry.counters
        assert counters["service.memo_warm_points"] == 4
        assert counters["service.completed"] == 2

    def test_identical_resubmission_recomputes_zero_points(self, tmp_path):
        telemetry = MetricsRegistry()
        with SweepService(
            tmp_path, workers=1, telemetry=telemetry
        ) as service:
            first = service.submit(SPEC)["job_id"]
            wait_terminal(service, first)
            result_one = service.result(first)
            again = service.submit(dict(SPEC))  # same content -> same job
            assert again["dedupe"] is True
            assert again["job_id"] == first
            assert service.result(first)["triples"] == result_one["triples"]
        assert telemetry.counters["service.dedupe_hits"] == 1
        # exactly one job's worth of points was ever computed
        assert telemetry.counters["service.recomputed_points"] == 4


class TestRunSweepJobStoreOpens:
    """``run_sweep_job`` opens a job's store once: the memo warm start
    and the sweep record into the same handle, and the final triples
    come from that handle.  Closing does not compact, so a job's store
    holds no npz chunk."""

    def test_one_open_per_job_novel_and_warm(self, tmp_path, monkeypatch):
        from repro.core.memo import DiskMemo
        from repro.core.store import ColumnarSweepStore
        from repro.service import run_sweep_job

        opens = []
        loads = []
        original = ColumnarSweepStore.open
        original_load = ColumnarSweepStore.load_completed

        def counting_open(cls, *args, **kwargs):
            opens.append(args[0])
            return original(*args, **kwargs)

        def counting_load(cls, *args, **kwargs):
            loads.append(args[0])
            return original_load(*args, **kwargs)

        monkeypatch.setattr(
            ColumnarSweepStore, "open", classmethod(counting_open)
        )
        monkeypatch.setattr(
            ColumnarSweepStore, "load_completed", classmethod(counting_load)
        )
        spec = validate_spec(
            {"n_values": [2, 3, 4], "steps": 300, "repeats": 3, "seed": 3}
        )
        memo = DiskMemo(tmp_path / "memo")
        novel = run_sweep_job(spec, tmp_path / "novel.store", memo=memo)
        assert len(opens) == 1
        warm = run_sweep_job(spec, tmp_path / "warm.store", memo=memo)
        assert len(opens) == 2
        assert loads == []
        assert warm["warm_points"] == 9
        assert warm["triples"] == novel["triples"]
        assert len(novel["triples"]) == 9
        monkeypatch.undo()
        for name in ("novel.store", "warm.store"):
            store_dir = tmp_path / name
            assert list(store_dir.glob("chunk-*.npz")) == []
            completed = ColumnarSweepStore.load_completed(store_dir)
            assert [
                [n, r, list(completed[(n, r)])] for n, r in sorted(completed)
            ] == novel["triples"]


class TestEngineFreeJobs:
    """The engine is no part of a job: not of its spec, its store
    fingerprint or its point-memo key."""

    def test_memo_warm_starts_whatever_engine_computed_it(
        self, tmp_path, monkeypatch
    ):
        from repro.core import sweep as sweep_mod
        from repro.core.memo import DiskMemo
        from repro.service import run_sweep_job

        spec = validate_spec(
            {"n_values": [2, 3], "steps": 300, "repeats": 2, "seed": 4}
        )
        memo = DiskMemo(tmp_path / "memo")
        auto_sweep = sweep_mod.latency_sweep
        monkeypatch.setattr(
            sweep_mod,
            "latency_sweep",
            lambda *args, **kwargs: auto_sweep(*args, engine="serial", **kwargs),
        )
        serial = run_sweep_job(spec, tmp_path / "serial.store", memo=memo)
        assert serial["recomputed"] == 4
        monkeypatch.setattr(sweep_mod, "latency_sweep", auto_sweep)
        warm = run_sweep_job(spec, tmp_path / "auto.store", memo=memo)
        assert warm["warm_points"] == 4
        assert warm["recomputed"] == 0
        assert warm["triples"] == serial["triples"]
        cold = run_sweep_job(spec, tmp_path / "cold.store")
        assert cold["recomputed"] == 4
        assert cold["triples"] == serial["triples"]

    @pytest.mark.parametrize(
        "scheduler", ["epsilon:0.4", "hardware", "contention:2"]
    )
    def test_spec_fingerprint_matches_the_sweep_under_any_scheduler(
        self, tmp_path, scheduler
    ):
        # run_sweep_job opens the store with spec_fingerprint, then the
        # sweep re-opens it with its own; a mismatch would raise.
        from repro.core.store import ColumnarSweepStore
        from repro.service import run_sweep_job
        from repro.service.daemon import spec_fingerprint

        spec = validate_spec(
            {"n_values": [2], "steps": 300, "repeats": 2,
             "scheduler": scheduler}
        )
        store = tmp_path / "job.store"
        result = run_sweep_job(spec, store)
        assert result["recomputed"] == 2
        assert ColumnarSweepStore.load_fingerprint(store) == (
            spec_fingerprint(spec)
        )

    def _old_ledger(self, root, old_spec, *events):
        """A ledger as a daemon that still took ``engine`` left it."""
        from repro.service.daemon import job_digest
        from repro.service.ledger import JobLedger

        job_id = job_digest(old_spec)
        with JobLedger(root / "ledger.jsonl") as ledger:
            ledger.append("submitted", job_id, spec=old_spec)
            for event, fields in events:
                ledger.append(event, job_id, **fields)
        return job_id

    def test_old_ledger_job_carrying_engine_runs(self, tmp_path):
        from repro.algorithms.counter import cas_counter, make_counter_memory
        from repro.core.sweep import latency_sweep

        old_spec = dict(validate_spec(SPEC), engine="batched")
        job_id = self._old_ledger(tmp_path, old_spec)
        with SweepService(tmp_path, workers=1) as service:
            status = wait_terminal(service, job_id)
            assert status["state"] == "completed", status["error"]
            result = service.result(job_id)
        direct = latency_sweep(
            cas_counter,
            make_counter_memory,
            SPEC["n_values"],
            steps=SPEC["steps"],
            repeats=SPEC["repeats"],
            seed=SPEC["seed"],
            engine="batched",
        )
        assert [p["system_latency"]["mean"] for p in result["points"]] == [
            point.system_latency.mean for point in direct
        ]

    def test_old_ledger_job_with_schema_1_store_fails_by_name(self, tmp_path):
        import json

        old_spec = dict(validate_spec(SPEC), engine="batched")
        # The old daemon died mid-job: leased, with a partial store
        # written under the schema-1 fingerprint (engine, no scheduler).
        job_id = self._old_ledger(
            tmp_path,
            old_spec,
            ("leased", {"owner": "4194305:worker-0", "attempt": 1,
                        "expires": 0.0}),
        )
        store = tmp_path / "stores" / job_id
        store.mkdir(parents=True)
        (store / "header.json").write_text(json.dumps({
            "kind": "header",
            "version": 1,
            "fingerprint": {"engine": "batched", "seed": SPEC["seed"]},
            "metrics": ["system_latency", "completion_rate",
                        "fairness_ratio"],
        }))
        with SweepService(
            tmp_path,
            workers=1,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.0),
        ) as service:
            status = wait_terminal(service, job_id)
            assert status["state"] in ("failed", "poisoned")
            assert "schema version 1" in status["error"]
            # The daemon keeps serving new work.
            fresh = service.submit(dict(SPEC, seed=8))["job_id"]
            assert wait_terminal(service, fresh)["state"] == "completed"
