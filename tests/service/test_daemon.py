"""Tests for the sweep service daemon core (repro.service.daemon)."""

import builtins
import io
import json
import os
import re
import threading
import time

import pytest

from repro.core.checkpoint import CheckpointError
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
        journals = []

        def runner(spec, journal, *, on_point, telemetry):
            journals.append(journal)
            on_point(1, 1)
            return {"recomputed": 0, "triples": []}

        with self.make(tmp_path, runner) as service:
            snap = service.submit(SPEC)
            assert snap["dedupe"] is False
            status = wait_terminal(service, snap["job_id"])
        assert status["state"] == "completed"
        assert status["heartbeats"] >= 1
        # Every job runs against the service's one point journal.
        assert journals == [service.journal]

    def test_resubmit_is_dedupe_hit(self, tmp_path):
        def runner(spec, journal, *, on_point, telemetry):
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

        def runner(spec, journal, *, on_point, telemetry):
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

        def runner(spec, journal, *, on_point, telemetry):
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

        def runner(spec, journal, *, on_point, telemetry):
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

        def runner(spec, journal, *, on_point, telemetry):
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

        def runner(spec, journal, *, on_point, telemetry):
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
        def runner(spec, journal, *, on_point, telemetry):
            return {}

        with self.make(tmp_path, runner) as service:
            with pytest.raises(UnknownJobError):
                service.status("no-such-job")

    def test_restart_requeues_queued_jobs(self, tmp_path):
        gate = threading.Event()
        ran = []

        def blocking_runner(spec, journal, *, on_point, telemetry):
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

        def counting_runner(spec, journal, *, on_point, telemetry):
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


def _journal(path):
    from repro.service.ledger import PointJournal

    return PointJournal(path)


class TestRunSweepJobBudget:
    """What a job costs the disk, counted through wrappers: no store
    open and no new file per job, and one fsync for a job that adds
    points, none for a job that adds none."""

    def counted(self, monkeypatch, job):
        """``job()``'s result and its fsyncs, store opens and new files."""
        from repro.core.store import ColumnarSweepStore

        counts = {"fsyncs": 0, "store_opens": 0, "created": []}
        real_fsync, real_os_open, real_open = os.fsync, os.open, builtins.open
        real_store_open = ColumnarSweepStore.open

        def fsync(fd):
            counts["fsyncs"] += 1
            return real_fsync(fd)

        def os_open(path, flags, *args, **kwargs):
            if flags & os.O_CREAT and not os.path.exists(path):
                counts["created"].append(str(path))
            return real_os_open(path, flags, *args, **kwargs)

        def py_open(file, mode="r", *args, **kwargs):
            if (
                isinstance(file, (str, bytes, os.PathLike))
                and set(mode) & set("wax")
                and not os.path.exists(file)
            ):
                counts["created"].append(str(file))
            return real_open(file, mode, *args, **kwargs)

        def store_open(cls, *args, **kwargs):
            counts["store_opens"] += 1
            return real_store_open(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", fsync)
            patch.setattr(os, "open", os_open)
            patch.setattr(builtins, "open", py_open)
            patch.setattr(io, "open", py_open)
            patch.setattr(ColumnarSweepStore, "open", classmethod(store_open))
            result = job()
        return result, counts

    def test_novel_warm_and_all_warm_jobs(self, tmp_path, monkeypatch):
        from repro.service import run_sweep_job

        journal = _journal(tmp_path / "points.jsonl")
        files = sorted(tmp_path.rglob("*"))
        spec = validate_spec(
            {"n_values": [2, 3, 4], "steps": 300, "repeats": 3, "seed": 3}
        )
        jobs = {
            "novel": spec,
            "warm": validate_spec(dict(spec, n_values=[2, 3, 4, 5])),
            "all-warm": validate_spec(dict(spec, n_values=[3, 4])),
        }
        results, counts = {}, {}
        for kind, job_spec in jobs.items():
            results[kind], counts[kind] = self.counted(
                monkeypatch, lambda: run_sweep_job(job_spec, journal)
            )
        assert [
            (results[kind]["warm_points"], results[kind]["recomputed"])
            for kind in jobs
        ] == [(0, 9), (9, 3), (6, 0)]
        assert [counts[kind]["fsyncs"] for kind in jobs] == [1, 1, 0]
        assert [counts[kind]["store_opens"] for kind in jobs] == [0, 0, 0]
        assert [counts[kind]["created"] for kind in jobs] == [[], [], []]
        # The file count under the root grows with neither jobs nor points.
        assert sorted(tmp_path.rglob("*")) == files
        novel = {(n, r): v for n, r, v in results["novel"]["triples"]}
        for kind in ("warm", "all-warm"):
            for n, r, triple in results[kind]["triples"]:
                if (n, r) in novel:
                    assert triple == novel[(n, r)]
        journal.close()

    def test_service_root_holds_the_two_journals_whatever_ran(self, tmp_path):
        with SweepService(tmp_path, workers=1) as service:
            for seed in range(3):
                job_id = service.submit(dict(SPEC, seed=seed))["job_id"]
                assert wait_terminal(service, job_id)["state"] == "completed"
            live = sorted(path.name for path in tmp_path.rglob("*"))
        assert live == [
            "ledger.jsonl",
            "ledger.jsonl.lock",
            "points.jsonl",
            "points.jsonl.lock",
        ]
        assert sorted(path.name for path in tmp_path.rglob("*")) == [
            "ledger.jsonl",
            "points.jsonl",
        ]


class TestEngineFreeJobs:
    """The engine is no part of a job: not of its spec, its sweep
    fingerprint or its point-journal key."""

    def test_memo_warm_starts_whatever_engine_computed_it(
        self, tmp_path, monkeypatch
    ):
        from repro.core import sweep as sweep_mod
        from repro.service import run_sweep_job

        spec = validate_spec(
            {"n_values": [2, 3], "steps": 300, "repeats": 2, "seed": 4}
        )
        journal = _journal(tmp_path / "points.jsonl")
        auto_sweep = sweep_mod.latency_sweep
        monkeypatch.setattr(
            sweep_mod,
            "latency_sweep",
            lambda *args, **kwargs: auto_sweep(*args, engine="serial", **kwargs),
        )
        serial = run_sweep_job(spec, journal)
        assert serial["recomputed"] == 4
        monkeypatch.setattr(sweep_mod, "latency_sweep", auto_sweep)
        warm = run_sweep_job(spec, journal)
        assert warm["warm_points"] == 4
        assert warm["recomputed"] == 0
        assert warm["triples"] == serial["triples"]
        journal.close()
        with _journal(tmp_path / "cold.jsonl") as cold_journal:
            cold = run_sweep_job(spec, cold_journal)
        assert cold["recomputed"] == 4
        assert cold["triples"] == serial["triples"]

    @pytest.mark.parametrize(
        "scheduler", ["epsilon:0.4", "hardware", "contention:2"]
    )
    def test_spec_fingerprint_matches_the_sweep_under_any_scheduler(
        self, tmp_path, scheduler
    ):
        # The job's journal view carries spec_fingerprint, and the sweep
        # checks it against its own; a mismatch would raise.
        from repro.service import run_sweep_job

        spec = validate_spec(
            {"n_values": [2], "steps": 300, "repeats": 2,
             "scheduler": scheduler}
        )
        with _journal(tmp_path / "points.jsonl") as journal:
            result = run_sweep_job(spec, journal)
        assert result["recomputed"] == 2

    def test_a_view_with_another_fingerprint_is_refused(
        self, tmp_path, monkeypatch
    ):
        from repro.core.checkpoint import CheckpointMismatchError
        from repro.service import daemon, run_sweep_job

        spec = validate_spec({"n_values": [2], "steps": 300, "repeats": 2})
        honest = daemon.spec_fingerprint
        monkeypatch.setattr(
            daemon, "spec_fingerprint", lambda s: dict(honest(s), seed=-1)
        )
        with _journal(tmp_path / "points.jsonl") as journal:
            with pytest.raises(CheckpointMismatchError, match="seed"):
                run_sweep_job(spec, journal)
            assert len(journal) == 0

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

    def test_legacy_store_and_memo_directories_are_not_read(self, tmp_path):
        from repro.algorithms.counter import cas_counter, make_counter_memory
        from repro.core.memo import DiskMemo
        from repro.core.store import ColumnarSweepStore
        from repro.core.sweep import latency_sweep
        from repro.service.daemon import point_memo_args

        old_spec = dict(validate_spec(SPEC), engine="batched")
        # An older daemon died mid-job, leaving the per-job store (under
        # the schema-1 fingerprint) and a point-memo entry whose triple
        # is wrong; the journal layout reads neither.
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
        entry = DiskMemo(tmp_path / "memo").entry_path(
            "service-point", point_memo_args(old_spec, 2, 0)
        )
        entry.parent.mkdir(parents=True)
        entry.write_text(json.dumps({
            "schema": 1,
            "key": ["service-point",
                    list(point_memo_args(old_spec, 2, 0))],
            "value": [9.0, 9.0, 9.0],
        }))
        legacy = {
            path: path.read_bytes()
            for path in tmp_path.rglob("*")
            if path.is_file() and path.parent != tmp_path
        }
        with SweepService(tmp_path, workers=1) as service:
            status = wait_terminal(service, job_id)
            assert status["state"] == "completed", status["error"]
            result = service.result(job_id)
        assert (result["warm_points"], result["recomputed"]) == (0, 4)
        direct = tmp_path / "direct.store"
        latency_sweep(
            cas_counter,
            make_counter_memory,
            SPEC["n_values"],
            steps=SPEC["steps"],
            repeats=SPEC["repeats"],
            seed=SPEC["seed"],
            store=direct,
        )
        completed = ColumnarSweepStore.load_completed(direct)
        assert result["triples"] == [
            [n, r, list(completed[(n, r)])] for n, r in sorted(completed)
        ]
        assert {
            path: path.read_bytes() for path in legacy
        } == legacy

    def test_foreign_journal_schema_fails_by_name(self, tmp_path):
        path = tmp_path / "points.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "journal": "points", "schema": 99})
            + "\n"
        )
        with pytest.raises(
            CheckpointError,
            match=rf"point journal {re.escape(str(path))} has schema 99",
        ):
            SweepService(tmp_path)
        # The refused start left neither journal locked.
        assert list(tmp_path.glob("*.lock")) == []
