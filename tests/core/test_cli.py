"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestLatency:
    def test_basic_run(self, capsys):
        code = main(["latency", "--q", "0", "--s", "1", "-n", "4",
                     "--steps", "20000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SCU(0,1)" in out
        assert "measured W" in out

    def test_hardware_scheduler(self, capsys):
        code = main(["latency", "-n", "4", "--steps", "20000",
                     "--scheduler", "hardware"])
        assert code == 0

    def test_telemetry_report_written(self, capsys, tmp_path):
        import json

        path = tmp_path / "telemetry.json"
        code = main(["latency", "-n", "4", "--steps", "20000",
                     "--telemetry", str(path)])
        assert code == 0
        report = json.loads(path.read_text())
        assert report["command"] == "latency"
        assert report["metrics"]["counters"]["sim.steps"] == 20000
        assert report["uniformity"]["per_n"]["4"]["steps"] == 20000


class TestClassify:
    def test_cas_counter(self, capsys):
        code = main(["classify", "cas-counter", "--steps", "15000"])
        assert code == 0
        assert "lock-free" in capsys.readouterr().out

    def test_tas_lock(self, capsys):
        code = main(["classify", "tas-lock", "--steps", "15000"])
        assert code == 0
        assert "blocking" in capsys.readouterr().out

    def test_unknown_algorithm(self, capsys):
        code = main(["classify", "nope"])
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err


class TestRamanujan:
    def test_ladder(self, capsys):
        code = main(["ramanujan", "--max-n", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Z(n-1)" in out
        assert "\n64" in out


class TestLifting:
    def test_verification(self, capsys):
        code = main(["lifting", "-n", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 3


class TestGaps:
    def test_distribution_printed(self, capsys):
        code = main(["gaps", "-n", "8", "--head", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "P(gap=k)" in out
        assert "p99" in out

    def test_gap_one_impossible_for_scan_validate(self, capsys):
        # After a success nobody holds a valid pending CAS, so the
        # minimum gap is 2.
        main(["gaps", "-n", "8", "--head", "1"])
        out = capsys.readouterr().out
        first_row = [line for line in out.splitlines() if line.strip().startswith("1")][0]
        assert "0.0000" in first_row


class TestFigure5:
    def test_series(self, capsys):
        code = main(["figure5", "--points", "3", "--steps", "20000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worst 1/n" in out

    def test_zero_points_rejected_with_thread_counts_named(self, capsys):
        # --points 0 used to crash with IndexError at measured[0].
        code = main(["figure5", "--points", "0", "--steps", "4000"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--points" in err
        assert "[2, 4, 8, 16, 32]" in err

    def test_too_many_points_rejected_with_thread_counts_named(self, capsys):
        # --points 9 used to be silently capped at the 5-element series.
        code = main(["figure5", "--points", "9", "--steps", "4000"])
        assert code == 2
        err = capsys.readouterr().err
        assert "between 1 and 5" in err
        assert "[2, 4, 8, 16, 32]" in err
        assert "9" in err

    def test_negative_points_rejected(self, capsys):
        assert main(["figure5", "--points", "-1", "--steps", "4000"]) == 2

    def test_telemetry_report_written(self, capsys, tmp_path):
        import json

        path = tmp_path / "telemetry.json"
        code = main(["figure5", "--points", "2", "--steps", "4000",
                     "--telemetry", str(path)])
        assert code == 0
        report = json.loads(path.read_text())
        assert report["schema"] == 2
        assert report["command"] == "figure5"
        counters = report["metrics"]["counters"]
        # cas-counter under the uniform scheduler runs on the ensemble
        # engine, one replicate per thread count.
        assert counters["ensemble.replicates"] == 2
        assert counters["ensemble.steps"] == 8000
        uniformity = report["uniformity"]
        assert set(uniformity["per_n"]) == {"2", "4"}
        # The uniform scheduler drove both runs: TV distance near zero.
        assert uniformity["max_tv_distance"] < 0.1

    def test_telemetry_does_not_change_output(self, capsys, tmp_path):
        args = ["figure5", "--points", "2", "--steps", "4000"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--telemetry", str(tmp_path / "t.json")]) == 0
        assert capsys.readouterr().out == plain

    def test_checkpoint_resume_skips_measured_points(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.core.latency as latency_module

        path = tmp_path / "fig5.store"
        args = ["figure5", "--points", "2", "--steps", "4000",
                "--checkpoint", str(path)]
        assert main(args) == 0
        first = capsys.readouterr().out

        calls = []
        for name in ("measure_latencies", "measure_latencies_ensemble"):
            real = getattr(latency_module, name)

            def counting(*a, _real=real, **kw):
                calls.append(1)
                return _real(*a, **kw)

            monkeypatch.setattr(latency_module, name, counting)
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first
        assert calls == []  # every thread count came from the store

    def test_checkpoint_is_another_spelling_of_store(self, capsys, tmp_path):
        from repro.core.store import ColumnarSweepStore

        base = ["figure5", "--points", "2", "--steps", "4000"]
        assert main(base + ["--checkpoint", str(tmp_path / "a")]) == 0
        via_checkpoint = capsys.readouterr().out
        assert main(base + ["--store", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out == via_checkpoint
        assert ColumnarSweepStore.load_completed(
            tmp_path / "a"
        ) == ColumnarSweepStore.load_completed(tmp_path / "b")

    @pytest.mark.parametrize("resume", [False, True])
    def test_old_jsonl_checkpoint_fails_loudly(self, tmp_path, resume):
        from repro.core.checkpoint import CheckpointError

        path = tmp_path / "fig5.jsonl"
        path.write_text(
            '{"fingerprint": {}, "kind": "header", "version": 1}\n'
            '{"kind": "point", "n": 1, "r": 0, "v": [1.0, 1.0, 1.0]}\n'
        )
        args = ["figure5", "--points", "1", "--steps", "2000",
                "--checkpoint", str(path)]
        with pytest.raises(CheckpointError) as info:
            main(args + (["--resume"] if resume else []))
        message = str(info.value)
        assert str(path) in message
        assert "not a store directory" in message
        assert "no longer read" in message

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        from repro.core.checkpoint import CheckpointMismatchError

        path = tmp_path / "fig5.store"
        assert main(["figure5", "--points", "2", "--steps", "4000",
                     "--checkpoint", str(path)]) == 0
        with pytest.raises(CheckpointMismatchError):
            main(["figure5", "--points", "2", "--steps", "5000",
                  "--checkpoint", str(path), "--resume"])

    def test_workload_flag_runs_zoo_member(self, capsys):
        code = main(["figure5", "--workload", "msqueue", "--points", "2",
                     "--steps", "3000"])
        assert code == 0
        out = capsys.readouterr().out
        # Non-SCU(0,1) members have no exact chain column.
        assert "nan" in out

    def test_workload_folds_into_checkpoint_fingerprint(self, tmp_path):
        from repro.core.checkpoint import CheckpointMismatchError

        path = tmp_path / "fig5.store"
        assert main(["figure5", "--workload", "treiber", "--points", "2",
                     "--steps", "3000", "--checkpoint", str(path)]) == 0
        with pytest.raises(CheckpointMismatchError, match="workload"):
            main(["figure5", "--workload", "msqueue", "--points", "2",
                  "--steps", "3000", "--checkpoint", str(path), "--resume"])

    def test_scheduler_folds_into_checkpoint_fingerprint(self, tmp_path):
        from repro.core.checkpoint import CheckpointMismatchError

        path = tmp_path / "fig5.store"
        assert main(["figure5", "--scheduler", "epsilon:0.2", "--points",
                     "2", "--steps", "3000", "--checkpoint", str(path)]) == 0
        with pytest.raises(CheckpointMismatchError, match="scheduler"):
            main(["figure5", "--scheduler", "epsilon:0.4", "--points", "2",
                  "--steps", "3000", "--checkpoint", str(path), "--resume"])

    def test_unknown_workload_rejected(self, capsys):
        code = main(["figure5", "--workload", "nope", "--points", "1",
                     "--steps", "1000"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["latency", "figure5", "zoo"])
    def test_engine_flag_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--engine", "batched"])
        assert info.value.code == 2
        assert "--engine" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "workload, scheduler, engine",
        [
            ("cas-counter", "uniform", "ensemble"),
            ("cas-counter", "hardware", "ensemble"),
            ("cas-counter", "contention:4", "batched"),
            ("treiber", "uniform", "batched"),
        ],
    )
    def test_per_n_path_follows_the_sweep_selector(
        self, tmp_path, workload, scheduler, engine
    ):
        # Ensemble runs count ensemble.replicates; batched runs count
        # the executor's sim.blocks.
        import json

        report = tmp_path / "report.json"
        assert main(["figure5", "--workload", workload, "--scheduler",
                     scheduler, "--points", "2", "--steps", "2000",
                     "--telemetry", str(report)]) == 0
        counters = json.loads(report.read_text())["metrics"]["counters"]
        ran = {
            name
            for name, counter in (
                ("ensemble", "ensemble.replicates"),
                ("batched", "sim.blocks"),
            )
            if counters.get(counter)
        }
        assert ran == {engine}


class TestLatencyWorkload:
    def test_zoo_member_measured(self, capsys):
        code = main(["latency", "--workload", "msqueue", "-n", "4",
                     "--steps", "8000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "msqueue" in out
        assert "measured W" in out

    def test_contention_scheduler_accepted(self, capsys):
        code = main(["latency", "--workload", "rtas-lock", "-n", "4",
                     "--steps", "8000", "--scheduler", "contention:4"])
        assert code == 0
        assert "rtas-lock" in capsys.readouterr().out

    def test_scu_member_keeps_exact_columns(self, capsys):
        code = main(["latency", "--workload", "cas-counter", "-n", "4",
                     "--steps", "8000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cas-counter" in out
        assert "nan" not in out

    def test_unknown_workload_rejected(self, capsys):
        code = main(["latency", "--workload", "nope", "--steps", "100"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_epsilon_scheduler_parses(self, capsys):
        code = main(["latency", "-n", "4", "--steps", "8000",
                     "--scheduler", "epsilon:0.3"])
        assert code == 0

    def test_bad_scheduler_named(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            main(["latency", "-n", "2", "--steps", "100",
                  "--scheduler", "frobnicate"])


class TestZoo:
    def test_table_and_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "zoo.json"
        code = main(["zoo", "--workload", "cas-counter",
                     "--workload", "rtas-lock", "-n", "4",
                     "--steps", "2000", "--epsilons", "0,0.5",
                     "--focuses", "4", "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cas-counter" in out
        assert "rtas-lock" in out
        assert "TV" in out
        table = json.loads(out_path.read_text())
        assert set(table["workloads"]) == {"cas-counter", "rtas-lock"}
        labels = {p["scheduler"] for p in table["workloads"]["rtas-lock"]}
        assert labels == {"uniform", "epsilon(0)", "epsilon(0.5)",
                          "contention(4)"}

    def test_unknown_workload_rejected(self, capsys):
        code = main(["zoo", "--workload", "nope", "--steps", "100"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err


class TestKeyboardInterrupt:
    def test_exits_130_and_flushes_checkpoints(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.cli as cli_module
        from repro.core.checkpoint import sweep_fingerprint
        from repro.core.store import ColumnarSweepStore

        store = ColumnarSweepStore.open(
            tmp_path / "sweep.store",
            sweep_fingerprint(
                seed=0, steps=100, n_values=[2],
                repeats=2, burn_in=None,
            ),
        )
        store.record(2, 0, (1.0, 1.0, 1.0))

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "cmd_ramanujan", interrupted)
        code = main(["ramanujan", "--max-n", "4"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "resume" in err
        # The in-flight record survived the interrupt.
        store.close()
        assert ColumnarSweepStore.load_completed(tmp_path / "sweep.store") == {
            (2, 0): (1.0, 1.0, 1.0)
        }

    def test_resume_hint_survives_checkpoint_already_closed(
        self, capsys, tmp_path, monkeypatch
    ):
        # The common Ctrl-C shape: the sweep's finally block has already
        # closed (and deregistered) the store before the interrupt
        # reaches main, so nothing is left to flush — but the store on
        # disk is resumable and the hint must still be printed.
        import repro.cli as cli_module

        path = tmp_path / "fig5.store"

        def interrupted(args):
            path.mkdir()
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "cmd_figure5", interrupted)
        code = main(["figure5", "--checkpoint", str(path)])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" in err

    def test_no_resume_hint_without_any_checkpoint(self, capsys, monkeypatch):
        import repro.cli as cli_module

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "cmd_ramanujan", interrupted)
        code = main(["ramanujan", "--max-n", "4"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "resume" not in err


class TestSigtermParity:
    """SIGTERM gets the same flush-and-exit treatment as Ctrl-C (exit 143)."""

    def test_exits_143_and_flushes_checkpoints(
        self, capsys, tmp_path, monkeypatch
    ):
        import os
        import signal

        import repro.cli as cli_module
        from repro.core.checkpoint import sweep_fingerprint
        from repro.core.store import ColumnarSweepStore

        store = ColumnarSweepStore.open(
            tmp_path / "sweep.store",
            sweep_fingerprint(
                seed=0, steps=100, n_values=[2],
                repeats=2, burn_in=None,
            ),
        )
        store.record(2, 0, (1.0, 1.0, 1.0))

        def terminated(args):
            # Deliver a real SIGTERM to ourselves; main's handler turns
            # it into the orderly shutdown path.
            os.kill(os.getpid(), signal.SIGTERM)
            signal.sigtimedwait([], 5)  # give the signal time to land
            raise AssertionError("SIGTERM handler never fired")

        monkeypatch.setattr(cli_module, "cmd_ramanujan", terminated)
        code = main(["ramanujan", "--max-n", "4"])
        assert code == 143
        err = capsys.readouterr().err
        assert "terminated" in err
        assert "resume" in err
        store.close()
        assert ColumnarSweepStore.load_completed(tmp_path / "sweep.store") == {
            (2, 0): (1.0, 1.0, 1.0)
        }

    def test_previous_sigterm_handler_restored(self, monkeypatch):
        import signal

        import repro.cli as cli_module

        sentinel = lambda signum, frame: None  # noqa: E731
        previous = signal.signal(signal.SIGTERM, sentinel)
        try:
            monkeypatch.setattr(
                cli_module, "cmd_ramanujan", lambda args: 0
            )
            assert main(["ramanujan", "--max-n", "4"]) == 0
            assert signal.getsignal(signal.SIGTERM) is sentinel
        finally:
            signal.signal(signal.SIGTERM, previous)
