"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.policies == ["baseline", "waterwise"]
        assert args.trace == "borg"
        assert args.tolerance == 0.5

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestCommands:
    def test_regions_command(self, capsys):
        assert main(["regions"]) == 0
        out = capsys.readouterr().out
        for name in ("Zurich", "Madrid", "Oregon", "Milan", "Mumbai"):
            assert name in out

    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "canneal" in out and "graph_analytics" in out

    def test_simulate_small_run(self, capsys):
        code = main(
            [
                "simulate",
                "--policies", "baseline", "round-robin", "waterwise",
                "--jobs-per-hour", "15",
                "--hours", "3",
                "--tolerance", "0.5",
                "--seed", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Savings vs. baseline" in out
        assert "waterwise" in out
        assert "round-robin" in out

    def test_simulate_adds_baseline_when_missing(self, capsys):
        code = main(
            ["simulate", "--policies", "waterwise", "--jobs-per-hour", "10", "--hours", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out

    def test_simulate_wri_data_source(self, capsys):
        code = main(
            [
                "simulate", "--policies", "waterwise", "--jobs-per-hour", "10",
                "--hours", "2", "--data-source", "wri",
            ]
        )
        assert code == 0

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError):
            main(["simulate", "--policies", "slurm", "--jobs-per-hour", "5", "--hours", "1"])

    def test_simulate_batch_engine_matches_scalar(self, capsys):
        common = [
            "simulate", "--policies", "baseline", "round-robin",
            "--jobs-per-hour", "15", "--hours", "3", "--seed", "4",
        ]
        assert main(common + ["--engine", "scalar"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(common + ["--engine", "batch"]) == 0
        batch_out = capsys.readouterr().out
        # Identical tables: totals and savings agree digit for digit.
        assert batch_out == scalar_out

    @pytest.mark.parametrize("engine", ["batch", "fused"])
    def test_simulate_kernels_print_identical_tables(self, capsys, engine):
        # 90% target utilization under bursts: queues form, so the vector
        # kernel's clean, conveyor and replay paths all run.
        common = [
            "simulate", "--policies", "baseline", "round-robin", "--scenario",
            "bursty", "--jobs-per-hour", "300", "--hours", "3", "--seed", "4",
            "--utilization", "0.9", "--engine", engine,
        ]
        assert main(common + ["--kernel", "scalar"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(common + ["--kernel", "vector"]) == 0
        vector_out = capsys.readouterr().out
        assert vector_out == scalar_out

    @pytest.mark.parametrize("kernel", ["compiled", "auto"])
    def test_removed_kernel_names_are_usage_errors(self, capsys, kernel):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--engine", "batch", "--kernel", kernel])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestStreamingCli:
    def test_simulate_stream_matches_batch_tables(self, capsys):
        common = [
            "simulate", "--policies", "baseline", "waterwise", "--scenario",
            "bursty", "--jobs-per-hour", "30", "--hours", "3", "--seed", "4",
        ]
        assert main(common + ["--engine", "batch"]) == 0
        batch_out = capsys.readouterr().out
        assert main(common + ["--engine", "stream", "--chunk-size", "64"]) == 0
        stream_out = capsys.readouterr().out
        # Identical totals/savings tables; only the trace header differs.
        assert stream_out.splitlines()[1:] == batch_out.splitlines()[1:]
        assert "streaming, 64 jobs/chunk" in stream_out

    def test_simulate_fused_matches_stream_tables(self, capsys, tmp_path):
        profile_path = tmp_path / "profile.txt"
        common = [
            "simulate", "--policies", "baseline", "waterwise", "--scenario",
            "bursty", "--jobs-per-hour", "30", "--hours", "3", "--seed", "4",
        ]
        assert main(common + ["--engine", "stream"]) == 0
        stream_out = capsys.readouterr().out
        assert main(
            common + ["--engine", "fused", "--chunk-size", "64",
                      "--profile", str(profile_path)]
        ) == 0
        fused_out = capsys.readouterr().out
        # One fused pass produces the same totals/savings tables as the
        # per-policy streaming engine; only the trace header (first line)
        # differs and the profile note trails the tables.
        stream_tables = stream_out.splitlines()[1:]
        fused_tables = [
            line for line in fused_out.splitlines()[1:]
            if not line.startswith("profile")
        ]
        while fused_tables and not fused_tables[-1]:
            fused_tables.pop()
        while stream_tables and not stream_tables[-1]:
            stream_tables.pop()
        assert fused_tables == stream_tables
        assert "fused multi-policy streaming, 64 jobs/chunk" in fused_out
        assert "cumulative" in profile_path.read_text()

    def test_checkpoint_then_resume_to_completion(self, capsys, tmp_path):
        path = tmp_path / "run.ckpt"
        assert main([
            "checkpoint", "--scenario", "diurnal", "--policy", "waterwise",
            "--jobs-per-hour", "30", "--hours", "3", "--seed", "4",
            "--chunk-size", "32", "--chunks", "2", "--out", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "checkpoint:" in out and path.exists()
        assert main(["resume", str(path)]) == 0
        resumed = capsys.readouterr().out
        assert "resumed streaming run" in resumed
        assert "Totals" in resumed and "Service-ratio quantiles" in resumed

    def test_chained_resume_equals_uninterrupted_stream(self, capsys, tmp_path):
        workload = [
            "--scenario", "diurnal", "--jobs-per-hour", "30", "--hours", "3",
            "--seed", "4",
        ]
        assert main([
            "simulate", *workload, "--policies", "waterwise", "--engine", "stream",
            "--chunk-size", "32",
        ]) == 0
        direct = capsys.readouterr().out
        path = tmp_path / "run.ckpt"
        assert main([
            "checkpoint", *workload, "--policy", "waterwise",
            "--chunk-size", "32", "--chunks", "1", "--out", str(path),
        ]) == 0
        capsys.readouterr()
        step = tmp_path / "run2.ckpt"
        assert main(["resume", str(path), "--chunks", "1", "--out", str(step)]) == 0
        capsys.readouterr()
        assert main(["resume", str(step)]) == 0
        resumed = capsys.readouterr().out
        # The resumed totals row reproduces the uninterrupted run's.
        totals_row = next(l for l in resumed.splitlines() if l.startswith("waterwise"))
        assert totals_row in direct

    def test_conflicting_engine_flags_rejected(self):
        base = ["simulate", "--policies", "baseline", "--jobs-per-hour", "5", "--hours", "1"]
        with pytest.raises(SystemExit, match="--chunk-size requires"):
            main(base + ["--engine", "batch", "--chunk-size", "64"])

    def test_resume_out_without_chunks_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.ckpt"
        assert main([
            "checkpoint", "--scenario", "diurnal", "--policy", "baseline",
            "--jobs-per-hour", "20", "--hours", "2", "--seed", "1",
            "--chunk-size", "16", "--chunks", "1", "--out", str(path),
        ]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--out requires --chunks"):
            main(["resume", str(path), "--out", str(tmp_path / "x.ckpt")])


class TestServiceCli:
    WORKLOAD = [
        "--scenario", "bursty", "--jobs-per-hour", "30", "--hours", "3",
        "--seed", "4",
    ]

    def test_replay_defaults(self):
        args = build_parser().parse_args(["replay"])
        assert args.pace == 0.0
        assert args.chunk_size == 2048
        assert args.report is None

    def test_replay_writes_report(self, capsys, tmp_path):
        import json

        report = tmp_path / "replay.json"
        assert main([
            "replay", *self.WORKLOAD, "--policy", "waterwise",
            "--pace", "0", "--chunk-size", "64", "--report", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "replayed live, fast-forward" in out
        assert "Admission service counters" in out
        payload = json.loads(report.read_text())
        assert payload["jobs"] > 0
        assert payload["stats"]["decided"] == payload["jobs"]
        assert payload["stats"]["outstanding"] == 0

    def test_replay_totals_match_stream_simulate(self, capsys):
        # The replayed live path must print the same totals row the
        # streaming engine prints for the same workload and policy.
        assert main([
            "simulate", *self.WORKLOAD, "--policies", "waterwise",
            "--engine", "stream", "--chunk-size", "64",
        ]) == 0
        simulate_out = capsys.readouterr().out
        assert main([
            "replay", *self.WORKLOAD, "--policy", "waterwise",
            "--chunk-size", "64",
        ]) == 0
        replay_out = capsys.readouterr().out
        totals_row = next(
            line for line in replay_out.splitlines()
            if line.startswith("waterwise")
        )
        assert totals_row in simulate_out

    def test_serve_selftest_places_jobs_over_tcp(self, capsys):
        assert main([
            "serve", "--scenario", "bursty", "--jobs-per-hour", "20",
            "--hours", "1", "--seed", "2", "--policy", "baseline",
            "--rate", "100000", "--selftest",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving   : 127.0.0.1:" in out
        assert "12 jobs placed over TCP" in out


class TestSweepCli:
    WORKLOAD = [
        "sweep", "--policies", "baseline", "least-load", "--trace", "bursty",
        "--jobs-per-hour", "30", "--hours", "3", "--seeds", "3",
        "--chunk-size", "64",
    ]

    def test_transports_report_equal_digests(self, capsys, tmp_path):
        import json

        assert build_parser().parse_args(["sweep"]).transport == "process"
        runs = {
            "inprocess": ["--transport", "inprocess"],
            "process": ["--transport", "process", "--workers", "2"],
            "default": [],
        }
        digests = {}
        for name, flags in runs.items():
            report = tmp_path / f"{name}.json"
            assert main(self.WORKLOAD + flags + ["--report", str(report)]) == 0
            out = capsys.readouterr().out
            transport = "process" if name == "default" else name
            assert f"2 cells (fabric/{transport})" in out
            outcomes = json.loads(report.read_text())["outcomes"]
            assert [o["scheduler"] for o in outcomes] == ["baseline", "least-load"]
            digests[name] = [o["digest"] for o in outcomes]
        assert all(d is not None for d in digests["inprocess"])
        assert digests["inprocess"] == digests["process"] == digests["default"]

    def test_removed_sweep_paths_are_usage_errors(self, capsys):
        for argv in (
            ["shard-worker", "--connect", "127.0.0.1:1", "--checkpoint-dir", "."],
            ["sweep", "--fused"],
            ["sweep", "--transport", "tcp"],
            ["sweep", "--chunks-per-slab", "2"],
            ["simulate", "--stream"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            assert capsys.readouterr().err
