"""Unit tests for the CLI."""

import pytest

from repro.cli import _ALL_ORDER, _EXPERIMENTS, build_parser, main


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig1", "--quick"])
        assert args.experiment == "fig1"
        assert args.quick

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_format_choices(self):
        args = build_parser().parse_args(["fig2", "--format", "csv"])
        assert args.format == "csv"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--format", "xml"])

    def test_all_order_subset_of_experiments(self):
        assert set(_ALL_ORDER) <= set(_EXPERIMENTS)

    def test_jobs_and_cache_flags(self):
        args = build_parser().parse_args(
            ["fig1", "--jobs", "4", "--no-cache", "--progress"]
        )
        assert args.jobs == 4
        assert args.no_cache
        assert args.progress

    def test_jobs_default_serial_cache_on(self):
        args = build_parser().parse_args(["fig1"])
        assert args.jobs == 1
        assert not args.no_cache

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_service_verbs_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2", "--store", ":memory:"]
        )
        assert args.experiment == "serve"
        assert args.port == 0
        args = build_parser().parse_args(
            ["submit", "fig1", "--quick", "--wait", "--url", "http://x:1"]
        )
        assert args.experiment == "submit"
        assert args.target == "fig1"
        assert args.wait
        args = build_parser().parse_args(["cache", "prune", "--max-mb", "64"])
        assert args.experiment == "cache"
        assert args.target == "prune"
        assert args.max_mb == 64.0
        args = build_parser().parse_args(
            ["watch", "abc12345", "--url", "http://x:1"]
        )
        assert args.experiment == "watch"
        assert args.target == "abc12345"


class TestMain:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "TABLE I" in captured.out
        # Timing chatter goes to stderr so stdout stays machine-readable.
        assert "completed in" in captured.err
        assert "completed in" not in captured.out

    def test_no_fast_path_ends_with_main(self, capsys):
        from repro.core import execution

        assert execution.FAST_PATH_ENABLED
        assert main(["table1", "--no-fast-path"]) == 0
        assert execution.FAST_PATH_ENABLED

    def test_table2_with_fraction(self, capsys):
        assert main(["table2", "--fraction", "0.5"]) == 0
        assert "TABLE II" in capsys.readouterr().out

    def test_fig_quick_runs(self, capsys):
        assert main(["fig2", "--quick", "--trials", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out

    def test_fig_parallel_jobs_with_metrics(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fig2", "--quick", "--trials", "2", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert "Fig. 2" in captured.out
        # Executor metrics are reported on stderr.
        assert "cells" in captured.err and "hit rate" in captured.err
        # A second run is served entirely from the cache.
        assert main(["fig2", "--quick", "--trials", "2", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert "100% hit rate" in captured.err

    def test_progress_flag_reports_cells(self, capsys):
        assert (
            main(
                [
                    "fig2",
                    "--quick",
                    "--trials",
                    "2",
                    "--no-cache",
                    "--progress",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "[1/" in err and "trials/s" in err

    def test_fig_csv_format(self, capsys):
        assert main(["fig1", "--quick", "--trials", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "app_type,fraction,technique" in out

    def test_fig_barchart_format(self, capsys):
        assert main(["fig1", "--quick", "--trials", "2", "--format", "barchart"]) == 0
        assert "|#" in capsys.readouterr().out

    def test_regime_map(self, capsys):
        assert main(["regime-map"]) == 0
        out = capsys.readouterr().out
        assert "A32" in out and "crossover" in out

    def test_validate(self, capsys):
        assert main(
            ["validate", "--app-type", "A32", "--fraction", "0.06", "--trials", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "rel.err" in out

    def test_timeline(self, capsys):
        assert main(
            [
                "timeline",
                "--app-type",
                "A32",
                "--fraction",
                "0.06",
                "--mtbf-years",
                "10",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "=== checkpoint_restart ===" in out
        assert "work" in out

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--sweep", "checkpoint_interval"]) == 0
        assert "interval" in capsys.readouterr().out.lower()


class TestFriendlyErrors:
    """Bad invocations exit non-zero with a one-line hint, never a
    traceback."""

    def test_submit_without_target_exits_2(self, capsys):
        assert main(["submit"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "experiment" in err

    def test_status_without_target_exits_2(self, capsys):
        assert main(["status"]) == 2
        assert "job id" in capsys.readouterr().err

    def test_watch_without_target_exits_2(self, capsys):
        assert main(["watch"]) == 2
        assert "a job or campaign id" in capsys.readouterr().err

    def test_watch_unreachable_service_exits_2(self, capsys):
        assert main(
            ["watch", "deadbeef", "--url", "http://127.0.0.1:9"]
        ) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_unreachable_service_exits_2(self, capsys):
        assert main(
            ["status", "deadbeef", "--url", "http://127.0.0.1:9"]
        ) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_cache_prune_needs_max_mb(self, capsys):
        assert main(["cache", "prune"]) == 2
        assert "--max-mb" in capsys.readouterr().err

    def test_cache_unknown_action_exits_2(self, capsys):
        assert main(["cache", "wipe"]) == 2
        assert "unknown cache action" in capsys.readouterr().err

    def test_invalid_trials_exits_2(self, capsys):
        assert main(["fig1", "--trials", "0"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "Traceback" not in err


class TestCacheCommand:
    def test_cache_stats(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "MiB" in out

    def test_cache_prune_to_zero(self, capsys):
        # Populate the (per-test) cache, then prune it away entirely.
        assert main(["fig2", "--quick", "--trials", "2"]) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--max-mb", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out
        assert main(["cache", "stats"]) == 0
        assert "0 entries" in capsys.readouterr().out


class TestScenarioVerbs:
    def test_scenario_parses_with_action_and_name(self):
        args = build_parser().parse_args(
            ["scenario", "run", "fig1", "--quick", "--export", "out"]
        )
        assert args.experiment == "scenario"
        assert args.target == "run"
        assert args.extra == "fig1"
        assert args.export == "out"

    def test_list_names_bundled_scenarios(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "weibull-aging", "burst-storm", "trace-replay"):
            assert name in out

    def test_bare_scenario_defaults_to_list(self, capsys):
        assert main(["scenario"]) == 0
        assert "fig1" in capsys.readouterr().out

    def test_show_prints_sha_and_lowering(self, capsys):
        assert main(["scenario", "show", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "sha256" in out
        assert "experiment 'fig1'" in out

    def test_validate_bundled_ok(self, capsys):
        assert main(["scenario", "validate", "heterogeneous-mtbf"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_spec_exits_2_one_line(self, capsys, tmp_path):
        """Acceptance criterion: a schema violation is exit code 2 with
        one field-path-qualified line on stderr, never a traceback."""
        bad = tmp_path / "bad.toml"
        bad.write_text(
            "[scenario]\nname = 't'\n"
            "[failures]\nregime = 'weibull'\n"
            "[workload]\nstudy = 'scaling'\napp_type = 'A32'\n"
        )
        assert main(["scenario", "validate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: ")
        assert "failures.shape" in lines[0]
        assert "Traceback" not in captured.err

    def test_validate_unknown_key_names_field_path(self, capsys, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text(
            "[scenario]\nname = 't'\n"
            "[platform]\nnodez = 3\n"
            "[workload]\nstudy = 'scaling'\napp_type = 'A32'\n"
        )
        assert main(["scenario", "validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "platform.nodez" in err
        assert "Traceback" not in err

    def test_validate_trace_adaptive_exits_2_one_line(self, capsys, tmp_path):
        """Satellite: adaptive config on a trace-replay scenario is a
        one-line field-path-qualified rejection, exit code 2."""
        bad = tmp_path / "trace_adaptive.toml"
        bad.write_text(
            "[scenario]\nname = 't'\n"
            "[failures]\nregime = 'trace'\ntrace_file = 'x.jsonl'\n"
            "[workload]\nstudy = 'scaling'\napp_type = 'A32'\n"
            "fractions = [0.05]\n"
            "[adaptive]\nmax_trials = 40\n"
        )
        assert main(["scenario", "validate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert "adaptive.max_trials" in lines[0]
        assert "trace replay" in lines[0]
        assert "Traceback" not in captured.err

    def test_validate_unknown_name_exits_2(self, capsys):
        assert main(["scenario", "validate", "no-such-study"]) == 2
        assert "no-such-study" in capsys.readouterr().err

    def test_unknown_action_exits_2(self, capsys):
        assert main(["scenario", "frobnicate", "fig1"]) == 2
        assert "unknown scenario action" in capsys.readouterr().err

    def test_action_needing_name_exits_2(self, capsys):
        assert main(["scenario", "run"]) == 2
        assert "needs a bundled scenario name" in capsys.readouterr().err

    def test_run_with_export_writes_artifact_and_sidecar(
        self, capsys, tmp_path
    ):
        spec = tmp_path / "mini.toml"
        spec.write_text(
            "[scenario]\nname = 'mini'\n"
            "[failures]\nregime = 'poisson'\nmtbf_years = 5.0\n"
            "[workload]\nstudy = 'scaling'\napp_type = 'A32'\n"
            "fractions = [0.01]\n"
            "[techniques]\nnames = ['checkpoint_restart']\n"
            "[run]\ntrials = 2\nformat = 'csv'\n"
        )
        out_dir = tmp_path / "out"
        assert (
            main(["scenario", "run", str(spec), "--export", str(out_dir)])
            == 0
        )
        artifact = out_dir / "mini.csv"
        sidecar = out_dir / "mini.provenance.json"
        assert artifact.exists() and sidecar.exists()
        import json as _json

        stamp = _json.loads(sidecar.read_text())
        assert stamp["scenario"] == "mini"
        assert len(stamp["spec_sha256"]) == 64
        assert stamp["spec_sha256"] in artifact.read_text()

    def test_run_weibull_scenario_quick(self, capsys, tmp_path):
        spec = tmp_path / "w.toml"
        spec.write_text(
            "[scenario]\nname = 'w'\n"
            "[failures]\nregime = 'weibull'\nshape = 1.5\n"
            "[workload]\nstudy = 'scaling'\napp_type = 'A32'\n"
            "fractions = [0.01]\n"
            "[techniques]\nnames = ['checkpoint_restart']\n"
            "[run]\ntrials = 2\n"
        )
        assert main(["scenario", "run", str(spec)]) == 0
        captured = capsys.readouterr()
        assert "analytic model bypassed" in captured.out
        assert "weibull" in captured.out
