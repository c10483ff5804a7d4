"""The --trace-out / --metrics-out CLI flags."""

import hashlib
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["fig1", "--trace-out", "t.jsonl", "--metrics-out", "m.json"]
        )
        assert args.trace_out == "t.jsonl"
        assert args.metrics_out == "m.json"

    def test_flags_default_off(self):
        args = build_parser().parse_args(["fig1"])
        assert args.trace_out is None
        assert args.metrics_out is None


class TestTraceOut:
    def test_fig1_writes_valid_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "fig1",
                    "--quick",
                    "--trials",
                    "2",
                    "--trace-out",
                    str(trace),
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "Fig. 1" in captured.out
        assert str(trace) in captured.err

        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events
        kinds = {e["event"] for e in events}
        # The acceptance triad: failures, checkpoints, completions.
        assert "FailureInjected" in kinds
        assert "CheckpointTaken" in kinds
        assert "ExecutionCompleted" in kinds
        for event in events:
            assert isinstance(event["time"], float) or isinstance(
                event["time"], int
            )

        payload = json.loads(metrics.read_text())
        assert payload["counts"]["FailureInjected"] == sum(
            e["event"] == "FailureInjected" for e in events
        )

    def test_datacenter_fig_writes_job_lifecycle(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "fig4",
                    "--quick",
                    "--patterns",
                    "1",
                    "--trace-out",
                    str(trace),
                ]
            )
            == 0
        )
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = {e["event"] for e in events}
        assert "JobArrived" in kinds
        assert "JobMapped" in kinds
        assert {"JobCompleted", "JobDropped"} & kinds


class TestFastPathByteIdentity:
    """Observed fig1 exports are the same bytes on both paths."""

    #: sha256 of ``fig1 --quick --trials 1 --no-cache`` exports, taken
    #: when observed runs still stepped (57041 trace lines).
    TRACE_SHA256 = "36ae6e2684ddb16d05d476b3bdea438e30545bcbef7ec0a0ee866ed3d919ab24"
    METRICS_SHA256 = "6fab4f6d821464d5995c3149b9e198a96d3e28de8c9edac625848a4729b69d7d"

    def test_exports_identical_with_and_without_fast_path(self, tmp_path, capsys):
        digests = []
        for extra in ([], ["--no-fast-path"]):
            trace = tmp_path / f"trace{len(extra)}.jsonl"
            metrics = tmp_path / f"metrics{len(extra)}.json"
            argv = ["fig1", "--quick", "--trials", "1", "--no-cache"]
            argv += ["--trace-out", str(trace), "--metrics-out", str(metrics)]
            assert main(argv + extra) == 0
            digests.append(
                tuple(
                    hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (trace, metrics)
                )
            )
        capsys.readouterr()
        assert digests == [(self.TRACE_SHA256, self.METRICS_SHA256)] * 2


#: A two-point sweep of one cell, small enough for a quick CLI run.
TINY_SWEEP = {
    "scenario": {"name": "tiny-sweep"},
    "failures": {"regime": "poisson"},
    "workload": {"study": "scaling", "app_type": "A32", "fractions": [0.01]},
    "techniques": {"names": ["checkpoint_restart"]},
    "sweep": {"axis": "mtbf_years", "values": [2.5, 10.0]},
    "run": {"trials": 2},
}


class TestScenarioObservation:
    """``scenario run`` writes the flags through the same pipeline."""

    @staticmethod
    def run(tmp_path, capsys, tag, *extra):
        spec = tmp_path / "tiny-sweep.json"
        spec.write_text(json.dumps(TINY_SWEEP))
        trace = tmp_path / f"{tag}.jsonl"
        metrics = tmp_path / f"{tag}.json"
        argv = ["scenario", "run", str(spec), "--no-cache", *extra]
        flags = ["--trace-out", str(trace), "--metrics-out", str(metrics)]
        assert main(argv + flags) == 0
        observed = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == observed
        return trace.read_text(), json.loads(metrics.read_text())

    def test_sweep_exports_axis_ordered_lines_and_merged_metrics(
        self, tmp_path, capsys
    ):
        from repro.obs.sinks import MetricsSink
        from repro.scenarios import parse_scenario
        from repro.scenarios.runtime import run_scenario

        trace, metrics = self.run(tmp_path, capsys, "serial")
        results = run_scenario(
            parse_scenario(TINY_SWEEP, source="<test>"), trials=2, observe=True
        )
        assert [value for value, _ in results] == [2.5, 10.0]
        lines = [line for _, r in results for line in r.trace_lines]
        assert all(r.trace_lines for _, r in results)
        assert trace == "".join(line + "\n" for line in lines)
        merged = MetricsSink()
        for _, result in results:
            merged.merge(result.metrics)
        assert metrics == merged.to_dict()
        assert metrics["counts"]["TrialStarted"] == 4

    def test_exports_identical_for_any_jobs(self, tmp_path, capsys):
        serial = self.run(tmp_path, capsys, "serial", "--jobs", "1")
        assert self.run(tmp_path, capsys, "parallel", "--jobs", "2") == serial


class TestFlagScope:
    """Only fig1-fig5 and 'scenario run' write the observation files;
    every other verb rejects the flags instead of dropping them."""

    VERBS = [
        ["table1"],
        ["table2"],
        ["regime-map"],
        ["sweep"],
        ["validate"],
        ["timeline"],
        ["all", "--quick"],
        ["scenario", "list"],
        ["scenario", "show", "fig1"],
        ["scenario", "validate", "fig1"],
        ["scenario", "submit", "fig1"],
        ["grid", "show", "grid-peak-flip"],
        ["energy", "report", "fig1"],
        ["serve", "--port", "0"],
        ["agent"],
        ["submit", "fig1"],
        ["status", "some-job"],
        ["result", "some-job"],
        ["watch", "some-job"],
        ["campaign", "status", "some-campaign"],
        ["cache", "stats"],
    ]

    @pytest.mark.parametrize("flag", ["--trace-out", "--metrics-out"])
    @pytest.mark.parametrize("verb", VERBS, ids=" ".join)
    def test_other_verbs_exit_2(self, verb, flag, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(verb + [flag, str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "apply only to fig1-fig5 and 'scenario run'" in captured.err
        assert not out.exists()
