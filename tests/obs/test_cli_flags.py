"""The --trace-out / --metrics-out CLI flags."""

import hashlib
import json

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
