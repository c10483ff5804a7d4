"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import gen  # noqa: E402
from record import FleetSamples, Recorder, Round, layer_metrics, layer_unit  # noqa: E402
from spans import Span, Tracer, aggregate, covered_length, self_times  # noqa: E402


def _all_inputs(seed):
    return {
        "scaling": [gen.scaling_doc(seed, i) for i in range(4)],
        "datacenter": [gen.datacenter_fields(seed, i) for i in range(4)],
        "service": [gen.service_doc(seed, i) for i in range(4)],
        "campaign": [gen.campaign_doc(seed, i) for i in range(4)],
        "observed": [gen.observed_fields(seed, i) for i in range(4)],
    }


def test_generator_is_deterministic_per_seed():
    assert _all_inputs(7) == _all_inputs(7)


def test_second_seed_gives_different_inputs():
    first, second = _all_inputs(7), _all_inputs(8)
    for stream in first:
        assert first[stream] != second[stream], stream


def test_inputs_within_one_seed_differ():
    docs = [gen.service_doc(7, i) for i in range(8)]
    assert len({str(d) for d in docs}) == len(docs)


def test_generated_scenarios_validate():
    from repro.scenarios.schema import parse_scenario

    for doc in [gen.scaling_doc(3, 0), gen.service_doc(3, 0), gen.campaign_doc(3, 0)]:
        parse_scenario(doc, source="<test>")


def test_self_times_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a (another thread)
        Span("a1", 2.0, 3.0, parent=1),
        Span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    stats = aggregate(spans)
    assert stats["root"].self_s == pytest.approx(4.0)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(13.0)


def test_covered_length_merges_overlaps():
    assert covered_length([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == pytest.approx(3.0)
    assert covered_length([]) == 0.0


def test_tracer_links_nested_spans_and_folds_recursion():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    assert tracer.begin("inner") is None  # recursion is one span
    tracer.end(inner, events=3)
    tracer.end(outer)
    assert [s.parent for s in tracer.spans] == [None, 0]
    assert tracer.spans[1].attrs == {"events": 3}


def test_tracer_wrap_and_unwrap():
    import types

    module = types.SimpleNamespace(f=lambda x: x + 1)
    tracer = Tracer()
    tracer.wrap(module, "f", "f", after=lambda result, args, kwargs: {"out": result})
    assert module.f(1) == 2
    tracer.unwrap_all()
    assert module.f(1) == 2
    assert len(tracer.spans) == 1 and tracer.spans[0].attrs == {"out": 2}


def test_corrupted_service_result_counts_as_failed():
    from fleet import ServiceLoop
    from inproc import _options, _scaling_request
    from repro.experiments.entry import run_request

    rec = Recorder()
    loop = ServiceLoop(rec, seed=5, fs=FleetSamples())
    good = run_request(_scaling_request(loop.doc(0)), options=_options(None, cache=False)).text
    at = max(i for i, ch in enumerate(good) if ch.isdigit())
    corrupted = good[:at] + str((int(good[at]) + 1) % 10) + good[at + 1:]
    loop.results = {0: [good, corrupted]}
    loop.verify()
    assert (rec.attempted, rec.failed) == (2, 1)


def test_corrupted_reference_counts_as_failed(tmp_path, monkeypatch):
    import inproc

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    rec = Recorder()
    ops = inproc.setup("scaling", rec, seed=5)
    ops.timed(ops.hit_op)
    ops.reference = "0" * 64
    ops.timed(ops.hit_op)
    assert (rec.attempted, rec.failed) == (2, 1)


def test_speed_window_scales_by_mean_probe_time(monkeypatch):
    import speed

    class FakeProbe:
        times = iter([0.002, 0.004, 0.006])

        def sample(self):
            return next(self.times)

    monkeypatch.setattr(speed, "_PROBE", FakeProbe())
    with speed.window() as window:
        pass
    assert window.scale == pytest.approx(speed.REF_S / 0.003)
    assert speed.scale_now(samples=1) == pytest.approx(speed.REF_S / 0.006)


def test_fleet_metrics_keep_the_cheaper_half_of_rounds():
    from record import Observed

    rounds = [Round(wall, 1.0, 10, 1, [wall], [wall]) for wall in (1.0, 2.0, 9.0)]
    kept = dict(setup_s=[1.0], observed=[Observed(1, 1.0, 1.0, 0)], rounds=rounds)
    assert Recorder(**kept).end_to_end()["wall_s"] == 2.0
    assert Recorder(best_half=True, **kept).end_to_end()["wall_s"] == 1.5


def test_layer_metrics_report_zero_for_idle_layers():
    rec = Recorder(rounds=[Round(1.0, 1.0, 1, 1)])
    metrics = layer_metrics(rec, {}, None)
    assert metrics["store.busy_s"] == 0.0
    assert metrics["sim.us_per_event"] == 0.0


def test_reported_metrics_match_benchmark_json():
    import json

    import run

    declared = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    layer = layer_metrics(Recorder(rounds=[Round(1.0, 1.0, 1, 1)]), {}, None)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, layer_unit(name)) for name in layer
    ]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
