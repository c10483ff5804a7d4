"""Unit tests for the ASCII timeline renderer."""

import pytest

from repro.core.execution import ResilientExecution
from repro.core.timeline import activity_totals, render_timeline
from repro.failures.generator import Failure
from repro.obs.sinks import TimelineSink
from repro.resilience.base import CheckpointLevel, ExecutionPlan
from repro.workload.synthetic import make_application


def _recorded_run(sim, failures=()):
    app = make_application("A32", nodes=4, time_steps=10)
    level = CheckpointLevel(
        index=1, recovers_severity=3, cost_s=10.0, restart_s=20.0, period_s=100.0
    )
    plan = ExecutionPlan(
        app=app, technique="t", work_rate=1.0, levels=(level,), nodes_required=4
    )
    timeline = TimelineSink()
    timeline.attach(sim.bus)
    engine = ResilientExecution(sim, plan)
    proc = sim.process(engine.run())
    for time in failures:
        sim.schedule_at(
            time,
            lambda _e: proc.interrupt(Failure(time=sim.now, node_id=0, severity=1))
            if proc.alive
            else None,
        )
    sim.run(until=1e9)
    return engine, timeline.spans


class TestActivityTotals:
    def test_totals_match_stats(self, sim):
        engine, spans = _recorded_run(sim, failures=[250.0])
        totals = activity_totals(spans)
        assert totals["work"] == pytest.approx(engine.stats.work_time_s)
        assert totals["recovery"] == pytest.approx(engine.stats.rework_time_s)
        assert totals["checkpoint"] == pytest.approx(engine.stats.checkpoint_time_s)
        assert totals["restart"] == pytest.approx(engine.stats.restart_time_s)

    def test_unknown_activity_rejected(self):
        with pytest.raises(ValueError):
            activity_totals([(0.0, 1.0, "coffee")])

    def test_inverted_span_rejected(self):
        with pytest.raises(ValueError):
            activity_totals([(2.0, 1.0, "work")])


class TestRenderTimeline:
    def test_rows_for_all_activities(self, sim):
        _, spans = _recorded_run(sim, failures=[250.0])
        text = render_timeline(spans)
        for activity in ("work", "recovery", "checkpoint", "restart"):
            assert activity in text

    def test_percentages_sum_to_about_100(self, sim):
        _, spans = _recorded_run(sim, failures=[250.0])
        text = render_timeline(spans)
        shares = [
            float(line.rsplit("|", 1)[1].rstrip("%"))
            for line in text.splitlines()[1:]
        ]
        assert sum(shares) == pytest.approx(100.0, abs=0.5)

    def test_empty_timeline(self):
        assert "empty" in render_timeline([])

    def test_width_validation(self, sim):
        _, spans = _recorded_run(sim)
        with pytest.raises(ValueError):
            render_timeline(spans, width=5)
