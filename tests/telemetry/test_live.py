"""Thread-local live activation: streaming without losing the fast path.

The load-bearing property of the telemetry design: only *watched*
jobs' simulations attach a live sink (and pay for serialising their
events); everything else keeps a bus without subscribers.  Both keep
the failure-horizon fast path, and results stay bit-identical either
way.
"""

import threading

from repro.core.single_app import SingleAppConfig, simulate_application
from repro.obs import live
from repro.obs.bus import EventBus
from repro.obs.sinks import LiveEventSink
from repro.resilience.registry import get_technique
from repro.units import HOUR
from repro.workload.synthetic import make_application


def run_trial(app_nodes=60, **config_overrides):
    app = make_application("A32", nodes=app_nodes, time_steps=30)
    technique = get_technique("checkpoint_restart")
    from repro.platform.presets import exascale_system

    system = exascale_system(total_nodes=1_200)
    config = SingleAppConfig(node_mtbf_s=50 * HOUR, seed=7,
                             **config_overrides)
    return simulate_application(app, technique, system, config, trial=0)


def stats_tuple(stats):
    return (
        stats.end_time,
        stats.completed,
        stats.failures,
        stats.restarts,
        stats.work_time_s,
        stats.rework_time_s,
        stats.checkpoint_time_s,
    )


class TestActivation:
    def test_no_activation_means_no_sinks(self):
        assert live.current_sinks() == ()
        bus = EventBus()
        live.attach_current(bus)
        assert not bus.has_subscribers

    def test_activation_is_scoped_to_the_context(self):
        sink = LiveEventSink(lambda kind, record: None)
        with live.activated(sink):
            assert live.current_sinks() == (sink,)
        assert live.current_sinks() == ()

    def test_none_entries_are_filtered(self):
        # The worker pool passes hub.job_sink(...) straight in; None
        # (unwatched) must leave the thread unobserved.
        with live.activated(None):
            assert live.current_sinks() == ()
            bus = EventBus()
            live.attach_current(bus)
            assert not bus.has_subscribers

    def test_nested_activation_stacks_and_restores(self):
        a = LiveEventSink(lambda k, r: None)
        b = LiveEventSink(lambda k, r: None)
        with live.activated(a):
            with live.activated(b):
                assert live.current_sinks() == (a, b)
            assert live.current_sinks() == (a,)

    def test_activation_is_thread_local(self):
        sink = LiveEventSink(lambda k, r: None)
        seen = []
        with live.activated(sink):
            thread = threading.Thread(
                target=lambda: seen.append(live.current_sinks())
            )
            thread.start()
            thread.join()
        assert seen == [()]


class TestSimulationIntegration:
    def test_activated_sink_receives_live_events(self):
        events = []
        sink = LiveEventSink(
            lambda kind, record: events.append((kind, record)),
            skip=("ActivitySpan",),
        )
        with live.activated(sink):
            stats = run_trial()
        kinds = {kind for kind, _ in events}
        assert "sim.TrialStarted" in kinds
        assert "sim.ExecutionStarted" in kinds
        assert "sim.ActivitySpan" not in kinds  # skip filter holds
        assert stats.completed
        # Records are JSON-safe plain data.
        for _, record in events:
            assert all(
                value is None or isinstance(value, (bool, int, float, str))
                for value in record.values()
            )

    def test_streaming_does_not_change_results(self):
        baseline = run_trial()
        with live.activated(LiveEventSink(lambda k, r: None)):
            observed = run_trial()
        assert stats_tuple(baseline) == stats_tuple(observed)

    def test_unwatched_run_after_watched_keeps_fast_path(self):
        with live.activated(LiveEventSink(lambda k, r: None)):
            run_trial()
        assert live.current_sinks() == ()
        bus = EventBus()
        live.attach_current(bus)
        assert not bus.has_subscribers

    def test_watched_trace_replay_streams_live_events(self):
        # A watched trace-replay job streams its replays' events like a
        # sampled scenario's trials, and renders the same bytes.
        from repro.experiments.entry import run_request
        from repro.scenarios.compiler import compile_scenario
        from repro.scenarios.library import load_named

        (unit,) = compile_scenario(load_named("trace-replay"), quick=True).units
        kinds = []
        with live.activated(LiveEventSink(lambda kind, _: kinds.append(kind))):
            watched = run_request(unit.request).text
        assert "sim.ExecutionStarted" in kinds
        assert "sim.FailureInjected" in kinds
        assert run_request(unit.request).text == watched
