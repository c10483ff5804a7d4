"""Unit tests for paired (common-random-numbers) comparison."""

import pytest

from repro.core.paired import paired_compare, simulate_with_trace
from repro.core.single_app import SingleAppConfig
from repro.failures.trace import record_trace
from repro.obs import counters
from repro.obs.events import TrialFinished, TrialStarted
from repro.obs.sinks import RecordingSink
from repro.resilience.checkpoint_restart import CheckpointRestart
from repro.resilience.multilevel import MultilevelCheckpoint
from repro.resilience.parallel_recovery import ParallelRecovery
from repro.rng.streams import StreamFactory
from repro.units import years
from repro.workload.synthetic import make_application

CONFIG = SingleAppConfig(seed=55)


class TestSimulateWithTrace:
    def test_deterministic_replay(self, full_system):
        app = make_application("C32", nodes=full_system.fraction_to_nodes(0.25))
        trace = record_trace(
            StreamFactory(1).fresh("t"),
            CONFIG.node_mtbf_s,
            CONFIG.max_time_factor * app.baseline_time * 2 * app.nodes,
        )
        a = simulate_with_trace(app, CheckpointRestart(), full_system, trace, CONFIG)
        b = simulate_with_trace(app, CheckpointRestart(), full_system, trace, CONFIG)
        assert a.elapsed_s == b.elapsed_s
        assert a.failures == b.failures

    def test_failures_actually_delivered(self, full_system):
        app = make_application("C32", nodes=full_system.fraction_to_nodes(0.25))
        config = SingleAppConfig(seed=55, node_mtbf_s=years(1))
        trace = record_trace(
            StreamFactory(1).fresh("t"),
            config.node_mtbf_s,
            config.max_time_factor * app.baseline_time * 2 * app.nodes,
        )
        stats = simulate_with_trace(
            app, CheckpointRestart(), full_system, trace, config
        )
        assert stats.failures > 0
        assert stats.completed

    def test_replay_counted_and_bracketed_like_any_trial(self, full_system):
        app = make_application("C32", nodes=full_system.fraction_to_nodes(0.25))
        trace = record_trace(
            StreamFactory(1).fresh("t"),
            CONFIG.node_mtbf_s,
            CONFIG.max_time_factor * app.baseline_time * 2 * app.nodes,
        )
        recording = RecordingSink()
        with counters.scope() as counted:
            stats = simulate_with_trace(
                app, CheckpointRestart(), full_system, trace, CONFIG,
                sinks=[recording],
            )
        assert counted == {
            "single_app.simulations": 1,
            "single_app.completed": 1,
        }
        first, last = recording.events[0], recording.events[-1]
        assert first == TrialStarted(
            time=0.0,
            scope="single_app",
            app_id=app.app_id,
            technique="checkpoint_restart",
            trial=0,
        )
        assert isinstance(last, TrialFinished)
        assert (last.scope, last.trial, last.completed) == (
            "single_app", 0, stats.completed
        )
        assert len(recording.of_type(TrialStarted, TrialFinished)) == 2


class TestPairedCompare:
    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.platform.presets import exascale_system

        system = exascale_system()
        app = make_application("C32", nodes=system.fraction_to_nodes(0.25))
        return paired_compare(
            app,
            [CheckpointRestart(), MultilevelCheckpoint(), ParallelRecovery()],
            system,
            trials=6,
            config=CONFIG,
        )

    def test_all_techniques_summarized(self, comparison):
        assert set(comparison.efficiencies) == {
            "checkpoint_restart",
            "multilevel",
            "parallel_recovery",
        }
        for stats in comparison.efficiencies.values():
            assert stats.n == 6
            assert 0 < stats.mean <= 1

    def test_difference_resolves_with_few_trials(self, comparison):
        """Common random numbers make the ML-vs-CR gap significant
        with only six trials — the point of pairing."""
        diff = comparison.difference("multilevel", "checkpoint_restart")
        assert diff.diff.mean > 0
        assert diff.significant

    def test_best_matches_unpaired_story(self, comparison):
        assert comparison.best() in {"multilevel", "parallel_recovery"}

    def test_validation(self, full_system):
        app = make_application("A32", nodes=100)
        with pytest.raises(ValueError):
            paired_compare(app, [CheckpointRestart()], full_system, trials=0)
