"""Unit tests for failure-log analysis (Sec. III-E estimation)."""

import math

import pytest

from repro.failures.generator import AppFailureGenerator, Failure
from repro.failures.loganalysis import (
    analyze_failure_log,
    interarrival_statistics,
)
from repro.failures.severity import SeverityModel
from repro.units import years


def _log(times_severities):
    return [
        Failure(time=t, node_id=0, severity=s) for t, s in times_severities
    ]


class TestAnalyzeFailureLog:
    def test_counts_and_rates(self):
        summary = analyze_failure_log(
            _log([(1.0, 1), (2.0, 2), (3.0, 1), (4.0, 3)]), duration_s=10.0
        )
        assert summary.count == 4
        assert summary.system_rate == pytest.approx(0.4)
        assert summary.system_mtbf_s == pytest.approx(2.5)
        assert summary.severity_counts == (2, 1, 1)

    def test_severity_ratios_match_paper_definition(self):
        # lambda_Lj / lambda_Lt exactly.
        summary = analyze_failure_log(
            _log([(1.0, 1)] * 0 + [(float(i), 1) for i in range(7)]
                 + [(10.0 + i, 2) for i in range(2)]
                 + [(20.0, 3)]),
            duration_s=30.0,
        )
        assert summary.severity_ratios() == pytest.approx((0.7, 0.2, 0.1))

    def test_severity_model_roundtrip(self):
        summary = analyze_failure_log(
            _log([(float(i), 1) for i in range(8)] + [(9.0, 3), (9.5, 3)]),
            duration_s=10.0,
        )
        model = summary.severity_model()
        assert isinstance(model, SeverityModel)
        assert model.probability(1) == pytest.approx(0.8)
        assert model.probability(3) == pytest.approx(0.2)

    def test_node_mtbf_needs_node_count(self):
        summary = analyze_failure_log(_log([(1.0, 1)]), duration_s=10.0)
        with pytest.raises(ValueError):
            _ = summary.node_mtbf_s

    def test_node_mtbf_inverts_eq2(self):
        summary = analyze_failure_log(
            _log([(float(i), 1) for i in range(10)]), duration_s=100.0, nodes=50
        )
        # System MTBF 10 s over 50 nodes => node MTBF 500 s.
        assert summary.node_mtbf_s == pytest.approx(500.0)

    def test_empty_log(self):
        summary = analyze_failure_log([], duration_s=100.0)
        assert summary.count == 0
        assert math.isinf(summary.system_mtbf_s)
        with pytest.raises(ValueError):
            summary.severity_ratios()

    def test_rate_ci_contains_truth_for_large_sample(self):
        summary = analyze_failure_log(
            _log([(float(i), 1) for i in range(1000)]), duration_s=1000.0
        )
        lo, hi = summary.rate_ci95()
        assert lo < 1.0 < hi

    def test_validation(self):
        with pytest.raises(ValueError):
            analyze_failure_log([], duration_s=0.0)
        with pytest.raises(ValueError):
            analyze_failure_log(_log([(11.0, 1)]), duration_s=10.0)
        with pytest.raises(ValueError):
            analyze_failure_log(_log([(1.0, 4)]), duration_s=10.0, levels=3)
        with pytest.raises(ValueError):
            analyze_failure_log([], duration_s=10.0, nodes=0)

    def test_str(self):
        summary = analyze_failure_log(
            _log([(1.0, 1)]), duration_s=10.0, nodes=4
        )
        text = str(summary)
        assert "1 failures" in text and "node MTBF" in text


class TestRoundTripEstimation:
    def test_recovers_generator_parameters(self, rng):
        """Generate a long log with known parameters; the estimator
        must recover MTBF and PMF within sampling tolerance."""
        truth_pmf = (0.6, 0.3, 0.1)
        generator = AppFailureGenerator(
            rng,
            nodes=100,
            node_mtbf_s=years(1),
            severity=SeverityModel.from_probabilities(truth_pmf),
        )
        failures = [generator.next_failure() for _ in range(5000)]
        duration = failures[-1].time + 1.0
        summary = analyze_failure_log(failures, duration_s=duration, nodes=100)
        assert summary.node_mtbf_s == pytest.approx(years(1), rel=0.05)
        for level, truth in enumerate(truth_pmf, start=1):
            assert summary.severity_model().probability(level) == pytest.approx(
                truth, abs=0.03
            )

    def test_interarrival_cv_near_one_for_poisson(self, rng):
        generator = AppFailureGenerator(rng, nodes=100, node_mtbf_s=years(1))
        failures = [generator.next_failure() for _ in range(5000)]
        stats = interarrival_statistics(failures)
        assert stats["cv"] == pytest.approx(1.0, abs=0.1)

    def test_interarrival_validation(self):
        with pytest.raises(ValueError):
            interarrival_statistics(_log([(1.0, 1)]))
        with pytest.raises(ValueError):
            interarrival_statistics(_log([(1.0, 1), (1.0, 1)]))
