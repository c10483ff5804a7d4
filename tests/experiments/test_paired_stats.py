"""Unit tests for paired statistics."""

import math

import pytest

from repro.experiments.stats import paired_summary


class TestPairedSummary:
    def test_mean_difference(self):
        result = paired_summary([2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
        assert result.diff.mean == pytest.approx(2.0)
        assert result.diff.n == 3

    def test_significant_difference(self):
        a = [0.90, 0.92, 0.89, 0.93, 0.90, 0.91]
        b = [0.80, 0.83, 0.78, 0.81, 0.82, 0.80]
        result = paired_summary(a, b)
        assert result.significant
        assert result.p_value < 0.01

    def test_noise_not_significant(self):
        a = [0.5, 0.7, 0.4, 0.6]
        b = [0.6, 0.5, 0.6, 0.45]
        result = paired_summary(a, b)
        assert not result.significant

    def test_constant_differences_give_nan_p(self):
        result = paired_summary([1.0, 2.0, 3.0], [0.5, 1.5, 2.5])
        assert math.isnan(result.p_value)
        assert not result.significant
        assert result.diff.mean == pytest.approx(0.5)

    def test_single_pair(self):
        result = paired_summary([1.0], [0.4])
        assert result.diff.mean == pytest.approx(0.6)
        assert math.isnan(result.p_value)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_summary([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            paired_summary([], [])

    def test_str(self):
        text = str(paired_summary([1.0, 2.0], [0.0, 0.5]))
        assert "diff" in text and "p=" in text
