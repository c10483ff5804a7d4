"""Unit tests for the adaptive campaign controller's pure pieces:
config parsing, batch-chain planning, artifact parsing, and the shared
winning-technique renderer the bench uses for byte-identity checks."""

import json
from dataclasses import asdict

import pytest

from repro.campaigns.controller import (
    best_map_from_results,
    parse_cell_result,
    render_best_technique_table,
    technique_tag,
)
from repro.scenarios.schema import parse_adaptive, parse_scenario
from repro.scenarios.spec import AdaptiveSpec
from repro.service.jobs import ValidationError


class TestAdaptiveConfig:
    """The one adaptive parser: a scenario's ``[adaptive]`` section and
    the ``adaptive`` override of ``POST /v1/campaigns`` alike."""

    def test_defaults_mirror_the_schema(self):
        cfg = parse_adaptive({})
        assert (cfg.max_trials, cfg.batch_size) == (200, 25)
        assert (cfg.ci_rel_threshold, cfg.refine_depth) == (0.02, 1)

    def test_from_spec_none_is_defaults(self):
        assert parse_adaptive({}, None) == AdaptiveSpec()

    def test_from_spec_carries_the_section(self):
        spec = parse_scenario(
            {
                "scenario": {"name": "t"},
                "workload": {
                    "study": "scaling",
                    "app_type": "A32",
                    "fractions": [0.01],
                },
                "adaptive": {"max_trials": 30, "batch_size": 10},
            }
        )
        cfg = parse_adaptive({}, spec.adaptive)
        assert cfg.max_trials == 30
        assert cfg.batch_size == 10

    def test_from_payload_overrides_defaults_fieldwise(self):
        defaults = AdaptiveSpec(max_trials=40, batch_size=8)
        cfg = parse_adaptive({"batch_size": 4}, defaults)
        assert cfg.max_trials == 40
        assert cfg.batch_size == 4

    @pytest.mark.parametrize(
        "payload",
        [
            {"max_trials": 1},
            {"max_trials": True},
            {"max_trials": "many"},
            {"batch_size": 1},
            {"max_trials": 10, "batch_size": 11},
            {"ci_rel_threshold": 0.0},
            {"ci_rel_threshold": 1.0},
            {"ci_rel_threshold": False},
            {"refine_depth": -1},
            {"bogus": 3},
            "not-an-object",
        ],
    )
    def test_bad_payloads_raise_validation_error(self, payload):
        with pytest.raises(ValidationError):
            parse_adaptive(payload)

    def test_payload_round_trip(self):
        cfg = AdaptiveSpec(
            max_trials=12, batch_size=5, ci_rel_threshold=0.1, refine_depth=2
        )
        assert parse_adaptive(asdict(cfg)) == cfg

    def test_batch_sizes_cover_max_trials_exactly(self):
        assert AdaptiveSpec(max_trials=12, batch_size=5).batch_sizes() == [
            5,
            5,
            2,
        ]
        assert AdaptiveSpec(max_trials=10, batch_size=5).batch_sizes() == [
            5,
            5,
        ]
        assert sum(AdaptiveSpec().batch_sizes()) == 200


class TestParseCellResult:
    def artifact(self, **cell):
        base = {
            "app_type": "A32",
            "fraction": 0.05,
            "technique": "checkpoint_restart",
            "mean_efficiency": 0.8,
            "std_efficiency": 0.01,
            "trials": 4,
            "infeasible": False,
        }
        base.update(cell)
        return json.dumps(
            {
                "results": [
                    {"axis": None, "axis_value": None, "cells": [base]}
                ]
            }
        )

    def test_extracts_the_tuple(self):
        n, mean, std, infeasible = parse_cell_result(self.artifact())
        assert (n, mean, std, infeasible) == (4, 0.8, 0.01, False)

    def test_infeasible_flag(self):
        assert parse_cell_result(self.artifact(infeasible=True))[3] is True

    def test_garbage_fails_loudly(self):
        with pytest.raises((ValueError, KeyError)):
            parse_cell_result("not json at all")


class TestBestTechniqueTable:
    def test_tags(self):
        assert technique_tag("checkpoint_restart") == "CR"
        assert technique_tag("multilevel") == "ML"
        assert technique_tag("parallel_recovery") == "PR"
        assert technique_tag("whatever") == "WH"

    def test_best_map_prefers_highest_feasible_mean(self):
        payload = {
            "results": [
                {
                    "axis": None,
                    "axis_value": None,
                    "cells": [
                        {
                            "fraction": 0.1,
                            "technique": "checkpoint_restart",
                            "mean_efficiency": 0.7,
                            "infeasible": False,
                        },
                        {
                            "fraction": 0.1,
                            "technique": "multilevel",
                            "mean_efficiency": 0.9,
                            "infeasible": False,
                        },
                        {
                            "fraction": 0.9,
                            "technique": "checkpoint_restart",
                            "mean_efficiency": 0.99,
                            "infeasible": True,
                        },
                        {
                            "fraction": 0.9,
                            "technique": "multilevel",
                            "mean_efficiency": 0.2,
                            "infeasible": True,
                        },
                    ],
                }
            ]
        }
        best = best_map_from_results(payload)
        assert best[(None, 0.1)] == "multilevel"
        # Infeasible everywhere: no winner, never "highest anyway".
        assert best[(None, 0.9)] is None

    def test_exact_tie_goes_to_first_in_order(self):
        payload = {
            "results": [
                {
                    "axis": None,
                    "axis_value": None,
                    "cells": [
                        {
                            "fraction": 0.5,
                            "technique": "checkpoint_restart",
                            "mean_efficiency": 0.5,
                            "infeasible": False,
                        },
                        {
                            "fraction": 0.5,
                            "technique": "multilevel",
                            "mean_efficiency": 0.5,
                            "infeasible": False,
                        },
                    ],
                }
            ]
        }
        assert best_map_from_results(payload)[(None, 0.5)] == (
            "checkpoint_restart"
        )

    def test_render_is_fixed_width_and_stable(self):
        best = {
            (None, 0.1): "multilevel",
            (None, 0.9): None,
        }
        table = render_best_technique_table(None, [None], [0.1, 0.9], best)
        lines = table.splitlines()
        assert lines[0] == f"{'sweep':<14}" + f"{10:>7.0f}%" + f"{90:>7.0f}%"
        assert set(lines[1]) == {"-"}
        assert lines[2].startswith(f"{'-':<14}")
        assert "ML" in lines[2] and "--" in lines[2]

    def test_render_with_axis_rows(self):
        best = {(1.0, 0.5): "parallel_recovery", (5.0, 0.5): "multilevel"}
        table = render_best_technique_table(
            "mtbf_years", [1.0, 5.0], [0.5], best
        )
        lines = table.splitlines()
        assert lines[0].startswith("mtbf_years")
        assert lines[2].startswith("1 ") and "PR" in lines[2]
        assert lines[3].startswith("5 ") and "ML" in lines[3]
