"""CLI tests for the ``repro grid`` and ``repro energy`` verbs."""

from repro.cli import build_parser, main


def stdout_of(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


class TestParser:
    def test_grid_verbs_parse(self):
        args = build_parser().parse_args(["grid", "show", "grid-peak-flip"])
        assert args.experiment == "grid"
        assert args.target == "show"
        assert args.extra == "grid-peak-flip"

    def test_energy_verb_parses(self):
        args = build_parser().parse_args(["energy", "report", "fig1"])
        assert args.experiment == "energy"
        assert args.target == "report"


class TestGridShow:
    def test_shows_curves_and_hourly_means(self, capsys):
        out = stdout_of(capsys, ["grid", "show", "grid-peak-flip"])
        assert "grid-peak-flip" in out
        assert "objective" in out and "cost" in out
        assert "price" in out and "sinusoidal" in out
        assert "carbon" in out and "flat" in out
        # The 3-hourly sweep covers one full day.
        assert "hour" in out and " 21" in out

    def test_trace_scenario_shows_digest(self, capsys):
        out = stdout_of(capsys, ["grid", "show", "grid-trace-tariff"])
        assert "trace" in out

    def test_unknown_action_exits_2(self, capsys):
        assert main(["grid", "frobnicate", "grid-peak-flip"]) == 2
        assert "unknown grid action" in capsys.readouterr().err

    def test_missing_scenario_argument_exits_2(self, capsys):
        assert main(["grid", "show"]) == 2
        assert "needs a bundled scenario name" in capsys.readouterr().err

    def test_gridless_scenario_exits_2(self, capsys):
        assert main(["grid", "show", "fig1"]) == 2
        assert "[grid]" in capsys.readouterr().err


class TestGridQuote:
    def test_quotes_every_cell(self, capsys):
        out = stdout_of(capsys, ["grid", "quote", "grid-peak-flip"])
        for technique in (
            "checkpoint_restart",
            "multilevel",
            "redundancy_r2",
        ):
            assert technique in out
        assert "best by efficiency" in out
        assert "best by cost" in out

    def test_datacenter_scenario_rejected(self, capsys):
        # fig4 is a datacenter study: quoting scaling cells is undefined.
        assert main(["grid", "quote", "fig4"]) == 2


class TestEnergyReport:
    def test_reports_kwh_by_activity(self, capsys):
        out = stdout_of(capsys, ["energy", "report", "grid-peak-flip"])
        assert "work" in out
        assert "overhead" in out
        assert "multilevel" in out

    def test_works_without_a_grid_block(self, capsys):
        # Energy is grid-independent: any analytic scaling scenario quotes.
        out = stdout_of(capsys, ["energy", "report", "fig1"])
        assert "kWh" in out or "kwh" in out.lower()

    def test_unknown_action_exits_2(self, capsys):
        assert main(["energy", "audit", "fig1"]) == 2
        assert "unknown energy action" in capsys.readouterr().err

    def test_datacenter_scenario_rejected(self, capsys):
        assert main(["energy", "report", "fig4"]) == 2
