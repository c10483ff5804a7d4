"""Grid runtime tests: the locked technique-selection flip, byte-
identity of priced outputs across every execution path, export
surfaces, and the fleet counter stream."""

import json
from dataclasses import replace

import pytest

from repro.core import execution
from repro.experiments.entry import RequestError, StudyRequest, run_request
from repro.experiments.parallel import ExecutorOptions
from repro.obs import counters as obs_counters
from repro.scenarios import parse_scenario
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.library import load_named
from repro.scenarios.runtime import run_scenario_request


def tiny_grid(objective="cost"):
    """A two-cell priced scenario that runs in well under a second."""
    return parse_scenario(
        {
            "scenario": {"name": "tiny-grid"},
            "failures": {"regime": "poisson", "mtbf_years": 5.0},
            "workload": {
                "study": "scaling",
                "app_type": "A32",
                "fractions": [0.01],
            },
            "techniques": {"names": ["checkpoint_restart", "multilevel"]},
            "run": {"trials": 3},
            "grid": {
                "objective": objective,
                "start_hour": 8.0,
                "price": {
                    "kind": "sinusoidal",
                    "base": 0.12,
                    "amplitude": 0.05,
                    "peak_hour": 18.0,
                },
                "carbon": {"kind": "flat", "level": 400.0},
            },
        }
    )


def request_for(spec, fmt="table"):
    request = compile_scenario(spec).units[0].request
    return replace(request, format=fmt)


def run_text(spec, fmt="table", **options):
    outcome = run_scenario_request(
        request_for(spec, fmt), options=ExecutorOptions(**options)
    )
    return outcome.text


class TestRenderSurfaces:
    def test_table_shows_grid_accounting_block(self):
        text = run_text(tiny_grid())
        assert "Grid accounting" in text
        assert "objective=cost" in text
        assert "best by cost" in text

    def test_csv_gains_grid_columns(self):
        text = run_text(tiny_grid(), "csv")
        header = next(
            line for line in text.splitlines() if not line.startswith("#")
        )
        assert header.endswith(",mean_energy_kwh,mean_cost_usd,mean_carbon_g")
        row = text.splitlines()[-1].split(",")
        assert float(row[-2]) > 0  # priced dollars
        assert float(row[-1]) > 0  # priced grams

    def test_plain_scenario_csv_is_unchanged(self):
        spec = parse_scenario(
            {
                "scenario": {"name": "plain"},
                "failures": {"regime": "poisson", "mtbf_years": 5.0},
                "workload": {
                    "study": "scaling",
                    "app_type": "A32",
                    "fractions": [0.01],
                },
                "techniques": {"names": ["checkpoint_restart"]},
                "run": {"trials": 3},
            }
        )
        assert "mean_cost_usd" not in run_text(spec, "csv")

    def test_json_embeds_the_grid_object(self):
        payload = json.loads(run_text(tiny_grid(), "json"))
        grid = payload["grid"]
        assert grid["objective"] == "cost"
        assert grid["start_hour"] == 8.0
        assert grid["power"] == {"busy_w": 350.0, "idle_w": 120.0}
        assert grid["curves"]["price"]["kind"] == "sinusoidal"
        assert grid["curves"]["carbon"]["kind"] == "flat"
        assert grid["totals"]["cells_accounted"] == 2
        assert grid["totals"]["cost_usd"] > 0
        assert grid["totals"]["carbon_g"] > 0
        for row in payload["results"][0]["cells"]:
            assert row["mean_cost_usd"] > 0
            assert row["mean_energy_kwh"] > 0
        [sel] = grid["selection"]
        assert sel["fraction"] == 0.01
        assert sel["best_efficiency"] in ("checkpoint_restart", "multilevel")

    def test_compiler_notes_the_grid_block(self):
        notes = "\n".join(compile_scenario(tiny_grid()).notes)
        assert "grid accounting" in notes
        assert "objective=cost" in notes


class TestByteIdentity:
    """Acceptance criterion: priced outputs are byte-identical across
    --jobs 1/2, cache cold/warm, fast-path on/off, service-vs-CLI."""

    def test_serial_vs_parallel(self):
        serial = run_text(tiny_grid(), "csv", jobs=1, cache=False)
        parallel = run_text(tiny_grid(), "csv", jobs=2, cache=False)
        assert serial == parallel

    def test_cache_cold_vs_warm(self):
        cold = run_text(tiny_grid(), "csv", cache=True)
        warm = run_text(tiny_grid(), "csv", cache=True)
        assert cold == warm

    def test_fast_path_on_vs_off(self, monkeypatch):
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", True)
        fast = run_text(tiny_grid(), "csv", cache=False)
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", False)
        stepped = run_text(tiny_grid(), "csv", cache=False)
        assert fast == stepped

    def test_wire_round_trip_matches_direct_run(self):
        """The service path: the compiled request survives JSON
        serialization and produces the same bytes run_request-side."""
        request = request_for(tiny_grid(), "json")
        wire = json.dumps(request.to_payload())
        revived = StudyRequest.from_payload(json.loads(wire))
        direct = run_scenario_request(
            request, options=ExecutorOptions(cache=False)
        ).text
        via_service = run_request(
            revived, options=ExecutorOptions(cache=False)
        ).text
        assert via_service == direct


class TestGridTraces:
    def test_compiled_trace_scenario_embeds_the_curve(self):
        spec = load_named("grid-trace-tariff")
        request = compile_scenario(spec).units[0].request
        assert request.grid_traces is not None
        traces = json.loads(request.grid_traces)
        assert "price" in traces
        assert "repro-grid-curve" in traces["price"]

    def test_grid_traces_survive_payload_round_trip(self):
        spec = load_named("grid-trace-tariff")
        request = compile_scenario(spec).units[0].request
        revived = StudyRequest.from_payload(
            json.loads(json.dumps(request.to_payload()))
        )
        assert revived.grid_traces == request.grid_traces

    def test_trace_request_requires_embedded_curve(self):
        spec = load_named("grid-trace-tariff")
        request = compile_scenario(spec).units[0].request
        with pytest.raises(RequestError, match="grid_traces"):
            replace(request, grid_traces=None).validate()


class TestCounters:
    def test_grid_counters_accumulate_even_on_cache_hits(self):
        spec = tiny_grid()
        with obs_counters.scope() as first:
            run_text(spec, "csv", cache=True)
        with obs_counters.scope() as second:
            run_text(spec, "csv", cache=True)  # warm: every cell a cache hit
        for key in (
            "grid.cost_microusd",
            "grid.carbon_mg",
            "grid.energy_j",
            "grid.cells_accounted",
        ):
            assert first[key] > 0
            assert second[key] == first[key]
        assert first["grid.cells_accounted"] == 2


class TestFlipLock:
    """The acceptance-criterion flip: under the bundled peak tariff at
    a 0.2-year MTBF, 25% of the machine, redundancy_r2 wins on
    efficiency while multilevel wins on dollars."""

    @pytest.fixture(scope="class")
    def payload(self):
        spec = load_named("grid-peak-flip")
        outcome = run_scenario_request(
            replace(compile_scenario(spec).units[0].request, format="json"),
            options=ExecutorOptions(cache=False),
        )
        return json.loads(outcome.text)

    def test_no_flip_at_small_scale(self, payload):
        [small] = [
            s for s in payload["grid"]["selection"] if s["fraction"] == 0.1
        ]
        assert small["flip"] is False
        assert small["best_efficiency"] == small["best_objective"]

    def test_flip_at_quarter_machine(self, payload):
        [big] = [
            s for s in payload["grid"]["selection"] if s["fraction"] == 0.25
        ]
        assert big["flip"] is True
        assert big["best_efficiency"] == "redundancy_r2"
        assert big["best_objective"] == "multilevel"

    def test_every_cell_accounted(self, payload):
        assert payload["grid"]["totals"]["cells_accounted"] == 6
        assert payload["grid"]["objective"] == "cost"
