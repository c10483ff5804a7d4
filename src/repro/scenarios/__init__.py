"""Declarative scenario engine.

A *scenario* is a schema-validated TOML/JSON document describing one
study — platform, failure regime, workload, technique set, sweep axis,
trials and seed — which a compiler lowers onto the existing experiment
machinery (:class:`repro.experiments.entry.StudyRequest` and the one
scaling-study pipeline the figures run on), so scenarios inherit
parallelism, caching, the failure-horizon fast path, and observability
(``--trace-out`` / ``--metrics-out``) for free.

Layers:

- :mod:`repro.scenarios.schema` — strict parsing with field-path errors;
- :mod:`repro.scenarios.spec` — the frozen spec tree and its canonical
  JSON / SHA-256 identity;
- :mod:`repro.scenarios.compiler` — lowering to study requests, the
  study grid (:func:`~repro.scenarios.compiler.scenario_grid`) that
  runs and adaptive campaigns both enumerate, and its study points
  (:func:`~repro.scenarios.compiler.scenario_point`);
- :mod:`repro.scenarios.runtime` — execution of generic (non-paper)
  scenarios through :func:`repro.experiments.runner.run_scaling_points`;
- :mod:`repro.scenarios.library` — the bundled ``.toml`` scenarios.
"""

from repro.scenarios.errors import ScenarioError
from repro.scenarios.library import list_scenarios, load_named, resolve
from repro.scenarios.schema import load_scenario, parse_scenario, scenario_from_json
from repro.scenarios.spec import ScenarioSpec, canonical_json, spec_sha256

__all__ = [
    "ScenarioError",
    "ScenarioSpec",
    "canonical_json",
    "list_scenarios",
    "load_named",
    "load_scenario",
    "parse_scenario",
    "resolve",
    "scenario_from_json",
    "spec_sha256",
]
