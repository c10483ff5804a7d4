"""Fuzz every input boundary from real documents.

Seeds are real inputs: the bundled scenario files, the two pinned JSONL
files, and the wire payloads of the job and fleet-protocol parsers.
Mutations drop, retype, duplicate and nest keys, inject NaN, +-inf and
huge integers, truncate lines and splice in bytes that are not UTF-8.
The property is the boundary contract: each input either parses or
raises :class:`repro.inputs.InputError` (every boundary's error type
derives from it) — never anything else.
"""

from __future__ import annotations

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.entry import StudyRequest
from repro.failures.trace import (
    FailureTrace,
    TracedFailure,
    trace_from_jsonl,
    trace_to_jsonl,
)
from repro.grid.curves import TraceCurve, curve_from_jsonl, curve_to_jsonl
from repro.inputs import InputError, decode_json, decode_toml
from repro.scenarios import list_scenarios, load_named
from repro.scenarios.errors import ScenarioError
from repro.scenarios.library import library_dir
from repro.scenarios.schema import parse_scenario, scenario_from_json
from repro.scenarios.spec import canonical_json, spec_sha256
from repro.service.jobs import JobSpec
from repro.service.protocol import (
    ClaimRequest,
    CompletionItem,
    SiteRegistration,
    parse_claim_request,
    parse_complete_request,
    parse_site_registration,
)

FUZZ = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SCENARIO_TEXTS = {
    path.name: path.read_text() for path in sorted(library_dir().glob("*.toml"))
}
SCENARIO_DOCS = {name: decode_toml(text) for name, text in SCENARIO_TEXTS.items()}
TRACE_TEXT = (library_dir() / "traces" / "pinned-10y.jsonl").read_text()
CURVE_TEXT = (library_dir() / "traces" / "pinned-tariff.jsonl").read_text()

WIRE = {
    "job": (
        JobSpec(StudyRequest("fig1", format="json", trials=7, quick=True)).to_payload(),
        JobSpec.from_payload,
    ),
    "scenario-job": (
        JobSpec(
            StudyRequest(
                "scenario",
                scenario=canonical_json(load_named("weibull-aging")),
                trial_offset=4,
            ),
            jobs=2,
            cache=False,
        ).to_payload(),
        JobSpec.from_payload,
    ),
    "site": (
        SiteRegistration("site-a", meta={"host": "h", "workers": 2}).to_payload(),
        parse_site_registration,
    ),
    "claim": (
        ClaimRequest("site-a", "agent-1", limit=4, lease_s=60.0).to_payload(),
        parse_claim_request,
    ),
    "complete": (
        {
            "worker": "agent-1",
            "results": [
                CompletionItem("j1", True, result="r", counters={"grid.x": 3}).to_payload(),
                CompletionItem("j2", False, error="boom").to_payload(),
            ],
        },
        parse_complete_request,
    ),
}

#: Edge values a mutation plants: non-finite and huge numbers, and
#: empty values of every type.
EDGE = st.sampled_from(
    [math.nan, math.inf, -math.inf, 10**30, -(2**64), 2**63, 10**400, 1e308]
    + [True, None, "", [], {}]
)

#: Arbitrary values a mutation may plant anywhere in a document.
HOSTILE = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


def _slots(doc):
    """Every (container, key) pair of a JSON-like tree."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        items = (
            node.items() if isinstance(node, dict)
            else enumerate(node) if isinstance(node, list)
            else ()
        )
        for key, value in items:
            out.append((node, key))
            stack.append(value)
    return out


@st.composite
def mutated(draw, doc):
    """*doc* with one to three structural mutations applied."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        op = draw(
            st.sampled_from(["drop", "retype", "edge", "duplicate", "nest", "rename"])
        )
        if op == "drop":
            del node[key]
        elif op == "retype":
            node[key] = draw(HOSTILE)
        elif op == "edge":
            node[key] = draw(EDGE)
        elif op == "duplicate":
            other = draw(st.sampled_from(slots))[1]
            if isinstance(node, dict):
                node[str(other)] = copy.deepcopy(node[key])
            else:
                node.append(copy.deepcopy(node[key]))
        elif op == "nest":
            depth = draw(st.sampled_from([1, 2, 40, 200]))
            value = node[key]
            for _ in range(depth):
                value = draw(st.sampled_from([[value], {"k": value}]))
            node[key] = value
        elif isinstance(node, dict):
            node[draw(st.text(max_size=6))] = node.pop(key)
    return doc


@st.composite
def garbled(draw, text):
    """*text* as UTF-8 bytes, truncated, spliced, nested thousands of
    levels deep, with lines dropped or numbers turned non-finite."""
    raw = text.encode("utf-8")
    op = draw(st.sampled_from(["truncate", "splice", "deep", "drop-line", "literal"]))
    if op == "deep":
        sep = b"= " if b"= " in raw else b": "
        return raw.replace(sep, sep + b"[" * 5000, 1)
    if op == "truncate":
        return raw[: draw(st.integers(0, len(raw)))]
    if op == "splice":
        at = draw(st.integers(0, len(raw)))
        junk = draw(
            st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"}"])
        )
        return raw[:at] + junk + raw[at:]
    lines = raw.split(b"\n")
    at = draw(st.integers(0, len(lines) - 1))
    if op == "drop-line":
        return b"\n".join(lines[:at] + lines[at + 1 :])
    literal = draw(st.sampled_from([b"NaN", b"Infinity", b"-Infinity", b"1e999", b"9" * 30]))
    return b"\n".join(lines[:at] + [lines[at].replace(b"1", literal, 1)] + lines[at + 1 :])


def parses_or_input_error(parse, value):
    try:
        parse(value)
    except InputError:
        pass


def jsonl_lines(text):
    return [json.loads(line) for line in text.splitlines()]


def join_jsonl(lines):
    return "\n".join(json.dumps(line) for line in lines) + "\n"


def text_or_input_error(parse, raw):
    """Run a text parser on bytes the way its file loader would: bytes
    that are not UTF-8 are the reader's error, not the parser's."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return
    parses_or_input_error(parse, text)


class TestScenarioDocuments:
    @FUZZ
    @given(data=st.data(), name=st.sampled_from(sorted(SCENARIO_DOCS)))
    def test_mutated_documents(self, data, name):
        doc = data.draw(mutated(SCENARIO_DOCS[name]))
        parses_or_input_error(parse_scenario, doc)
        parses_or_input_error(scenario_from_json, json.dumps(doc))

    @FUZZ
    @given(data=st.data(), name=st.sampled_from(sorted(SCENARIO_TEXTS)))
    def test_garbled_toml(self, data, name):
        raw = data.draw(garbled(SCENARIO_TEXTS[name]))
        parses_or_input_error(
            lambda b: parse_scenario(decode_toml(b, error=ScenarioError)), raw
        )

    def test_canonical_json_round_trip(self):
        for name in list_scenarios():
            spec = load_named(name)
            again = scenario_from_json(canonical_json(spec))
            assert canonical_json(again) == canonical_json(spec)
            assert spec_sha256(again) == spec_sha256(spec)


class TestJsonlFiles:
    @FUZZ
    @given(data=st.data())
    def test_mutated_trace_records(self, data):
        lines = jsonl_lines(TRACE_TEXT)
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at] = data.draw(mutated(lines[at]))
        parses_or_input_error(trace_from_jsonl, join_jsonl(lines))

    @FUZZ
    @given(data=st.data())
    def test_mutated_curve_records(self, data):
        lines = jsonl_lines(CURVE_TEXT)
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at] = data.draw(mutated(lines[at]))
        parses_or_input_error(curve_from_jsonl, join_jsonl(lines))

    @FUZZ
    @given(data=st.data(), which=st.sampled_from(["trace", "curve"]))
    def test_garbled_text(self, data, which):
        text, parse = (
            (TRACE_TEXT, trace_from_jsonl)
            if which == "trace"
            else (CURVE_TEXT, curve_from_jsonl)
        )
        text_or_input_error(parse, data.draw(garbled(text)))

    @FUZZ
    @given(
        times=st.lists(
            st.floats(0.0, 1e12, allow_nan=False), min_size=0, max_size=20
        ),
        data=st.data(),
    )
    def test_trace_save_load_identity(self, times, data):
        failures = tuple(
            TracedFailure(
                time=t,
                location_u=data.draw(st.floats(0.0, 1.0, exclude_max=True)),
                severity=data.draw(st.integers(1, 3)),
            )
            for t in sorted(times)
        )
        trace = FailureTrace(unit_rate=1e-9, horizon_s=2e12, failures=failures)
        text = trace_to_jsonl(trace)
        again = trace_from_jsonl(text)
        assert again == trace
        assert trace_to_jsonl(again) == text


    @FUZZ
    @given(
        steps=st.lists(st.floats(1e-3, 1e4), min_size=0, max_size=20),
        periodic=st.booleans(),
        data=st.data(),
    )
    def test_curve_save_load_identity(self, steps, periodic, data):
        times = [0.0]
        for step in steps:
            times.append(times[-1] + step)
        levels = [data.draw(st.floats(0.0, 1e3)) for _ in times]
        period = times[-1] + 1.0 if periodic else None
        curve = TraceCurve(times, levels, period_s=period, unit="usd_per_kwh")
        text = curve_to_jsonl(curve)
        again = curve_from_jsonl(text)
        assert (again.times_s, again.levels) == (curve.times_s, curve.levels)
        assert (again.period_s, again.unit) == (curve.period_s, curve.unit)
        assert curve_to_jsonl(again) == text


class TestWirePayloads:
    @FUZZ
    @given(data=st.data(), name=st.sampled_from(sorted(WIRE)))
    def test_mutated_payloads(self, data, name):
        payload, parse = WIRE[name]
        doc = data.draw(mutated(payload))
        parses_or_input_error(parse, doc)
        parses_or_input_error(
            lambda b: parse(decode_json(b)), json.dumps(doc).encode("utf-8")
        )

    @FUZZ
    @given(data=st.data(), name=st.sampled_from(sorted(WIRE)))
    def test_garbled_bodies(self, data, name):
        payload, parse = WIRE[name]
        raw = data.draw(garbled(json.dumps(payload, indent=1)))
        parses_or_input_error(lambda b: parse(decode_json(b)), raw)

    def test_seed_payloads_parse(self):
        for payload, parse in WIRE.values():
            parse(payload)
