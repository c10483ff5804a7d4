"""Every input boundary fails cleanly, and accepted input keeps its identity.

Regression tests for inputs that used to be accepted and crash later,
or crash the reader outright, each at the boundary a user hits: the
``repro scenario validate`` CLI (exit 2, one line, no traceback), the
HTTP API (400 with a JSON error) and the trace/curve JSONL loaders
(their format errors).  The pins at the bottom hold the digests of the
bundled inputs, which are cache keys: the shared codec and cursor must
keep producing the same bytes for them.
"""

import json

import pytest

from repro.cli import main
from repro.failures.trace import (
    TraceFormatError,
    load_trace,
    trace_digest,
    trace_from_jsonl,
)
from repro.grid.curves import (
    CurveFormatError,
    curve_digest,
    curve_from_jsonl,
    load_curve,
)
from repro.scenarios import list_scenarios, load_named, spec_sha256
from repro.scenarios.library import library_dir
from repro.service.app import ReproService, ServiceConfig
from repro.service.client import ServiceClient, ServiceError

SCALING = '[workload]\nstudy = "scaling"\napp_type = "A32"\n'


def validate(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    code = main(["scenario", "validate", str(path)])
    return code, capsys.readouterr().err


class TestScenarioCli:
    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "+nan"])
    def test_non_finite_mtbf_exits_2(self, tmp_path, capsys, literal):
        text = f'[scenario]\nname = "x"\n[failures]\nmtbf_years = {literal}\n{SCALING}'
        code, err = validate(tmp_path, capsys, "nan.toml", text)
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "failures.mtbf_years" in err

    def test_deeply_nested_toml_exits_2(self, tmp_path, capsys):
        text = '[scenario]\nname = "x"\n[run]\nseed = ' + "[" * 5000 + "]" * 5000
        code, err = validate(tmp_path, capsys, "deep.toml", text)
        assert code == 2
        assert err.count("\n") == 1 and "nested deeper" in err

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        text = '{"scenario": ' + "[" * 5000 + "]" * 5000 + "}"
        code, err = validate(tmp_path, capsys, "deep.json", text)
        assert code == 2
        assert err.count("\n") == 1 and "nested deeper" in err


@pytest.fixture(scope="module")
def client():
    service = ReproService(
        ServiceConfig(
            host="127.0.0.1",
            port=0,
            workers=0,
            db_path=":memory:",
            poll_interval_s=0.01,
        )
    )
    service.start()
    yield ServiceClient(service.url, timeout=30.0)
    service.shutdown(timeout=30)


def trace_scenario_job(**embedded):
    from repro.scenarios.compiler import compile_scenario

    request = compile_scenario(load_named("trace-replay")).units[0].request
    payload = request.to_payload()
    payload.update(embedded)
    return payload


class TestHttp:
    def assert_400(self, call, field=None):
        with pytest.raises(ServiceError) as excinfo:
            call()
        assert excinfo.value.status == 400
        assert excinfo.value.message and "\n" not in excinfo.value.message
        if field is not None:
            assert field in excinfo.value.message

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_job_field_400(self, client, value):
        self.assert_400(
            lambda: client.submit(experiment="fig1", mtbf_years=value),
            "mtbf_years",
        )

    def test_non_finite_campaign_spec_400(self, client):
        doc = {
            "scenario": {"name": "x"},
            "failures": {"mtbf_years": float("nan")},
        }
        self.assert_400(
            lambda: client.submit_campaign(spec=doc), "failures.mtbf_years"
        )

    def test_garbage_embedded_trace_400(self, client):
        self.assert_400(
            lambda: client.submit(**trace_scenario_job(trace="garbage")),
            "trace",
        )

    def test_garbage_embedded_grid_traces_400(self, client):
        from repro.scenarios.compiler import compile_scenario

        request = compile_scenario(load_named("grid-trace-tariff")).units[0]
        for garbage in ("{not json", '{"price": "x"}', '{"price": 1}'):
            payload = request.request.to_payload()
            payload["grid_traces"] = garbage
            self.assert_400(lambda: client.submit(**payload), "grid_traces")


TRACE_HEADER = {
    "failures": 1,
    "format": "repro-failure-trace",
    "horizon_s": 100.0,
    "unit_rate": 0.1,
    "version": 1,
}
TRACE_RECORD = {"t": 1.0, "u": 0.5, "s": 1}


def trace_text(header=None, record=None):
    lines = [dict(TRACE_HEADER, **(header or {})), dict(TRACE_RECORD, **(record or {}))]
    return "\n".join(json.dumps(line) for line in lines) + "\n"


CURVE_HEADER = {
    "format": "repro-grid-curve",
    "period_s": 86400.0,
    "points": 1,
    "unit": "usd_per_kwh",
    "version": 1,
}
CURVE_RECORD = {"t": 0.0, "v": 0.1}


def curve_text(header=None, record=None):
    lines = [dict(CURVE_HEADER, **(header or {})), dict(CURVE_RECORD, **(record or {}))]
    return "\n".join(json.dumps(line) for line in lines) + "\n"


class TestJsonl:
    def test_well_formed_inputs_load(self):
        assert len(trace_from_jsonl(trace_text())) == 1
        assert curve_from_jsonl(curve_text()).levels == (0.1,)

    @pytest.mark.parametrize(
        "record",
        [
            {"t": float("nan")},
            {"t": float("inf")},
            {"t": "5"},
            {"s": 1.9},
            {"s": True},
            {"x": 1},
            {"s": 2**70},
        ],
        ids=["t-nan", "t-inf", "t-string", "s-fraction", "s-bool", "extra-key", "s-huge"],
    )
    def test_bad_trace_record(self, record):
        with pytest.raises(TraceFormatError, match="line 2"):
            trace_from_jsonl(trace_text(record=record))

    @pytest.mark.parametrize(
        "header",
        [{"unit_rate": float("nan")}, {"horizon_s": float("inf")}, {"failures": True}],
        ids=["unit-rate-nan", "horizon-inf", "count-bool"],
    )
    def test_bad_trace_header(self, header):
        with pytest.raises(TraceFormatError):
            trace_from_jsonl(trace_text(header=header))

    @pytest.mark.parametrize(
        "header, record",
        [
            ({}, {"t": "0"}),
            ({}, {"v": True}),
            ({}, {"v": float("nan")}),
            ({"period_s": float("inf")}, {}),
            ({"unit": 7}, {}),
            ({}, {"w": 1.0}),
        ],
        ids=["t-string", "v-bool", "v-nan", "period-inf", "unit-number", "extra-key"],
    )
    def test_bad_curve(self, header, record):
        with pytest.raises(CurveFormatError):
            curve_from_jsonl(curve_text(header, record))

    @pytest.mark.parametrize(
        "loader, error, raw",
        [
            (load_trace, TraceFormatError, b"\xff\xfe"),
            (load_curve, CurveFormatError, b'{"format": "\xff"}\n'),
        ],
        ids=["trace", "curve"],
    )
    def test_non_utf8_file(self, tmp_path, loader, error, raw):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(raw)
        with pytest.raises(error, match="UTF-8"):
            loader(path)


#: ``spec_sha256`` of every bundled scenario (result-cache keys).
BUNDLED_SPEC_SHA256 = {
    "burst-storm": "1521671c811e53241d176ec4bb338905b7991b01608bb039828424f02878caa6",
    "fig1": "409a0db04cd6bcfa1f4c4df0009e771903177027d4b480650e349dc3592fc235",
    "fig2": "e5c8380ae273f6a2fc5f80524738c3ef8719b4276001c2a8d7f90dfa27a0e1f2",
    "fig3": "49d5303eb2499806d4a7593533a3308c7933195e67875effb4f722ef2cd6341d",
    "fig4": "ff4f6cffceeac7a5c9ba433600b2fb7057d89c7ee14e388dbc3607c3d2c15cbd",
    "fig5": "31c2981039822fff5b9091876a15c849357cdd2052053285d3f51e056a8a0ef1",
    "grid-carbon-daily": "cab4e8709c938468eb1863381b57f0b08b97a3cdb70f606bc1f42b7e94f3c4af",
    "grid-peak-flip": "1b7c56ce93836e0b4be0cd7afe2eebc514acc8eeb128fa157ef43aee5b0c38fe",
    "grid-trace-tariff": "9722945511b4a1e304b335f182fd4c0cf0855d36f9268db7053b78d807d2cb70",
    "heterogeneous-mtbf": "04225d948b888cd93d3c48659fb162009242be028f7c99aec11648f6f2b034b1",
    "lognormal-heavy-tail": "b878185fb8ff619fcbdb1246adafacd0866880770520102dea6d46bb5a881c26",
    "trace-replay": "01bfd43fad1f7932fb57a26b44f2a94d82553efd8914a32b675ff45dfd21f89c",
    "weibull-aging": "64cddd9f1e31ba9d334dabca16b60462dc3b72403f4475027162093af66fc366",
}


class TestAcceptedInputKeepsItsIdentity:
    def test_bundled_spec_digests(self):
        assert list_scenarios() == sorted(BUNDLED_SPEC_SHA256)
        for name, digest in BUNDLED_SPEC_SHA256.items():
            assert spec_sha256(load_named(name)) == digest, name

    def test_pinned_trace_digest(self):
        trace = load_trace(library_dir() / "traces" / "pinned-10y.jsonl")
        assert (
            trace_digest(trace)
            == "8fecf399b4a30b1db633ed75f746aa602b833a5b929e1e34c7ee8315f72b7349"
        )

    def test_pinned_curve_digest(self):
        curve = load_curve(library_dir() / "traces" / "pinned-tariff.jsonl")
        assert (
            curve_digest(curve)
            == "7c81d9cdcbcc948ff0bb13aee71cd8a78e7c1a189c2b083d7d2e92d18c1ccbf0"
        )

    def test_pinned_files_are_canonical(self):
        from repro.failures.trace import trace_to_jsonl
        from repro.grid.curves import curve_to_jsonl

        traces = library_dir() / "traces"
        trace_file = traces / "pinned-10y.jsonl"
        curve_file = traces / "pinned-tariff.jsonl"
        assert trace_to_jsonl(load_trace(trace_file)) == trace_file.read_text()
        assert curve_to_jsonl(load_curve(curve_file)) == curve_file.read_text()
