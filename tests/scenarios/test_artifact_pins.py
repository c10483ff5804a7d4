"""Byte pins of the generic bundled scenarios' artifacts.

Every bundled scaling scenario that does not lower to a paper figure
runs through the generic scenario path.  Parity with ``fig1`` and
``--jobs`` identity say nothing about these bytes, so this module pins
the ``run_request`` text of each one in quick mode, in all four
formats, by SHA-256.  Each scenario computes once; the other three
formats are served from a per-test result cache.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.experiments.entry import FORMATS, run_request
from repro.experiments.parallel import ExecutorOptions
from repro.scenarios import list_scenarios, load_named
from repro.scenarios.compiler import compile_scenario

#: sha256 of the quick-mode artifact, per scenario, in ``FORMATS`` order
#: (table, barchart, csv, json).
PINS = {
    "burst-storm": (
        "f196ca9c4c879295248c85e84e19640c92feff078e11b54dbbc8812df2be3ce4",
        "b1ba7f83f284198748df408f4eda016111b92ea3e01d3d6318705f837564f1c7",
        "6cfad056eaf58ced79d660f597509a388e3d47063954f958a2ddefe55b484ab6",
        "ee3947c3075931a84ab686c9f5b0a4b7d306941f088e4c86c6013098cebfdb04",
    ),
    "grid-carbon-daily": (
        "91a48e1670038305a697be28c5ea3b8526dfa5d4fe45e4f30137b4c4088394ae",
        "474b368589fecfa611738a1e1b7bff6545dc2148688c2979dbf7928f26bebe76",
        "2a9f3701e5748aa21b1439678535c490f68c8715aed4f6d767a77ee197915d94",
        "528ac924d35bb231a0f5b8db2d397aa628f7bba34afb06deb8845734b77bbd5a",
    ),
    "grid-peak-flip": (
        "1ada7d1b38e2313694f93454993b5311eb8e1aeb796ed0f5c8995b601f9520ef",
        "4e0f1a2ebadd0b025c4f3b7cfe1e1d191290e9c8d300ff7b7b13fbf720874960",
        "44c0e7c38c7b49f39fe27ad28c5471cf027574a40bf58f4da83382867fe92ba8",
        "be82a5fe81a063350fa02762cf623282da15da938e022d352c86f46b7a529488",
    ),
    "grid-trace-tariff": (
        "ac5f83f194a5e810fc5819aa85e516fed4898e6a92030672ab079ce7317b12b5",
        "728120c64b4962bac3bbcbf6fd6872aad01ff6a3d0f08be78442715b6f8bf0c5",
        "82e2170795dc09eaa52892ee79715e8460444b8f34351867e741ccf00c730372",
        "37063a7b77abe61f4e77f862b9ab13fada3ca6c9770e437b47aa2efb4c4fc6e4",
    ),
    "heterogeneous-mtbf": (
        "28e138abd60b77bdd5e86bdb38522debf276f1ad32546e884d7ec49512404dc4",
        "8d61950266fa2bd38cd4202113db7f916baa07bec4aa2034ab1c3a11dd61d4c3",
        "d3a3ea82aa74479695ec63b7fe3396684150072943fac3844928f5c2586acc75",
        "53090a32444ddee8cf145c8ba0e9c861465c18905952f528a171d6376eac8ed4",
    ),
    "lognormal-heavy-tail": (
        "0bbdefcb04a6ce856576333fc3344b250ebab0d6c91125526f04a70b36376f23",
        "383afd078380dc1683a782a4def65e02a43cb710f861de92730fc626832b7468",
        "7f86af4f9d68eb491299da7b25e10ef173b581802eefcb26680d55e1e154cfa6",
        "5874edb545ff04ad9eb4d8de36c1e19fe8fa5ee31f229092dd5076317e277f87",
    ),
    "trace-replay": (
        "a3b68cec7da7f91df8362daec08fbc6b0d4f5a3421e80055ebf420a8688f9466",
        "e696048863fae8278f5d8153b63f7bb0879bf5ebc331e41a84cb541e34513c85",
        "15896e1a77a9eb313cddece1f1f8e812a2c88cdde135a08e4aa3102890b7b044",
        "f1fb1fde5ae9429a81556e491740a3242c46c131718bde6ddcdbaa65f7e064eb",
    ),
    "weibull-aging": (
        "244d476e83c60dbb15aac18fbaa46767cda2a350773be8efd8be2a1806bad38f",
        "9042ebedf194d95b71d8c21866b3e4797a36a089b33d48373288abd6f2fb8654",
        "8df2137af87deed618023ed408b11b132ea34fd246bfc1850e056b4174a31044",
        "5fd4775e7391dbdd6bf0695ab217cf9cc1d09e688ce9aef89dc459b841343690",
    ),
}


def test_every_generic_bundled_scenario_is_pinned():
    generic = [
        name
        for name in list_scenarios()
        if compile_scenario(load_named(name)).units[0].request.experiment
        == "scenario"
    ]
    assert sorted(generic) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_quick_artifact_bytes(name, tmp_path):
    (unit,) = compile_scenario(load_named(name), quick=True).units
    options = ExecutorOptions(cache=True, cache_dir=tmp_path)
    digests = tuple(
        hashlib.sha256(
            run_request(replace(unit.request, format=fmt), options=options)
            .text.encode("utf-8")
        ).hexdigest()
        for fmt in FORMATS
    )
    assert digests == PINS[name]
