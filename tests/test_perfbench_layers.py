"""perfbench's traced runs wrap names of ``repro`` from outside.

``perfbench/layers.py`` patches public functions of the server and
agent layers (``RemoteJobSource.claim_batch``, ``Campaign.step``, the
``STORE_METHODS`` of the SQLite store, ...) with span recorders.  A
renamed or removed name would only crash ``perfbench --trace 1``;
installing and removing every wrapper here makes it fail tier-1.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_server_and_agent_wrappers_install_and_unwrap(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    from repro.service import agent, store_sqlite
    from repro.sim import engine

    originals = (
        engine.Simulator.run,
        agent.RemoteJobSource.claim_batch,
        store_sqlite.SQLiteJobStore.claim_batch,
    )
    tracer = spans.Tracer()
    try:
        layers.install_server(tracer)
        layers.install_agent(tracer)
        assert agent.RemoteJobSource.claim_batch is not originals[1]
        assert len(tracer._patches) > len(layers.STORE_METHODS)
    finally:
        tracer.unwrap_all()
    assert (
        engine.Simulator.run,
        agent.RemoteJobSource.claim_batch,
        store_sqlite.SQLiteJobStore.claim_batch,
    ) == originals
