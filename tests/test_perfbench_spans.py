"""perfbench's per-layer spans wrap sirsql functions by name (`TARGETS` in
perfbench/spans.py).  These tests load that file as it is and check that
every name still resolves, and that a traced session still reports the
catalog load, so a refactor cannot drop a per-layer figure unnoticed."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer

from conftest import load_sp2

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(spans):
    for module_name, attr in spans.TARGETS:
        owner = importlib.import_module(f"sirsql.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"sirsql.{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"sirsql.{module_name}.{attr}"


def test_a_traced_session_reports_its_catalog_load(tmp_path, spans):
    location = str(tmp_path / "db.sqlite")
    load_sp2(SirLayer(KernelConnection(location))).conn.close()
    tracer = spans.Tracer()
    tracer.install()
    conns = []
    try:
        tracer.begin_op("open", planned=False)
        layer = SirLayer(KernelConnection(location))
        conns.append(layer.conn)
        tracer.end_op()
        tracer.begin_op("count", planned=True)
        assert layer.query("Select Count(*) From SP;").rows == [(12,)]
        tracer.end_op()
    finally:
        tracer.uninstall(*conns)
    assert SirLayer.query.__name__ == "query" and not hasattr(SirLayer.query, "__wrapped__")
    names = {span[3] for span in tracer.spans}
    assert {"catalog.load", "parser.parse", "router.route", "render.render",
            "kernel.execute", "layer.query"} <= names
    metrics, _ = tracer.layer_metrics([])
    assert metrics["catalog.load_ms"][0] > 0
    assert metrics["catalog.load_kernel_queries"][0] == 3
