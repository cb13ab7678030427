"""The benchmark's layer spans (perfbench/spans.py) must keep finding the
functions they wrap, and a traced `rank` run must pass through every layer."""

import importlib
import importlib.util
from pathlib import Path

from helpers import run_cli

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    spans = _load_spans()
    for module_name, attr, _ in spans.LAYERS:
        assert callable(getattr(importlib.import_module(module_name), attr)), \
            f"{module_name}.{attr}"


def test_traced_rank_covers_every_layer():
    spans = _load_spans()
    with spans.Tracer() as tracer:
        code, doc, _ = run_cli(["rank", "--prime", "7"])
    assert code == 0 and doc["betti"]["rank"] == 6
    names = {span["name"] for span in tracer.spans()}
    for name in ("counting.count_projective", "gridcount.value_histogram",
                 "gridcount.common_zeros", "singular.singular_points",
                 "hodge.jacobian_ring_dim", "betti.resolve", "sections.section_records"):
        assert name in names, name
