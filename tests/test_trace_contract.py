"""The names the benchmark tracer wraps (`perfbench/spans.py`) must exist
in ncpe, so that a rename fails here and not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
TRACED = sorted({(mod, attr) for mod, attr, _ in SPANS.SPANS + SPANS.CALL_COUNTERS}
                | {("posets", "FinitePoset.iter_maximal_chains")})


@pytest.mark.parametrize("module,attribute", TRACED)
def test_traced_name_resolves(module, attribute):
    owner = importlib.import_module(f"ncpe.{module}")
    for part in attribute.split("."):
        assert hasattr(owner, part), f"ncpe.{module}.{attribute}"
        owner = getattr(owner, part)
    assert callable(owner)
