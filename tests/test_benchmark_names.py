"""Every per-layer metric of BENCHMARK.json names a function the traced
benchmark run can find: a plain public function defined in its layer
module.  A deleted, renamed, private or wrapped (lru_cache, partial)
function makes its metrics print as absent."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _functions():
    names = json.loads(BENCHMARK.read_text())["per_layer"]
    return sorted({tuple(m["name"].split(".")[:2]) for m in names})


@pytest.mark.parametrize("layer, fn", _functions())
def test_per_layer_function_is_traceable(layer, fn):
    mod = importlib.import_module(f"fracalc.{layer}")
    obj = getattr(mod, fn, None)
    assert inspect.isfunction(obj), f"fracalc.{layer}.{fn} is not a function"
    assert obj.__module__ == mod.__name__
