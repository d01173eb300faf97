"""Every function the benchmark traces must still resolve where its tracer
looks it up: `module.function` as a module attribute, `module.Class.method`
in the class's own `__dict__` (a method inherited from a base class is not
there, so moving one would silently drop it from the per-layer trace)."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NODE_COUNT = "autodiff.nodes"   # the tape's tensor count, not a function


def traced_functions():
    quals = {m["name"].rpartition(".")[0] for m in SPEC["per_layer"]
             if m["name"] != NODE_COUNT}
    return sorted(quals)


@pytest.mark.parametrize("qual", traced_functions())
def test_traced_name_resolves(qual):
    module_name, *path = qual.split(".")
    module = importlib.import_module(f"dereverb.{module_name}")
    if len(path) == 2:
        owner = getattr(module, path[0])
        assert path[1] in vars(owner), f"{qual} is not defined in the class body"
        target = vars(owner)[path[1]]
    else:
        assert len(path) == 1, qual
        target = getattr(module, path[0], None)
    assert inspect.isfunction(target), qual
