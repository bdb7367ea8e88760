"""The benchmark's per-layer names still name functions of the package.

perfbench's tracer wraps each public function of the rhlab layer modules
and the WeightGrid methods it lists, and a traced run fails when a name
that BENCHMARK.json reports on is missing.  A rename in the package
therefore has to keep every ``<module>.<function>`` named there.
"""

import inspect
import json
from pathlib import Path

import pytest

from rhlab import cli, grid, indices, kcalc, rearrange, weights
from rhlab.grid import WeightGrid

_MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (grid, rearrange, kcalc, indices, weights, cli)}
_BENCH = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _traced_names():
    """(module, function) of every three-part per-layer metric name
    ``<module>.<function>.<stat>``; module-wide self times, CLI operation
    timings and the trace overhead name no function."""
    out = set()
    for entry in _BENCH["per_layer"]:
        parts = entry["name"].split(".")
        if len(parts) == 3 and parts[0] in _MODULES and parts[1] != "op":
            out.add((parts[0], parts[1]))
    return sorted(out)


def test_benchmark_names_some_functions():
    assert len(_traced_names()) > 40


@pytest.mark.parametrize("module, name", _traced_names())
def test_traced_name_resolves(module, name):
    mod = _MODULES[module]
    obj = getattr(mod, name, None)
    if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
        return
    assert module == "grid", f"{module}.{name} is not a public function of rhlab.{module}"
    assert inspect.isfunction(getattr(WeightGrid, name, None)), f"grid.{name} is neither a function nor a WeightGrid method"
