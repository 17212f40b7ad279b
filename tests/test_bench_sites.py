"""The benchmark's tracer (``perfbench/tracing.py``) wraps package
functions by module attribute name.  A site that no longer resolves would
silently empty a benchmark layer, so every listed site must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from arcpack.flow import max_cycles_through
from arcpack.instances import builtin

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, *_ in _tracing().SITES])
def test_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"arcpack.{module}"), attr))


def test_flow_value_is_first():
    # The tracer sums out[0] of max_cycles_through as flow.value_sum; a
    # new return shape would corrupt that count without an error.
    d = builtin("paper-T11")
    out = max_cycles_through(d, 0)
    assert type(out) is tuple and len(out) == 2
    value, cycles = out
    assert type(value) is int and value == len(cycles) > 0
    assert type(cycles) is tuple and all(type(c) is tuple for c in cycles)
    assert _tracing()._info("flow", "flow.max_cycles_through", (d, 0), out) == value
