"""The benchmark's tracer (``perfbench/tracing.py``) wraps package
functions by module attribute name.  A site that no longer resolves would
silently empty a benchmark layer, so every listed site must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, *_ in _sites()])
def test_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"arcpack.{module}"), attr))
