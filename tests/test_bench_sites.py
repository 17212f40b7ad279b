"""The benchmark's tracer (``perfbench/tracing.py``) wraps package
functions by module attribute name.  A site that no longer resolves would
silently empty a benchmark layer, so every listed site must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from arcpack import cli, enumeration
from arcpack.enumeration import CanonicalCode, _classes
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


def test_canonical_form_sites_are_reached(monkeypatch, capsys):
    # The census layer wraps enumeration.canonical_form (class generation)
    # and cli.canonical_form (enum --predicate hits); both callers must go
    # through those module attributes and get (CanonicalCode, int) back.
    calls = {"enumeration": 0, "cli": 0}

    def recording(module, name):
        real = module.canonical_form

        def wrapper(t):
            out = real(t)
            assert type(out) is tuple and len(out) == 2
            assert type(out[0]) is CanonicalCode and type(out[1]) is int
            calls[name] += 1
            return out

        monkeypatch.setattr(module, "canonical_form", wrapper)

    recording(enumeration, "enumeration")
    recording(cli, "cli")
    # order k extends each order k-1 class by all 2^(k-1) patterns
    grown = [1 * 2, 1 * 4, 2 * 8, 4 * 16, 12 * 32, 56 * 64]  # orders 2..7
    _classes.cache_clear()
    try:
        assert len(_classes(5)) == 12
        assert calls["enumeration"] == sum(grown[:4])
        # order 7 is the first with nu < tau, so the first with a cli call
        assert cli.main(["enum", "7", "--predicate", "nu_lt_tau"]) == 0
    finally:
        _classes.cache_clear()
    assert capsys.readouterr().out.splitlines()[-1] == "matched=2 classes=456"
    assert calls == {"enumeration": sum(grown), "cli": 2}
