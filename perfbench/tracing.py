"""Spans around arcpack's public functions, recorded at their call sites.

The benchmark replaces module attributes (``arcpack.packing.max_cycle_packing``,
``arcpack.enumeration.canonical_form``, ...) and the claim runners of
``arcpack.claims`` with timing wrappers.  A
function looks such a name up in its module's globals at call time, so a
wrapper sees every call made through that module, including nested ones.
Nothing in the package is edited.

A span is ``[layer, site, start, end, parent, op, info]``: ``parent`` is
the index of the enclosing span (or -1) and ``info`` the work count the
layer reports (DP cells, search nodes, code value, flow value).
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, layer, workloads on which the site must record calls)
SITES = (
    ("digraph", "parse_graph", "digraph", ("nu-hard", "nu-blocks", "through-64")),
    ("packing", "max_cycle_packing", "packing", ("nu-hard", "nu-blocks")),
    ("enumeration", "max_cycle_packing", "packing", ("census",)),
    ("claims", "max_cycle_packing", "packing", ("census",)),
    ("packing", "min_feedback_arc_set", "fas", ("nu-hard", "nu-blocks")),
    ("enumeration", "min_feedback_arc_set", "fas", ("census",)),
    ("claims", "feedback_arc_set_size", "fas", ("census",)),
    ("fas", "feedback_arc_set_size", "fas", ("census",)),
    ("enumeration", "canonical_form", "enumeration", ("census",)),
    ("cli", "canonical_form", "enumeration", ("census",)),
    ("flow", "max_cycles_through", "flow", ("through-64",)),
    ("flow", "min_arc_cover_through", "flow", ("through-64",)),
    ("claims", "max_cycles_through", "flow", ("census",)),
)


def _info(layer: str, site: str, args: tuple, out):
    if layer == "fas":
        return 1 << args[0].n  # cells of the subset DP
    if layer == "packing":
        return [out.nodes_explored, out.optimal]
    if layer == "enumeration":
        return f"{out[0].n}:{out[0].value}"
    if site.endswith("max_cycles_through"):
        return out[0]
    return None


class Tracer:
    """Keeps spans in memory; ``op`` tags the spans of the current op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.t0 = time.perf_counter()

    def install(self) -> None:
        for mod_name, attr, layer, _ in SITES:
            module = importlib.import_module(f"arcpack.{mod_name}")
            setattr(module, attr, self._wrap(getattr(module, attr), layer, f"{mod_name}.{attr}"))
        # verify_paper looks each claim's runner up in this table per call
        claims = importlib.import_module("arcpack.claims")
        for cid, runner in list(claims._RUNNERS.items()):
            claims._RUNNERS[cid] = self._wrap(runner, "claims", f"claims.{cid}")

    def _wrap(self, fn, layer: str, site: str):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, site, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[6] = _info(layer, site, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> list[list]:
        """Spans with times relative to the tracer's creation."""
        return [[*s[:2], s[2] - self.t0, s[3] - self.t0, *s[4:]] for s in self.spans]


def summarize(spans: list[list]) -> dict:
    """Additive per-layer totals of one batch of spans.

    ``self`` time is a span's duration minus that of its direct children."""
    totals: dict = {"sites": {}, "codes": []}
    child_secs = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child_secs[s[4]] += s[3] - s[2]

    def add(key: str, value) -> None:
        totals[key] = totals.get(key, 0) + value

    for i, (layer, site, start, end, _, _, info) in enumerate(spans):
        totals["sites"][site] = totals["sites"].get(site, 0) + 1
        add(f"{layer}.calls", 1)
        add(f"{layer}.secs", end - start)
        add(f"{layer}.self_secs", end - start - child_secs[i])
        if layer == "claims":
            add(f"{site}.secs", end - start)
        elif layer == "fas":
            add("fas.dp_cells", info)
        elif layer == "packing":
            add("packing.nodes", info[0])
            add("packing.optimal", int(info[1]))
        elif layer == "enumeration":
            totals["codes"].append(info)
        elif info is not None:
            add("flow.value_sum", info)
    return totals


def merge(a: dict, b: dict) -> dict:
    """Sum two ``summarize`` results."""
    out = {"sites": dict(a["sites"]), "codes": a["codes"] + b["codes"]}
    for site, calls in b["sites"].items():
        out["sites"][site] = out["sites"].get(site, 0) + calls
    for key in set(a) | set(b):
        if key not in ("sites", "codes"):
            out[key] = a.get(key, 0) + b.get(key, 0)
    return out
