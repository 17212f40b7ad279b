import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arcpack.claims import universal_vertex_cycle_counts
from arcpack.digraph import Digraph
from arcpack.flow import (
    UniversalVertexParams,
    max_cycles_through,
    min_arc_cover_through,
    universal_vertex_params,
)
from arcpack.instances import random_oriented, random_tournament, vertex_of
from arcpack.packing import is_valid_packing
from oracles import (
    cycles_through_brute,
    golden_graph,
    random_digraph,
    simple_cycles_through,
)


class TestMaxCyclesThrough:
    def test_T11_vertex_k(self, paper_T11):
        k = vertex_of(paper_T11, "k")
        value, cycles = max_cycles_through(paper_T11, k)
        assert value == 5
        assert len(cycles) == 5
        assert is_valid_packing(paper_T11, cycles)
        assert all(k in c for c in cycles)
        # triangles alone cannot reach 5 here: some witness is longer
        assert any(len(c) > 3 for c in cycles)

    def test_matches_brute(self):
        rng = random.Random(41)
        for _ in range(100):
            d = random_digraph(
                rng.randrange(2, 7), rng.uniform(0.3, 0.6), rng.randrange(1 << 32)
            )
            for v in range(d.n):
                value, cycles = max_cycles_through(d, v)
                assert value == cycles_through_brute(d, v)
                assert is_valid_packing(d, cycles)
                assert all(v in c for c in cycles)

    def test_certificate_duality_on_dense_instances(self):
        # cut and packing of equal size prove the value without any
        # reference solver, so density costs nothing here
        rng = random.Random(43)
        for _ in range(60):
            d = random_digraph(
                rng.randrange(3, 8), rng.uniform(0.6, 0.9), rng.randrange(1 << 32)
            )
            v = rng.randrange(d.n)
            value, cycles = max_cycles_through(d, v)
            cut = min_arc_cover_through(d, v)
            assert len(cut) == value
            assert is_valid_packing(d, cycles) and all(v in c for c in cycles)
            assert not simple_cycles_through(d.without_arcs(cut), v)

    def test_no_cycle_through_source(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        assert max_cycles_through(d, 0) == (0, ())

    def test_vertex_range(self, paper_T7):
        with pytest.raises(ValueError):
            max_cycles_through(paper_T7, 7)


class TestMinArcCover:
    def test_T11_cut_is_out_star(self, paper_T11):
        k = vertex_of(paper_T11, "k")
        cut = min_arc_cover_through(paper_T11, k)
        assert cut == frozenset((k, w) for w in paper_T11.out_neighbors(k))

    def test_duality_and_coverage(self):
        rng = random.Random(42)
        for _ in range(80):
            d = random_digraph(
                rng.randrange(2, 7), rng.uniform(0.3, 0.8), rng.randrange(1 << 32)
            )
            for v in range(d.n):
                value, _ = max_cycles_through(d, v)
                cut = min_arc_cover_through(d, v)
                assert len(cut) == value  # Menger after vertex splitting
                assert not simple_cycles_through(d.without_arcs(cut), v)


class TestUniversalVertexParams:
    def test_non_universal_vertex_is_none(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        assert universal_vertex_params(d, 0) is None  # 0-2 not adjacent

    def test_tournament_params(self, paper_T11):
        k = vertex_of(paper_T11, "k")
        p = universal_vertex_params(paper_T11, k)
        assert p == UniversalVertexParams(
            v0=k, out_degree=5, min_out_over_out=5, min_out_over_in=5
        )
        assert p.guarantee_applies()

    def test_boundary_arithmetic(self):
        # 2d <= a + b + 1 must hold exactly, not approximately
        assert UniversalVertexParams(0, 3, 3, 2).guarantee_applies()  # 6 <= 6
        assert not UniversalVertexParams(0, 3, 3, 1).guarantee_applies()  # 6 > 5
        assert not UniversalVertexParams(0, 4, 3, 9).guarantee_applies()  # d > a
        # empty out-neighborhood side: minimum over nothing imposes nothing
        assert UniversalVertexParams(0, 0, None, 0).guarantee_applies()

    def test_sink_universal_vertex(self):
        # vertex 2 sees both others, out-degree 0: hypothesis holds trivially
        d = Digraph.from_arcs(3, [(0, 2), (1, 2), (0, 1)])
        p = universal_vertex_params(d, 2)
        assert p is not None
        assert p.out_degree == 0
        assert p.guarantee_applies()
        assert max_cycles_through(d, 2)[0] == 0


class TestGuaranteeSweeps:
    def test_builtin_tournaments_have_no_violations(self, paper_T, paper_T11):
        for t in (paper_T, paper_T11):
            checked, violations = universal_vertex_cycle_counts([t])
            assert violations == 0
            assert checked >= 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    def test_random_tournaments(self, n, seed):
        assert universal_vertex_cycle_counts([random_tournament(n, seed)])[1] == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2**32 - 1))
    def test_random_oriented(self, n, seed):
        assert universal_vertex_cycle_counts([random_oriented(n, 0.5, seed)])[1] == 0

    def test_counts_match_brute(self):
        # the counts re-derived vertex by vertex, with the brute-force
        # cycle packing in place of max flow
        rng = random.Random(47)
        graphs = [
            random_tournament(rng.randrange(2, 8), rng.randrange(1 << 32)) for _ in range(40)
        ]
        graphs += [
            random_oriented(rng.randrange(2, 8), rng.uniform(0.4, 0.9), rng.randrange(1 << 32))
            for _ in range(40)
        ]
        applies = [
            (d, p)
            for d in graphs
            for p in (universal_vertex_params(d, v) for v in range(d.n))
            if p is not None and p.guarantee_applies()
        ]
        violations = sum(cycles_through_brute(d, p.v0) < p.out_degree for d, p in applies)
        assert universal_vertex_cycle_counts(graphs) == (len(applies), violations)
        assert len(applies) > 0


GOLDEN = json.loads((Path(__file__).parent / "golden_flows.json").read_text())


class TestGoldenFlows:
    """``golden_flows.json`` holds value, witness cycles and sorted cut
    at every vertex, recorded with the dense-matrix Edmonds-Karp that the
    bitset rows replaced.  The oriented and the 2-cycle graph each need
    an augmenting path that cancels opposing flow."""

    @pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c['kind']}-{c['n']}-{c['seed']}")
    def test_same_flows(self, case):
        d = golden_graph(case)
        for v, (value, cycles, cut) in enumerate(case["flows"]):
            got_value, got_cycles = max_cycles_through(d, v)
            assert (got_value, [list(c) for c in got_cycles]) == (value, cycles), v
            assert [list(a) for a in sorted(min_arc_cover_through(d, v))] == cut, v


def _graphs():
    n = st.integers(8, 40)
    seed = st.integers(0, 2**32 - 1)
    return st.one_of(
        st.builds(random_tournament, n, seed),
        st.builds(random_oriented, n, st.floats(0.05, 0.5), seed),
        st.builds(random_digraph, n, st.floats(0.05, 0.4), seed),
    )


def _on_cycle_through(d, v0):
    """Whether ``v0`` reaches itself again along the arcs of ``d``."""
    todo = list(d.out_neighbors(v0))
    seen = set(todo)
    while todo:
        for w in d.out_neighbors(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return v0 in seen


class TestIndependentChecks:
    """Checks that need no reference solver, at orders above the
    brute-force oracles' reach."""

    @settings(max_examples=100, deadline=None)
    @given(_graphs(), st.data())
    def test_certificates_and_invariance(self, d, data):
        v0 = data.draw(st.integers(0, d.n - 1))
        value, cycles = max_cycles_through(d, v0)
        cut = min_arc_cover_through(d, v0)
        assert value == len(cycles) == len(cut)
        assert is_valid_packing(d, cycles)
        assert all(v0 in c for c in cycles)
        assert cut <= set(d.arcs())
        assert not _on_cycle_through(d.without_arcs(cut), v0)
        perm = data.draw(st.permutations(range(d.n)))
        assert max_cycles_through(d.relabeled(perm), perm[v0])[0] == value
        assert max_cycles_through(d.transpose(), v0)[0] == value
