import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arcpack import flow
from arcpack.claims import universal_vertex_cycle_counts
from arcpack.digraph import Digraph, bits
from arcpack.flow import (
    guaranteed_cycles_through,
    max_cycles_through,
    min_arc_cover_through,
)
from arcpack.instances import random_oriented, random_tournament, vertex_of
from arcpack.packing import is_valid_packing, packing_violation
from oracles import (
    cycles_through_brute,
    golden_graph,
    random_digraph,
    relabel,
    reverse,
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

    def test_decomposition_drops_a_closed_detour(self):
        # the maximum flow on this tournament carries a circulation that
        # avoids vertex 6; the decomposition walk enters it and must drop it
        d = Digraph(9, (88, 173, 409, 144, 194, 477, 142, 1, 219))
        value, cycles = max_cycles_through(d, 6)
        assert value == 4 == cycles_through_brute(d, 6)
        assert all(6 in c and len(set(c)) == len(c) for c in cycles)
        assert packing_violation(d, cycles) is None
        assert len(min_arc_cover_through(d, 6)) == 4

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
        assert cut == frozenset((k, w) for w in bits(paper_T11.out[k]))

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


def _degrees(d, v0):
    """(d+(v0), a, b) when ``v0`` is adjacent to every other vertex, else
    None; a and b are the least out-degrees over the out- and the
    in-neighbors of ``v0``, None over an empty neighborhood."""
    others = [w for w in range(d.n) if w != v0]
    if not all(d.has_arc(v0, w) or d.has_arc(w, v0) for w in others):
        return None
    a = min((d.out_degree(w) for w in others if d.has_arc(v0, w)), default=None)
    b = min((d.out_degree(w) for w in others if d.has_arc(w, v0)), default=None)
    return d.out_degree(v0), a, b


def _guarantee_reference(d, v0):
    """The guarantee read off its definition: d+(v0) <= min(a, (a+b+1)/2)
    in exact fractions, b infinite without in-neighbors, and the vacuous
    0 at out-degree 0."""
    degrees = _degrees(d, v0)
    if degrees is None:
        return None
    k, a, b = degrees
    if k == 0:
        return 0
    bound = a if b is None else min(a, Fraction(a + b + 1, 2))
    return k if k <= bound else None


def _boundary(k, a, b):
    """Which boundary of the condition the degrees sit on, if any."""
    if k == 0:
        return "d=0"
    if k > a:
        return "d>a"
    if b is not None and 2 * k - a - b in (1, 2):
        return f"2d=a+b+{2 * k - a - b}"
    return None


class TestUniversalVertexParams:
    """``guaranteed_cycles_through`` against the degree parameters d+, a
    and b of a vertex adjacent to all others."""

    def test_non_universal_vertex_is_none(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        assert guaranteed_cycles_through(d, 0) is None  # 0-2 not adjacent

    def test_tournament_params(self, paper_T11):
        # out-degree 5 and every out-degree 5: d+ = a, 2d+ <= a + b + 1
        k = vertex_of(paper_T11, "k")
        assert _degrees(paper_T11, k) == (5, 5, 5)
        assert guaranteed_cycles_through(paper_T11, k) == 5

    def test_sink_universal_vertex(self):
        # vertex 2 sees both others, out-degree 0: hypothesis holds trivially
        d = Digraph.from_arcs(3, [(0, 2), (1, 2), (0, 1)])
        assert guaranteed_cycles_through(d, 2) == 0
        assert max_cycles_through(d, 2)[0] == 0

    def test_vertex_range(self, paper_T7):
        with pytest.raises(ValueError, match="out of range"):
            guaranteed_cycles_through(paper_T7, 7)

    def test_two_cycle_is_none(self):
        # vertex 1 meets the degree condition with d+ = 3, yet lies on
        # only 2 arc-disjoint cycles: the condition is for oriented graphs
        d = Digraph(5, (30, 13, 25, 21, 15))
        assert max_cycles_through(d, 1)[0] == 2
        assert guaranteed_cycles_through(d, 1) is None

    def test_digraphs_with_two_cycles(self):
        # every guarantee given on seeded digraphs is met, including on
        # those whose 2-cycles miss the vertex asked about
        two_cycles = applied = 0
        for n in range(2, 9):
            for p in (0.3, 0.5, 0.7, 0.9):
                for seed in range(60):
                    d = random_digraph(n, p, seed)
                    two_cycles += any(o & i for o, i in zip(d.out, d.inn))
                    for v in range(n):
                        k = guaranteed_cycles_through(d, v)
                        if k is not None:
                            applied += 1
                            assert max_cycles_through(d, v)[0] >= k, (n, p, seed, v)
        assert two_cycles > 0 and applied > 0

    def test_boundary_arithmetic(self):
        # seeded tournaments of order 3..9 meet every boundary of the
        # condition within 100 graphs; each vertex is checked against
        # the definition, and each boundary gets its expected verdict
        rng = random.Random(0)
        seen = {}
        for _ in range(100):
            t = random_tournament(rng.randrange(3, 10), rng.randrange(1 << 32))
            for v in range(t.n):
                got = guaranteed_cycles_through(t, v)
                assert got == _guarantee_reference(t, v)
                degrees = _degrees(t, v)
                seen.setdefault(_boundary(*degrees), []).append((got, degrees[0]))
        assert {"2d=a+b+1", "2d=a+b+2", "d>a", "d=0"} <= set(seen)
        assert all(got == k for got, k in seen["2d=a+b+1"])
        assert all(got is None for got, _ in seen["2d=a+b+2"] + seen["d>a"])
        assert all(got == 0 for got, _ in seen["d=0"])


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
            (d, v, k)
            for d in graphs
            for v in range(d.n)
            if (k := guaranteed_cycles_through(d, v)) is not None
        ]
        violations = sum(cycles_through_brute(d, v) < k for d, v, k in applies)
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


class TestSharedFlow:
    """Both public functions read a one-entry memo of the last flow."""

    def test_repeat_query_gives_the_same_cycles(self, paper_T11):
        # the decomposition consumes flow rows; the memo must keep its own
        k = vertex_of(paper_T11, "k")
        first = max_cycles_through(paper_T11, k)
        # checked before the repeat, which would loop on consumed rows
        assert flow._max_flow(paper_T11, k) == flow._edmonds_karp(paper_T11, k)
        assert max_cycles_through(paper_T11, k) == first
        assert len(min_arc_cover_through(paper_T11, k)) == first[0] == 5

    def test_graphs_in_rotation_at_one_vertex(self):
        # the same v0 on different graphs must not share an entry
        graphs = [(golden_graph(case), case["flows"][0]) for case in GOLDEN]
        for d, (value, cycles, cut) in graphs * 2:
            got_value, got_cycles = max_cycles_through(d, 0)
            assert (got_value, [list(c) for c in got_cycles]) == (value, cycles)
            assert [list(a) for a in sorted(min_arc_cover_through(d, 0))] == cut


@pytest.fixture
def searches(monkeypatch):
    """Records each run of the flow search, starting from an empty memo
    and leaving one behind."""
    calls = []
    real = flow._edmonds_karp

    def counted(d, v0):
        calls.append(v0)
        return real(d, v0)

    monkeypatch.setattr(flow, "_edmonds_karp", counted)
    flow._max_flow.cache_clear()
    yield calls
    flow._max_flow.cache_clear()


class TestOneFlowPerQuery:
    def test_both_functions_on_every_vertex(self, paper_T11, searches):
        for v in range(paper_T11.n):
            max_cycles_through(paper_T11, v)
            min_arc_cover_through(paper_T11, v)
        assert searches == list(range(paper_T11.n))

    def test_repeated_query_runs_no_search(self, paper_T11, searches):
        fresh = flow._edmonds_karp(paper_T11, 0)
        searches.clear()
        for _ in range(3):
            max_cycles_through(paper_T11, 0)
            min_arc_cover_through(paper_T11, 0)
            # a consumed entry would make the next repeat loop
            assert flow._max_flow(paper_T11, 0) == fresh
        assert searches == [0]

    def test_cut_check_runs_on_a_hit(self, paper_T11, searches, monkeypatch):
        real = flow._edmonds_karp

        def inflated(d, v0):
            value, *network = real(d, v0)
            return value + 1, *network

        monkeypatch.setattr(flow, "_edmonds_karp", inflated)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="residual cut"):
                min_arc_cover_through(paper_T11, 0)
        assert searches == [0]

    def test_flow_rows_short_of_the_value_raise(self, paper_T11, monkeypatch):
        # value 1 but no flow arc out of v0: the decomposition walk has
        # nowhere to go and must say so rather than spin
        empty = (0,) * (paper_T11.n + 1)
        monkeypatch.setattr(flow, "_max_flow", lambda d, v0: (1, empty, empty, 0))
        with pytest.raises(RuntimeError, match="no arc out of 0"):
            max_cycles_through(paper_T11, 0)


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
    todo = list(bits(d.out[v0]))
    seen = set(todo)
    while todo:
        for w in bits(d.out[todo.pop()]):
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
        assert max_cycles_through(relabel(d, perm), perm[v0])[0] == value
        assert max_cycles_through(reverse(d), v0)[0] == value
