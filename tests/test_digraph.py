import pytest
from hypothesis import given, settings, strategies as st

from arcpack.digraph import (
    Digraph,
    backward_arcs,
    bits,
    format_graph,
    is_eulerian,
    parse_graph,
    scc_masks,
    second_out_neighborhood,
    topological_order,
)
from arcpack.enumeration import second_neighborhood_fail
from arcpack.flow import max_cycles_through, min_arc_cover_through
from arcpack.instances import random_oriented, random_tournament
from oracles import (
    hamiltonian_path,
    hamiltonian_path_exists,
    in_rows_reference,
    parse_graph_reference,
    random_digraph,
    relabel,
    reverse,
    scc_brute,
    second_out_brute,
    topological_order_reference,
    without_arcs,
)


def digraphs(max_n=8, p=0.4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            random_digraph, st.just(n), st.just(p), st.integers(0, 2**32 - 1)
        )
    )


class TestConstruction:
    def test_from_arcs_roundtrip(self):
        d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
        assert d.arcs() == [(0, 1), (1, 2), (2, 0), (3, 0)]
        assert d.arc_count() == 4
        assert d.has_arc(2, 0) and not d.has_arc(0, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph.from_arcs(3, [(1, 1)])
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(2, [0b10, 0b10])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph.from_arcs(3, [(0, 3)])
        with pytest.raises(ValueError, match="mentions vertices"):
            Digraph(2, [0b100, 0])

    def test_rejects_duplicate_arc(self):
        with pytest.raises(ValueError, match="duplicate"):
            Digraph.from_arcs(3, [(0, 1), (0, 1)])

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            Digraph(0, [])
        with pytest.raises(ValueError):
            Digraph(65, [0] * 65)
        with pytest.raises(ValueError, match="rows"):
            Digraph(3, [0, 0])

    def test_two_cycle_is_allowed(self):
        d = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        assert d.out[0] & d.inn[0]  # not oriented
        assert not d.is_tournament()

    def test_degrees_and_neighbors(self):
        d = Digraph.from_arcs(4, [(0, 1), (0, 2), (3, 1)])
        assert d.out_degree(0) == 2 and d.in_degree(1) == 2
        assert list(bits(d.out[0])) == [1, 2]
        assert list(bits(d.inn[1])) == [0, 3]
        assert d.min_out_degree() == 0


# Orders from 1 to the 64-vertex cap, on both sides of every power of two.
TWO_POWER_EDGES = (1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64)


class TestInRows:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_matches_per_arc_reference(self, n, p, seed):
        d = random_digraph(n, p, seed)
        assert d.inn == in_rows_reference(list(d.out))

    @pytest.mark.parametrize("n", TWO_POWER_EDGES)
    def test_empty_and_full(self, n):
        full = (1 << n) - 1
        assert Digraph(n, [0] * n).inn == (0,) * n
        complete = [full ^ (1 << v) for v in range(n)]
        assert Digraph(n, complete).inn == tuple(complete)

    @pytest.mark.parametrize("n", TWO_POWER_EDGES)
    def test_two_cycles_and_tournaments(self, n):
        for d in (random_digraph(n, 0.5, n), random_tournament(n, n)):
            assert d.inn == in_rows_reference(list(d.out))
            assert Digraph(n, d.inn).inn == d.out

    def test_flow_queries_never_build_them(self):
        # cycles through each vertex and the matching cut read only the
        # out-rows, so a graph parsed for them keeps its in-rows unbuilt
        for g in (random_tournament(64, 0), random_oriented(64, 0.1, 31)):
            d = parse_graph(format_graph(g))
            for v in range(d.n):
                max_cycles_through(d, v)
                min_arc_cover_through(d, v)
            assert d._inn is None


class TestDerivedGraphs:
    def test_induced_keeps_labels(self):
        d = Digraph.from_arcs(5, [(0, 3), (3, 4), (4, 0), (1, 2)])
        sub, old = d.induced([0, 3, 4])
        assert old == (0, 3, 4)
        assert sub.arcs() == [(0, 1), (1, 2), (2, 0)]
        with pytest.raises(ValueError):
            d.induced([])
        with pytest.raises(ValueError):
            d.induced([0, 9])

    def test_relabeled_bijection(self):
        # the metamorphic tests' relabeling oracle
        d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        assert relabel(d, [2, 0, 1]).arcs() == [(0, 1), (2, 0)]
        with pytest.raises(ValueError):
            relabel(d, [0, 0, 1])

    @settings(max_examples=60, deadline=None)
    @given(digraphs())
    def test_transpose_involution(self, d):
        assert reverse(reverse(d)) == d
        assert reverse(d).arc_count() == d.arc_count()

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=6), st.randoms(use_true_random=False))
    def test_relabel_preserves_acyclicity(self, d, rnd):
        perm = list(range(d.n))
        rnd.shuffle(perm)
        assert (topological_order(relabel(d, perm)) is None) == (topological_order(d) is None)


class TestOrderings:
    def test_backward_arcs_identity_order(self):
        d = Digraph.from_arcs(3, [(0, 1), (2, 0), (1, 2)])
        assert backward_arcs(d, (0, 1, 2)) == frozenset({(2, 0)})
        assert backward_arcs(d, (2, 0, 1)) == frozenset({(1, 2)})
        with pytest.raises(ValueError):
            backward_arcs(d, (0, 1))

    def test_topological_order_smallest_first(self):
        d = Digraph.from_arcs(4, [(2, 0), (3, 0), (0, 1)])
        assert topological_order(d) == (2, 3, 0, 1)

    def test_topological_order_none_on_cycle(self):
        d = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        assert topological_order(d) is None

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([0.1, 0.25, 0.4, 0.7]).flatmap(lambda p: digraphs(11, p)),
        st.randoms(use_true_random=False),
    )
    def test_topological_order_matches_heap_kahn(self, d, rnd):
        # the graph itself (often cyclic) and an acyclic part of it: the
        # arcs forward under a random ordering, so the order is not 0..n-1
        perm = list(range(d.n))
        rnd.shuffle(perm)
        dag = without_arcs(d, backward_arcs(d, perm))
        for g in (d, dag):
            assert topological_order(g) == topological_order_reference(g)
        assert topological_order(dag) is not None

    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_removing_backward_arcs_acyclifies(self, d):
        order = tuple(range(d.n))
        assert topological_order(without_arcs(d, backward_arcs(d, order))) is not None


class TestNeighborhoods:
    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_second_neighborhood_matches_brute(self, d):
        for v in range(d.n):
            assert second_out_neighborhood(d, v) == second_out_brute(d, v)

    def test_second_neighborhood_range_check(self):
        d = Digraph.from_arcs(2, [(0, 1)])
        with pytest.raises(ValueError):
            second_out_neighborhood(d, 2)

    def test_second_neighborhood_witness(self):
        # in a 2-cycle each vertex's only second out-neighbor is itself
        assert second_neighborhood_fail(Digraph.from_arcs(2, [(0, 1), (1, 0)]))
        assert not second_neighborhood_fail(Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]))


class TestConnectivity:
    def test_cycle_is_strong_and_eulerian(self):
        c = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert len(scc_masks(c)) == 1
        assert is_eulerian(c)

    def test_balanced_but_disconnected_is_not_eulerian(self):
        # two vertex-disjoint 2-cycles: every degree balances
        d = Digraph.from_arcs(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert len(scc_masks(d)) == 2
        assert not is_eulerian(d)

    def test_unbalanced_is_not_eulerian(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        assert not is_eulerian(d)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([0.15, 0.3, 0.5]).flatmap(lambda p: digraphs(8, p)))
    def test_scc_masks_match_mutual_reachability(self, d):
        masks = scc_masks(d)
        covered = 0
        for m in masks:
            assert m and not m & covered
            covered |= m
        assert covered == (1 << d.n) - 1
        assert {frozenset(bits(m)) for m in masks} == scc_brute(d)


class TestHamiltonianPath:
    def test_path_found_on_transitive(self):
        d = Digraph.from_arcs(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert hamiltonian_path(d) == (0, 1, 2, 3)

    def test_no_path(self):
        d = Digraph.from_arcs(3, [(0, 1), (0, 2)])
        assert hamiltonian_path(d) is None

    def test_single_vertex(self):
        assert hamiltonian_path(Digraph(1, [0])) == (0,)

    def test_cap(self):
        with pytest.raises(ValueError, match="at most 24"):
            hamiltonian_path(Digraph(25, [0] * 25))

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=6, p=0.35))
    def test_matches_permutation_brute(self, d):
        path = hamiltonian_path(d)
        if path is None:
            assert not hamiltonian_path_exists(d)
        else:
            assert sorted(path) == list(range(d.n))
            assert all(d.has_arc(path[i], path[i + 1]) for i in range(d.n - 1))


class TestTextFormat:
    def test_parse_with_comments_and_blanks(self):
        d = parse_graph("# a comment\n\n3 2\n0 1\n\n# another\n1 2\n")
        assert d.arcs() == [(0, 1), (1, 2)]

    def test_format_parse_roundtrip(self, paper_T):
        assert parse_graph(format_graph(paper_T)) == paper_T

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("", "empty"),
            ("3\n", "header"),
            ("3 2\n0 1\n", "2 arcs but 1"),
            ("2 1\n0 x\n", "integers"),
            ("2 1\n0 1 2\n", "arc line"),
            ("2 1\n0 2\n", "invalid graph"),
            # int() reads these labels: an underscore, a plus or a minus
            # sign, Arabic-Indic two, fullwidth three
            ("11 1\n0 1_0\n", "^line 2: arc endpoints must be integers$"),
            ("3 1\n0 +2\n", "^line 2: arc endpoints must be integers$"),
            ("3 1\n-1 2\n", "^line 2: arc endpoints must be integers$"),
            ("3 1\n0 \u0662\n", "^line 2: arc endpoints must be integers$"),
            ("\uff13 1\n0 1\n", "^line 1: header must be two integers$"),
        ],
    )
    def test_parse_errors(self, text, msg):
        with pytest.raises(ValueError, match=msg):
            parse_graph(text)

    @pytest.mark.parametrize(
        "arc_lines,msg",
        [
            ("0 1\n0 1\n0 5\n", "duplicate arc (0, 1)"),
            ("0 5\n0 1\n0 1\n", "arc (0, 5) out of range for n=3"),
            ("0 1\n0 1\n2 2\n", "duplicate arc (0, 1)"),
            ("2 2\n0 1\n0 1\n", "self-loop (2, 2) not allowed"),
        ],
    )
    def test_first_bad_arc_in_file_order(self, arc_lines, msg):
        with pytest.raises(ValueError) as info:
            parse_graph("3 3\n" + arc_lines)
        assert str(info.value) == f"invalid graph: {msg}"

    @settings(max_examples=60, deadline=None)
    @given(digraphs())
    def test_roundtrip_random(self, d):
        assert parse_graph(format_graph(d)) == d


def _spell(v: int, how: str) -> str:
    """A label spelled one of several ways that ``int`` reads; only the
    canonical and the zero-padded spellings are ASCII decimal numbers."""
    if how == "padded":
        return f"0{v}"
    if how == "plus":
        return f"+{v}"
    if how == "arabic":
        return "".join(chr(0x660 + int(c)) if c.isdigit() else c for c in str(v))
    if how == "underscore" and v >= 10:
        return f"{v // 10}_{v % 10}"
    return str(v)


SPELLINGS = ("canonical",) * 6 + ("padded", "plus", "arabic", "underscore")


FAULTS = ("self-loop", "low", "high", "duplicate", "count", "malformed")


@st.composite
def graph_texts(draw) -> str:
    """Edge-list texts with comments, blank lines, CRLF, tabs and odd
    spellings, and up to two faults at random places."""
    n = draw(st.integers(1, 9) if draw(st.integers(0, 7)) else st.sampled_from([0, 63, 64, 65]))
    vertex = st.integers(0, max(n - 1, 0))
    arcs = draw(
        st.lists(st.tuples(vertex, vertex).filter(lambda a: a[0] != a[1]), max_size=10, unique=True)
        if n > 1 else st.just([])
    )
    miscount = 0
    malformed = []
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        u = draw(vertex)
        at = draw(st.integers(0, len(arcs)))
        if fault == "self-loop":
            arcs.insert(at, (u, u))
        elif fault == "low":
            arcs.insert(at, (-1, u))
        elif fault == "high":
            arcs.insert(at, (u, draw(st.sampled_from([n, 64]))))
        elif fault == "duplicate" and arcs:
            arcs.insert(at, draw(st.sampled_from(arcs)))
        elif fault == "count":
            miscount = draw(st.sampled_from([-1, 1]))
        elif fault == "malformed":
            malformed.append(draw(st.sampled_from(["0 1 2", "7", "x y", "1 -"])))
    m = len(arcs) + miscount

    # Half the texts spell every label canonically, so that their faults
    # reach the bulk pass.
    odd = draw(st.booleans())

    def spell(v: int) -> str:
        return _spell(v, draw(st.sampled_from(SPELLINGS))) if odd else str(v)

    def sep() -> str:
        return draw(st.sampled_from([" ", " ", "\t", "  ", " \t "]))

    lines = [f"{spell(n)}{sep()}{spell(m)}"]
    lines += [f"{spell(u)}{sep()}{spell(v)}" for u, v in arcs]
    benign = draw(st.lists(st.sampled_from(["", "   ", "# note", "  # 0 1", "#7 x"]), max_size=3))
    for extra in malformed + benign:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    lines = [draw(st.sampled_from(["", " ", "\t"])) + line for line in lines]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def _parsed(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestParseMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(graph_texts())
    def test_fuzzed_texts(self, text):
        assert _parsed(parse_graph, text) == _parsed(parse_graph_reference, text)

    @pytest.mark.parametrize(
        "text",
        [
            "# c\r\n\r\n3 2\r\n0\t1\r\n  1  2 \r\n",
            "8 1\n07 1\n",
            "4 1\n+3 1\n",
            "4 1\n\u0663 1\n",
            "11 1\n1_0 0\n",
            "11 1\n0 1_0\n",
            "3 1\n0 +2\n",
            "3 1\n0 \u0662\n",
            "\uff13 1\n0 1\n",
            "007 1\n0 1\n",
            "3 01\n0 1\n",
            "64 1\n63 0\n",
            "64 1\n64 0\n",
            "65 0\n",
            "65 1\n64 0\n",
            "3 2\n0 1\n0 1\n",
            "3 2\n0 1\n1 1\n",
            "3 1\n0 3\n",
            "3 1\n3 0\n",
            "3 3\n0 1\n",
            "3 1\n0 1\n1 2\n",
            "3 3\n0 1\n0 1\n2 5\n",
            "3 3\n0 1\n0 5\n0 x\n",
            "3 2\n1 1\n0 1 2\n",
            "3 0\n",
            "0 0\n",
        ],
    )
    def test_fixed_texts(self, text):
        assert _parsed(parse_graph, text) == _parsed(parse_graph_reference, text)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_formatted_graphs(self, n, p, seed):
        text = format_graph(random_digraph(n, p, seed))
        assert parse_graph(text) == parse_graph_reference(text)


def test_bits_ascending():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []
