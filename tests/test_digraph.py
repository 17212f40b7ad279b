import pytest
from hypothesis import given, settings, strategies as st

from arcpack.digraph import (
    Digraph,
    backward_arcs,
    bits,
    format_graph,
    has_second_neighborhood_witness,
    is_acyclic,
    is_eulerian,
    is_strongly_connected,
    parse_graph,
    scc_masks,
    second_out_neighborhood,
    topological_order,
)
from oracles import (
    hamiltonian_path,
    hamiltonian_path_exists,
    random_digraph,
    scc_brute,
    second_out_brute,
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
        assert not d.is_oriented()
        assert not d.is_tournament()

    def test_degrees_and_neighbors(self):
        d = Digraph.from_arcs(4, [(0, 1), (0, 2), (3, 1)])
        assert d.out_degree(0) == 2 and d.in_degree(1) == 2
        assert d.out_neighbors(0) == (1, 2)
        assert d.in_neighbors(1) == (0, 3)
        assert d.min_out_degree() == 0


class TestDerivedGraphs:
    def test_without_with_arcs(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        smaller = d.without_arcs([(1, 2)])
        assert smaller.arcs() == [(0, 1), (2, 0)]
        assert smaller.with_arcs([(1, 2)]) == d
        with pytest.raises(ValueError, match="not present"):
            d.without_arcs([(2, 1)])
        with pytest.raises(ValueError, match="already present"):
            d.with_arcs([(0, 1)])

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
        d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        r = d.relabeled([2, 0, 1])
        assert r.arcs() == [(0, 1), (2, 0)]
        with pytest.raises(ValueError):
            d.relabeled([0, 0, 1])

    @settings(max_examples=60, deadline=None)
    @given(digraphs())
    def test_transpose_involution(self, d):
        assert d.transpose().transpose() == d
        assert d.transpose().arc_count() == d.arc_count()

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=6), st.randoms(use_true_random=False))
    def test_relabel_preserves_acyclicity(self, d, rnd):
        perm = list(range(d.n))
        rnd.shuffle(perm)
        assert is_acyclic(d.relabeled(perm)) == is_acyclic(d)


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
        assert not is_acyclic(d)

    @settings(max_examples=80, deadline=None)
    @given(digraphs())
    def test_removing_backward_arcs_acyclifies(self, d):
        order = tuple(range(d.n))
        assert is_acyclic(d.without_arcs(backward_arcs(d, order)))


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
        assert not has_second_neighborhood_witness(Digraph.from_arcs(2, [(0, 1), (1, 0)]))
        assert has_second_neighborhood_witness(Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]))


class TestConnectivity:
    def test_cycle_is_strong_and_eulerian(self):
        c = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert is_strongly_connected(c)
        assert is_eulerian(c)

    def test_balanced_but_disconnected_is_not_eulerian(self):
        # two vertex-disjoint 2-cycles: every degree balances
        d = Digraph.from_arcs(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert not is_strongly_connected(d)
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
        assert is_strongly_connected(d) == (len(masks) == 1)


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


def test_bits_ascending():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []
