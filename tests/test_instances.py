import pytest
from hypothesis import given, settings, strategies as st

from arcpack.digraph import backward_arcs, is_acyclic, is_eulerian
from arcpack.instances import (
    BUILTIN_NAMES,
    builtin,
    label_of,
    paper_T,
    paper_T_backward_arcs,
    random_oriented,
    random_tournament,
    transitive_tournament,
    triangle_family_T,
    vertex_of,
)


def _arcs_from_words(words):
    return {(vertex_of(paper_T(), a), vertex_of(paper_T(), b)) for a, b in words.split()}


class TestPaperT:
    def test_shape(self, paper_T):
        assert paper_T.n == 13
        assert paper_T.arc_count() == 78
        assert paper_T.is_tournament()

    def test_backward_arcs_exact(self, paper_T):
        expected = _arcs_from_words("ca ec ge ig ki mk ga ic ke mg ia me")
        assert backward_arcs(paper_T, range(13)) == expected
        assert paper_T_backward_arcs() == frozenset(expected)

    def test_backward_removal_acyclic(self, paper_T):
        assert is_acyclic(paper_T.without_arcs(paper_T_backward_arcs()))


class TestPaperTprime:
    def test_shape(self, paper_Tprime):
        assert paper_Tprime.n == 13
        assert paper_Tprime.arc_count() == 78
        assert paper_Tprime.is_tournament()

    def test_three_pairs_reversed(self, paper_T, paper_Tprime):
        flipped = {
            (u, v)
            for u, v in paper_T.arcs()
            if not paper_Tprime.has_arc(u, v)
        }
        assert flipped == _arcs_from_words("cm ck ak")
        assert backward_arcs(paper_Tprime, range(13)) == (
            paper_T_backward_arcs() | _arcs_from_words("mc kc ka")
        )


class TestPaperT7:
    def test_shape(self, paper_T7):
        assert paper_T7.n == 7
        assert paper_T7.arc_count() == 21
        assert paper_T7.is_tournament()

    def test_backward_arcs(self, paper_T7):
        expected = {
            (vertex_of(paper_T7, a), vertex_of(paper_T7, b))
            for a, b in "ca ec gd fb fa".split()
        }
        assert backward_arcs(paper_T7, range(7)) == expected


class TestPaperT11:
    def test_shape(self, paper_T11):
        assert paper_T11.n == 11
        assert paper_T11.arc_count() == 55
        assert paper_T11.is_tournament()

    def test_regular_and_eulerian(self, paper_T11):
        assert all(paper_T11.out_degree(v) == 5 for v in range(11))
        assert is_eulerian(paper_T11)

    def test_backward_count(self, paper_T11):
        assert len(backward_arcs(paper_T11, range(11))) == 17


class TestTriangleFamily:
    def test_eleven_triangles_on_arcs(self, paper_T):
        fam = triangle_family_T()
        assert len(fam) == 11
        for a, b, c in fam:
            assert paper_T.has_arc(a, b)
            assert paper_T.has_arc(b, c)
            assert paper_T.has_arc(c, a)

    def test_pairwise_arc_disjoint(self):
        seen = set()
        for c in triangle_family_T():
            for arc in zip(c, c[1:] + (c[0],)):
                assert arc not in seen
                seen.add(arc)
        assert len(seen) == 33


class TestBuiltins:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_named_instances_load(self, name):
        assert builtin(name).is_tournament()

    def test_transitive(self):
        t = builtin("transitive-9")
        assert t == transitive_tournament(9)
        assert t.is_tournament() and is_acyclic(t)

    @pytest.mark.parametrize(
        "bad",
        [
            "paper-X",
            "transitive-",
            "transitive-0",
            "x",
            # int() reads each of these; a size is ASCII digits only
            "transitive-\u0663",
            "transitive-+3",
            "transitive- 3",
            "transitive-3_0",
        ],
    )
    def test_unknown_name(self, bad):
        with pytest.raises(ValueError):
            builtin(bad)

    def test_labels(self, paper_T):
        assert label_of(0) == "a" and label_of(12) == "m"
        assert vertex_of(paper_T, "m") == 12
        with pytest.raises(ValueError):
            vertex_of(builtin("paper-T7"), "m")
        # one lower-case letter only: str.index would read "" as 0 and "bc" as 1
        for bad in ("", "bc", "A"):
            with pytest.raises(ValueError):
                vertex_of(paper_T, bad)


class TestRandomModels:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_tournament_properties(self, n, seed):
        t = random_tournament(n, seed)
        assert t.is_tournament()
        assert t == random_tournament(n, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 12),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_oriented_properties(self, n, p, seed):
        g = random_oriented(n, p, seed)
        assert g.is_oriented()
        assert g == random_oriented(n, p, seed)

    def test_oriented_extremes(self):
        assert random_oriented(6, 0.0, 1).arc_count() == 0
        assert random_oriented(6, 1.0, 1).is_tournament()

    def test_different_seeds_differ(self):
        # 36 pairs at n=9: identical draws are astronomically unlikely
        assert random_tournament(9, 1) != random_tournament(9, 2)
