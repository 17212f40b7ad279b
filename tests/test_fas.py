import json
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from arcpack import fas
from arcpack.digraph import Digraph, backward_arcs, bits, scc_masks, topological_order
from arcpack.fas import (
    DEADLINE_BLOCK,
    MAX_DP_VERTICES,
    BudgetExceeded,
    _subset_costs,
    enumerate_min_fas,
    feedback_arc_set_size,
    min_fas_path,
    min_feedback_arc_set,
    mindeg_lower_bound,
)
from arcpack.instances import (
    builtin,
    label_of,
    paper_T_backward_arcs,
    random_oriented,
    random_tournament,
)
from arcpack.packing import Budget, max_cycle_packing
from oracles import (
    golden_graph,
    hamiltonian_path,
    min_fas_sets_brute,
    nu_set_packing,
    random_digraph,
    relabel,
    reverse,
    subset_costs_reference,
    tau_perm,
    without_arcs,
)

KINDS = ("digraph", "oriented", "tournament")


def _graph(kind: str, n: int, p: float, seed: int) -> Digraph:
    return golden_graph({"kind": kind, "n": n, "p": p, "seed": seed})


def _graphs(max_n: int):
    """Digraphs with 2-cycles, oriented graphs and tournaments on 1..max_n vertices."""
    return st.builds(
        _graph, st.sampled_from(KINDS), st.integers(1, max_n), st.floats(0.2, 0.8),
        st.integers(0, 2**32 - 1),
    )


@st.composite
def _layered(draw) -> Digraph:
    """Two or three random parts joined only by arcs from earlier parts to
    later ones, labels shuffled: each strong component lies in one part,
    so there are at least two."""
    parts = draw(st.lists(_graphs(4), min_size=2, max_size=3))
    n = sum(g.n for g in parts)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [0] * n
    base = 0
    for g in parts:
        for u in range(g.n):
            later = sum(1 << v for v in range(base + g.n, n) if rng.random() < 0.5)
            rows[base + u] = g.out[u] << base | later
        base += g.n
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Digraph(n, rows), perm)


class TestMinFeedbackArcSet:
    @pytest.mark.parametrize(
        "name,tau",
        [
            ("paper-T", 12),
            ("paper-Tprime", 15),
            ("paper-T7", 5),
            ("paper-T11", 17),
            ("transitive-10", 0),
        ],
    )
    def test_builtin_values(self, name, tau):
        assert feedback_arc_set_size(builtin(name)) == tau

    def test_certificate_invariants(self, paper_T):
        res = min_feedback_arc_set(paper_T)
        assert res.tau == 12
        assert len(res.arcs) == 12
        assert res.arcs == backward_arcs(paper_T, res.ordering)
        assert topological_order(without_arcs(paper_T, res.arcs)) is not None

    def test_deterministic(self, paper_T7):
        a = min_feedback_arc_set(paper_T7)
        b = min_feedback_arc_set(paper_T7)
        assert a.ordering == b.ordering and a.arcs == b.arcs

    def test_vertex_cap(self):
        with pytest.raises(ValueError, match="^subset DP capped at 24 vertices, got 25$"):
            feedback_arc_set_size(Digraph(25, [0] * 25))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 7),
        st.floats(0.2, 0.8),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_permutation_brute(self, n, p, seed):
        d = random_digraph(n, p, seed)  # 2-cycles included
        res = min_feedback_arc_set(d)
        assert res.tau == tau_perm(d)
        assert res.arcs == backward_arcs(d, res.ordering)
        assert topological_order(without_arcs(d, res.arcs)) is not None

    def test_two_cycle_needs_one_arc(self):
        d = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        assert feedback_arc_set_size(d) == 1


class TestSubsetCostsTable:
    """The blocked table equals the cell-by-cell recurrence entry by entry;
    blocks have 2**7 cells, so n <= 7 is one block and n >= 8 has high
    vertices."""

    @settings(max_examples=120, deadline=None)
    @given(_graphs(13))
    def test_matches_reference(self, d):
        f = _subset_costs(d)
        assert f == subset_costs_reference(d)
        if d.n <= 6:
            assert f[-1] == tau_perm(d)

    @pytest.mark.parametrize("kind,n", [(k, n) for k in KINDS for n in (7, 8, 9)])
    def test_both_sides_of_block_width(self, kind, n):
        d = _graph(kind, n, 0.5, 1000 + n)
        assert _subset_costs(d) == subset_costs_reference(d)

    @pytest.mark.parametrize(
        "kind,n,p,seed", [("tournament", 16, None, 1), ("digraph", 18, 0.3, 5)]
    )
    def test_large(self, kind, n, p, seed):
        d = _graph(kind, n, p, seed)
        assert _subset_costs(d) == subset_costs_reference(d)

    def test_no_candidate_marker_fits_a_16_bit_field(self):
        # at the cap a cell holds at most n(n - 1) and a cost is below n;
        # the marker must exceed both together and stay below the guard bit
        n = MAX_DP_VERTICES
        assert fas._EMPTY > n * (n - 1) + n - 1
        assert fas._EMPTY < 1 << 15

    @pytest.mark.parametrize("n", range(8, 13))
    def test_densest_table(self, n):
        # a 2-cycle on every pair gives every cell its largest value
        full = (1 << n) - 1
        d = Digraph(n, [full ^ 1 << v for v in range(n)])
        f = _subset_costs(d)
        assert f == subset_costs_reference(d)
        assert f[full] == n * (n - 1) // 2

    def test_count_cache_stays_bounded(self):
        # the |row & lo| table is keyed by a row's 7 low bits only
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(3, 13)
            _subset_costs(random_digraph(n, rng.uniform(0.2, 0.9), rng.randrange(1 << 32)))
        assert fas._low_counts.cache_info().currsize <= 1 << 7


GOLDEN_FAS = json.loads((Path(__file__).parent / "golden_fas.json").read_text())


class TestGoldenFas:
    """``golden_fas.json`` holds τ, the ordering, its arcs and the first 50
    minimum FAS in sorted order (for n <= 16), recorded with the
    cell-by-cell table."""

    @pytest.mark.parametrize(
        "case", GOLDEN_FAS, ids=lambda c: f"{c['kind']}-{c['n']}-{c['seed']}"
    )
    def test_same_certificate(self, case):
        d = golden_graph(case)
        res = min_feedback_arc_set(d)
        assert res.tau == case["tau"]
        assert list(res.ordering) == case["ordering"]
        assert sorted(map(list, res.arcs)) == case["arcs"]
        if case["min_fas"] is not None:
            sets = enumerate_min_fas(d, 10_000)[:50]
            assert [sorted(map(list, s)) for s in sets] == case["min_fas"]


class TestMetamorphicTau:
    @settings(max_examples=60, deadline=None)
    @given(_graphs(12), st.data())
    def test_relabel_and_transpose(self, d, data):
        tau = feedback_arc_set_size(d)
        perm = data.draw(st.permutations(range(d.n)))
        assert feedback_arc_set_size(relabel(d, perm)) == tau
        assert feedback_arc_set_size(reverse(d)) == tau

    @settings(max_examples=60, deadline=None)
    @given(_layered())
    def test_sum_over_strong_components(self, d):
        comps = scc_masks(d)
        assert len(comps) >= 2
        parts = [feedback_arc_set_size(d.induced(bits(m))[0]) for m in comps]
        assert feedback_arc_set_size(d) == sum(parts)

    @settings(max_examples=40, deadline=None)
    @given(_graphs(9))
    def test_nu_at_most_tau(self, d):
        rep = max_cycle_packing(d)
        assert rep.optimal
        assert rep.value <= feedback_arc_set_size(d)


def _nu(d: Digraph) -> int:
    rep = max_cycle_packing(d, Budget(max_nodes=200_000, max_secs=60.0))
    assert rep.optimal
    return rep.value


class TestMetamorphicNu:
    @settings(max_examples=40, deadline=None)
    @given(_graphs(9), st.data())
    def test_relabel_and_transpose(self, d, data):
        nu = _nu(d)
        perm = data.draw(st.permutations(range(d.n)))
        assert _nu(relabel(d, perm)) == nu
        assert _nu(reverse(d)) == nu

    @settings(max_examples=40, deadline=None)
    @given(_graphs(9), st.data())
    def test_added_arc_never_lowers(self, d, data):
        missing = [(u, v) for u in range(d.n) for v in range(d.n) if u != v and not d.has_arc(u, v)]
        assume(missing)
        u, v = data.draw(st.sampled_from(missing))
        rows = list(d.out)
        rows[u] |= 1 << v
        assert _nu(Digraph(d.n, rows)) >= _nu(d)

    @settings(max_examples=40, deadline=None)
    @given(_layered())
    def test_sum_over_strong_components(self, d):
        parts = [_nu(d.induced(bits(m))[0]) for m in scc_masks(d)]
        assert _nu(d) == sum(parts)


class TestDeadline:
    def test_dp_stops_past_deadline(self):
        with pytest.raises(BudgetExceeded) as info:
            min_feedback_arc_set(random_tournament(16, 1), deadline=0.0)
        assert info.value.reason == "time budget"

    @pytest.mark.parametrize("n", [8, 9, 13])
    def test_blocked_table_stops_past_deadline(self, n):
        with pytest.raises(BudgetExceeded) as info:
            _subset_costs(random_tournament(n, 1), deadline=0.0)
        assert info.value.reason == "time budget"

    @staticmethod
    def _clock(monkeypatch) -> list:
        """Make the DP's clock read 1.0, 2.0, ...; returns the reads."""
        reads = []

        def perf_counter() -> float:
            reads.append(None)
            return float(len(reads))

        monkeypatch.setattr(fas, "time", SimpleNamespace(perf_counter=perf_counter))
        return reads

    def test_deadline_passing_mid_table(self, monkeypatch):
        # the deadline holds for the first DEADLINE_BLOCK cells, whose
        # blocks above the first have high vertices, and stops the second
        reads = self._clock(monkeypatch)
        with pytest.raises(BudgetExceeded):
            _subset_costs(random_tournament(14, 1), deadline=1.5)
        assert len(reads) == 2

    def test_one_clock_read_per_deadline_block(self, monkeypatch):
        reads = self._clock(monkeypatch)
        d = random_tournament(14, 1)
        assert _subset_costs(d, deadline=1e9) == subset_costs_reference(d)
        assert len(reads) == (1 << 14) // DEADLINE_BLOCK

    def test_future_deadline_changes_nothing(self, paper_T):
        later = time.perf_counter() + 600
        assert min_feedback_arc_set(paper_T, deadline=later) == min_feedback_arc_set(paper_T)


class TestEnumerateMinFas:
    def test_matches_brute_on_smalls(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(2, 6)
            d = random_digraph(n, rng.uniform(0.3, 0.8), rng.randrange(1 << 32))
            sets = enumerate_min_fas(d, limit=10_000)
            assert set(sets) == min_fas_sets_brute(d)
            assert len(sets) == len(set(sets))

    def test_paper_T_counts(self, paper_T):
        sets = enumerate_min_fas(paper_T, limit=500)
        assert len(sets) == 117
        assert enumerate_min_fas(paper_T, limit=1000) == sets  # cap-stable
        assert paper_T_backward_arcs() in sets
        tau = feedback_arc_set_size(paper_T)
        for s in sets:
            assert len(s) == tau
            assert topological_order(without_arcs(paper_T, s)) is not None

    def test_paper_T7_counts(self, paper_T7):
        sets = enumerate_min_fas(paper_T7, limit=500)
        assert len(sets) == 13

    def test_limit_is_exact_on_paper_T7(self, paper_T7):
        sets = enumerate_min_fas(paper_T7, limit=13)
        assert len(sets) == 13
        with pytest.raises(ValueError, match="more than 12"):
            enumerate_min_fas(paper_T7, limit=12)

    def test_limit_is_exact_on_random_graphs(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randrange(2, 7)
            d = random_digraph(n, rng.uniform(0.3, 0.8), rng.randrange(1 << 32))
            brute = min_fas_sets_brute(d)
            assert set(enumerate_min_fas(d, limit=len(brute))) == brute
            if len(brute) > 1:
                with pytest.raises(ValueError, match="more than"):
                    enumerate_min_fas(d, limit=len(brute) - 1)

    def test_sorted_output(self, paper_T7):
        sets = enumerate_min_fas(paper_T7, limit=500)
        keys = [tuple(sorted(s)) for s in sets]
        assert keys == sorted(keys)

    def test_vertex_cap(self):
        with pytest.raises(ValueError, match="capped at 16"):
            enumerate_min_fas(Digraph(17, [0] * 17), limit=10)


class TestIsaakAtTen:
    """A 10-vertex answer to Isaak's question, three vertices below the
    13-vertex ``paper-T``: a minimum FAS inducing a hamiltonian path while
    the arc-disjoint cycles fall one short of it."""

    BACKWARD = frozenset({(2, 0), (4, 2), (6, 0), (6, 4), (9, 0), (9, 2), (9, 4), (9, 6)})

    @pytest.fixture(scope="class")
    def t(self):
        return builtin("isaak-10")

    def test_builtin_rows(self, t):
        # ordering 0..9; every pair not in BACKWARD points forward
        assert backward_arcs(t, tuple(range(10))) == self.BACKWARD

    def test_tau(self, t):
        assert t.is_tournament()
        assert min_feedback_arc_set(t).tau == 8
        assert subset_costs_reference(t)[(1 << 10) - 1] == 8

    def test_min_fas_induces_path(self, t):
        assert min_fas_path(t, self.BACKWARD) == (9, 6, 4, 2, 0)

    def test_nu(self, t):
        rep = max_cycle_packing(t)
        assert (rep.value, rep.optimal) == (7, True)
        assert nu_set_packing(t) == 7


class TestMindegLowerBound:
    def test_formula(self):
        t = random_tournament(9, 3)
        k = t.min_out_degree()
        assert mindeg_lower_bound(t) == k * (k + 1) // 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2**32 - 1))
    def test_bound_holds_on_random_oriented(self, n, seed):
        g = random_oriented(n, 0.5, seed)
        assert feedback_arc_set_size(g) >= mindeg_lower_bound(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_bound_holds_with_two_cycles(self, n, seed):
        d = random_digraph(n, 0.5, seed)
        assert feedback_arc_set_size(d) >= mindeg_lower_bound(d)


class TestMinFasPath:
    def test_paper_T_positive(self, paper_T):
        arcs = paper_T_backward_arcs()
        path = min_fas_path(paper_T, arcs)
        assert path is not None
        assert "".join(label_of(v) for v in path) == "mkigeca"

    def test_rejects_arcs_not_in_graph(self, paper_T):
        with pytest.raises(ValueError):
            min_fas_path(paper_T, [(0, 1), (1, 0)])

    def test_wrong_size_is_false(self, paper_T):
        arcs = set(paper_T_backward_arcs())
        arcs.discard(next(iter(arcs)))
        assert min_fas_path(paper_T, arcs) is None

    def test_non_fas_is_false(self, paper_T):
        # 12 arcs whose removal leaves a cycle cannot be a minimum FAS
        arcs = sorted(paper_T.arcs())[:12]
        assert min_fas_path(paper_T, arcs) is None

    def test_disconnected_fas_is_false(self):
        # two disjoint 3-cycles: a minimum FAS takes one arc from each,
        # and two disjoint arcs never trace a single path
        d = Digraph.from_arcs(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        fas = frozenset({(2, 0), (5, 3)})
        assert feedback_arc_set_size(d) == 2
        assert min_fas_path(d, fas) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_hamiltonian_path_on_every_min_fas(self, seed):
        rng = random.Random(seed)
        for n in range(3, 9):
            t = random_tournament(n, rng.randrange(1 << 32))
            for fas in enumerate_min_fas(t, 1000):
                if not fas:  # transitive: nothing to trace
                    assert min_fas_path(t, fas) == ()
                    continue
                verts = sorted({u for a in fas for u in a})
                index = {v: i for i, v in enumerate(verts)}
                sub = Digraph.from_arcs(len(verts), [(index[u], index[v]) for u, v in fas])
                path = hamiltonian_path(sub)
                expected = None if path is None else tuple(verts[v] for v in path)
                assert min_fas_path(t, fas) == expected
