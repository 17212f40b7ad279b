import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from arcpack.cli import main
from arcpack.digraph import Digraph
from arcpack.enumeration import (
    PREDICATES,
    CanonicalCode,
    _classes,
    canonical_code,
    canonical_form,
    class_codes,
    enumerate_tournaments,
    labeled_count_identity_holds,
    verify_nu_eq_tau_upto,
)
from arcpack.fas import feedback_arc_set_size
from arcpack.instances import random_tournament
from arcpack.packing import max_cycle_packing
from oracles import all_labeled_tournaments, canonical_brute

KNOWN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456}

# sha256 of the class table, one "value:aut" line per class in code order,
# recorded with the list-based search that preceded the int-prefix one
# (order 8 with its order cap lifted)
GOLDEN_DIGESTS = {
    1: "4ea437cacd9ae36c26f66a0e6cb928dc583b669a1f1e01ba67a3c45c9929e875",
    2: "4ea437cacd9ae36c26f66a0e6cb928dc583b669a1f1e01ba67a3c45c9929e875",
    3: "a769f68e9942c8c11abf230555edb2f622673f7174a856f1b576051d5a7afe5d",
    4: "eac4687ae3700dece28d2cbd507570b26cb1f9520d627c38ef906bca2ee0e8e0",
    5: "60379850c5f10b7f85fc7b6a17e973d59c43fd761500c03b8ba4a39bfa85af3a",
    6: "1420cd9688c58a5b64e9313546520bef1a96beda51ea9b4deebeade71f91435b",
    7: "1f2b8f0cd9e991ec9f952d298d19345a1dee6e5bfd134fa14c5659d6aba565cf",
    8: "0b0e38e0dd227f20ede8502c335a2a5736bbdd35810b0ec4021c15a80b4cf829",
}


def tournaments(min_n=2, max_n=7):
    return st.builds(
        random_tournament, st.integers(min_n, max_n), st.integers(0, 2**32 - 1)
    )


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(tournaments(), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, t, rnd):
        perm = list(range(t.n))
        rnd.shuffle(perm)
        assert canonical_form(t.relabeled(perm)) == canonical_form(t)

    @settings(max_examples=60, deadline=None)
    @given(tournaments(max_n=5))
    def test_aut_matches_permutation_brute(self, t):
        brute = sum(
            1
            for p in itertools.permutations(range(t.n))
            if t.relabeled(p) == t
        )
        assert canonical_form(t)[1] == brute

    @settings(max_examples=60, deadline=None)
    @given(tournaments(max_n=6))
    def test_matches_relabeling_brute(self, t):
        code, aut = canonical_form(t)
        assert (code.value, aut) == canonical_brute(t)

    def test_transitive_is_rigid(self):
        t = Digraph.from_arcs(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        code, aut = canonical_form(t)
        assert aut == 1
        assert code.value == 0  # all-forward is the lexicographic minimum

    def test_three_cycle_rotations(self):
        t = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert canonical_form(t)[1] == 3

    def test_decode_roundtrip(self):
        for n in range(1, 8):
            for code in class_codes(n)[:40]:
                t = code.decode()
                assert t.is_tournament()
                assert canonical_code(t) == code

    def test_hex_width(self):
        assert CanonicalCode(7, 0).hex() == "000000"  # 21 bits -> 6 digits
        assert CanonicalCode(2, 1).hex() == "1"

    def test_rejects_non_tournament(self):
        with pytest.raises(ValueError, match="tournaments only"):
            canonical_code(Digraph.from_arcs(3, [(0, 1)]))

    def test_rejects_large_order(self):
        with pytest.raises(ValueError, match="capped at order 8"):
            canonical_code(random_tournament(9, 1))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
    def test_class_counts(self, n, count):
        assert len(class_codes(n)) == count

    def test_identity_all_orders(self):
        assert all(labeled_count_identity_holds(n) for n in range(1, 8))

    @pytest.mark.parametrize("n", sorted(GOLDEN_DIGESTS))
    def test_golden_class_table(self, n):
        text = "".join(f"{value}:{aut}\n" for value, aut in _classes(n))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[n]

    def test_order_8(self):
        assert len(class_codes(8)) == 6880
        assert labeled_count_identity_holds(8)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_scan_cross_check(self, n):
        codes = {canonical_code(t) for t in all_labeled_tournaments(n)}
        assert codes == set(class_codes(n))

    def test_representatives_are_canonical_and_distinct(self):
        for n in range(1, 8):
            reps = enumerate_tournaments(n)
            assert len(reps) == len(class_codes(n))
            codes = [canonical_code(t) for t in reps]
            assert len(set(codes)) == len(codes)
            assert codes == sorted(codes)

    def test_order_bounds(self):
        for bad in (0, 9):
            with pytest.raises(ValueError):
                enumerate_tournaments(bad)

    def test_invariants_survive_relabeling(self):
        # tau and nu are class invariants: spot-check representatives
        rng = random.Random(71)
        for t in rng.sample(enumerate_tournaments(6), 8):
            perm = list(range(t.n))
            rng.shuffle(perm)
            r = t.relabeled(perm)
            assert feedback_arc_set_size(r) == feedback_arc_set_size(t)
            assert max_cycle_packing(r).value == max_cycle_packing(t).value


class TestSweeps:
    def test_nu_eq_tau_upto_6(self):
        rep = verify_nu_eq_tau_upto(6)
        assert rep.ok
        assert rep.class_counts == (1, 1, 2, 4, 12, 56)
        assert rep.identity_ok
        assert rep.violations == ()

    def test_sweep_cap(self):
        with pytest.raises(ValueError, match="capped at order 6"):
            verify_nu_eq_tau_upto(7)

    def test_gap_search_at_order_7(self, paper_T7, capsys):
        assert main(["enum", "7", "--predicate", "nu_lt_tau"]) == 0
        *found, summary = capsys.readouterr().out.splitlines()
        assert summary == "matched=2 classes=456"
        assert len(found) == 2
        assert canonical_code(paper_T7).hex() in found

    def test_gap_search_empty_below_7(self):
        assert not any(map(PREDICATES["nu_lt_tau"], enumerate_tournaments(6)))

    def test_other_predicates_empty_at_7(self):
        for name in ("mindeg_triangles_fail", "second_neighborhood_fail"):
            assert not any(map(PREDICATES[name], enumerate_tournaments(7)))

    def test_unknown_predicate(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enum", "5", "--predicate", "no_such_predicate"])
        assert exc.value.code == 2
        assert "invalid choice: 'no_such_predicate'" in capsys.readouterr().err

    def test_predicate_registry(self):
        assert set(PREDICATES) == {
            "nu_lt_tau",
            "mindeg_triangles_fail",
            "second_neighborhood_fail",
        }
