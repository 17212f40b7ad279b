import re

import pytest
from hypothesis import given, settings, strategies as st

from arcpack.claims import (
    CLAIM_IDS,
    ClaimResult,
    format_claim,
    format_report,
    parse_claim,
    verify_paper,
)

# every ``verify-paper`` line with ``secs=`` stripped: fixed points
PAPER_LINES = [
    "CLAIM TAU_T PASS observed=12 expected=12",
    "CLAIM NU_T PASS observed=11 expected=11",
    "CLAIM TAU_T7 PASS observed=5 expected=5",
    "CLAIM NU_T7 PASS observed=4 expected=4",
    "CLAIM TAU_TP PASS observed=15 expected=15",
    "CLAIM NU_TP PASS observed=14 expected=14",
    "CLAIM NU_EQ_TAU_LE6 PASS observed=counts:1,1,2,4,12,56;identity:ok;violations:0"
    " expected=identity:ok;violations:0",
    "CLAIM EULER_T11 PASS observed=eulerian:true;outdeg:5 expected=eulerian:true;outdeg:5",
    "CLAIM TRI_K_T11 PASS observed=4 expected=4",
    "CLAIM FLOW_K_T11 PASS observed=5 expected=5",
    "CLAIM UNIV_CYCLES_RANDOM PASS observed=checked:945;violations:0 expected=violations:0",
    "CLAIM MINDEG_TAU_RANDOM PASS observed=checked:300;violations:0 expected=violations:0",
    "CLAIM MINDEG_TRI_RANDOM PASS observed=checked:300;violations:0 expected=violations:0",
    "CLAIM SECOND_NBHD_LE8 PASS observed=checked:1032;violations:0 expected=violations:0",
    "CLAIM PACK11_T PASS observed=cycles:11;valid:true;missing:me"
    " expected=cycles:11;valid:true;missing:me",
    "CLAIM FAS_PATH_T PASS observed=ok;path:mkigeca expected=ok;path:mkigeca",
]


# one full suite run shared by every test in this module
@pytest.fixture(scope="module")
def results():
    return verify_paper()


class TestSuite:
    def test_all_claims_pass(self, results):
        failed = [r.claim_id for r in results if not r.passed]
        assert failed == []

    def test_every_line_pinned(self, results):
        lines = [format_claim(r).rsplit(" secs=", 1)[0] for r in results]
        assert lines == PAPER_LINES

    def test_fixed_order(self, results):
        assert tuple(r.claim_id for r in results) == CLAIM_IDS

    def test_subset_selection_keeps_order(self):
        picked = verify_paper(["FAS_PATH_T", "TAU_T7", "NU_T"])
        assert [r.claim_id for r in picked] == ["NU_T", "TAU_T7", "FAS_PATH_T"]

    def test_unknown_claim_id(self):
        with pytest.raises(ValueError, match="unknown claim ids: X1"):
            verify_paper(["X1"])

    def test_empty_selection(self):
        with pytest.raises(ValueError, match="no claim ids selected"):
            verify_paper([])

    def test_budget_from_env(self, monkeypatch):
        # as ``arcpack verify-paper --only NU_T7`` under the same variable
        monkeypatch.setenv("ARCPACK_BUDGET_NODES", "1")
        (r,) = verify_paper(["NU_T7"])
        assert (r.status, r.observed) == ("FAIL", "atleast:4;budget-exhausted")

    def test_budget_read_before_the_first_claim(self, monkeypatch):
        # TAU_T7 runs no budgeted search, yet the variable is read
        monkeypatch.setenv("ARCPACK_BUDGET_SECS", "x")
        with pytest.raises(ValueError, match="ARCPACK_BUDGET_SECS='x'"):
            verify_paper(["TAU_T7"])

    def test_stable_output_module_secs(self, results):
        again = verify_paper()
        strip = lambda r: (r.claim_id, r.status, r.observed, r.expected)
        assert [strip(r) for r in again] == [strip(r) for r in results]

    def test_expected_values_spotchecks(self, results):
        by_id = {r.claim_id: r for r in results}
        assert by_id["TAU_T"].observed == "12"
        assert by_id["NU_T"].observed == "11"
        assert by_id["TAU_TP"].observed == "15"
        assert by_id["NU_TP"].observed == "14"
        assert by_id["TRI_K_T11"].observed == "4"
        assert by_id["FLOW_K_T11"].observed == "5"
        assert by_id["PACK11_T"].observed == "cycles:11;valid:true;missing:me"
        assert by_id["FAS_PATH_T"].observed == "ok;path:mkigeca"
        assert by_id["NU_EQ_TAU_LE6"].observed.startswith("counts:1,1,2,4,12,56")

    @pytest.mark.parametrize(
        "cid,observed",
        [
            ("UNIV_CYCLES_RANDOM", "checked:945;violations:0"),
            ("MINDEG_TAU_RANDOM", "checked:300;violations:0"),
            ("MINDEG_TRI_RANDOM", "checked:300;violations:0"),
            ("SECOND_NBHD_LE8", "checked:1032;violations:0"),
        ],
    )
    def test_random_claims_golden(self, results, cid, observed):
        by_id = {r.claim_id: r for r in results}
        assert by_id[cid].observed == observed


class TestFormat:
    def test_line_shape(self, results):
        pat = re.compile(
            r"^CLAIM [A-Z0-9_]+ (PASS|FAIL) observed=\S+ expected=\S+ secs=\d+\.\d{3}$"
        )
        for r in results:
            assert pat.match(format_claim(r))

    def test_roundtrip(self, results):
        for r in results:
            line = format_claim(r)
            back = parse_claim(line)
            assert format_claim(back) == line
            assert back.claim_id == r.claim_id
            assert back.status == r.status
            assert back.observed == r.observed

    @settings(max_examples=100, deadline=None)
    @given(
        st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789", min_size=1, max_size=20),
        st.sampled_from(["PASS", "FAIL"]),
        st.text("abcdefghijklmnop0123456789:;,.<>=-", min_size=1, max_size=25),
        st.text("abcdefghijklmnop0123456789:;,.<>=-", min_size=1, max_size=25),
        st.floats(0, 9999),
    )
    def test_roundtrip_synthetic(self, cid, status, observed, expected, secs):
        r = ClaimResult(cid, status, observed, expected, secs)
        line = format_claim(r)
        assert format_claim(parse_claim(line)) == line

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "CLAIM",
            "CLAIM X PASS observed=1 expected=1",
            "CLAIM X PASS observed=1 expected=1 secs=0.1 extra=2",
            "CLAIM X PASS observed=1 wrong=1 secs=0.1",
            "NOISE X PASS observed=1 expected=1 secs=0.1",
            "CLAIM X SKIPPED observed=1 expected=1 secs=0.1",
        ],
    )
    def test_parse_rejects(self, line):
        with pytest.raises(ValueError):
            parse_claim(line)

    def test_result_validation(self):
        with pytest.raises(ValueError, match="bad status"):
            ClaimResult("X", "MAYBE", "1", "1", 0.0)
        with pytest.raises(ValueError, match="space-free"):
            ClaimResult("X", "PASS", "1 2", "1", 0.0)
        with pytest.raises(ValueError, match="space-free"):
            ClaimResult("X", "PASS", "1", "", 0.0)
        # the id is a field of the claim line too
        with pytest.raises(ValueError, match="space-free"):
            ClaimResult("A B", "PASS", "1", "1", 0.0)
        with pytest.raises(ValueError, match="space-free"):
            ClaimResult("", "PASS", "1", "1", 0.0)

    def test_report_summary(self, results):
        text = format_report(results)
        lines = text.splitlines()
        assert len(lines) == len(results) + 1
        assert lines[-1].startswith(f"{len(results)} claims: {len(results)} passed, 0 failed")

    def test_report_counts_failures(self):
        rs = [
            ClaimResult("A", "PASS", "1", "1", 0.1),
            ClaimResult("B", "FAIL", "2", "1", 0.1),
        ]
        assert "1 passed, 1 failed" in format_report(rs)
