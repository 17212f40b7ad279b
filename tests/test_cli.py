import os
import subprocess
import sys
from pathlib import Path

import pytest

from arcpack.cli import main
from arcpack.digraph import parse_graph
from arcpack.instances import builtin


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTau:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, "tau", "paper-T")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "tau=12"
        assert lines[1].startswith("ordering=")
        arcs = [tuple(map(int, l.split()[1:])) for l in lines if l.startswith("arc ")]
        assert len(arcs) == 12

    def test_file_and_stdin(self, capsys, tmp_path, monkeypatch):
        text = "3 3\n0 1\n1 2\n2 0\n"
        p = tmp_path / "tri.txt"
        p.write_text(text)
        code, out, _ = run(capsys, "tau", str(p))
        assert code == 0 and out.splitlines()[0] == "tau=1"

        import io, sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "tau", "-")
        assert code == 0 and out.splitlines()[0] == "tau=1"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "tau", "does-not-exist.txt")
        assert code == 2
        assert "error:" in err

    def test_too_large_for_dp(self, capsys):
        code, _, err = run(capsys, "tau", "transitive-30")
        assert code == 2
        assert err == "error: subset DP capped at 24 vertices, got 30\n"

    @pytest.mark.parametrize(
        "name", ["transitive-\u0663", "transitive-+3", "transitive- 3", "transitive-3_0"]
    )
    def test_transitive_size_is_ascii_digits(self, capsys, name):
        # int() would read each of these: Arabic-Indic three, a sign, a
        # space, an underscore
        code, out, err = run(capsys, "tau", name)
        assert code == 2 and out == ""
        assert err == f"error: bad transitive size in {name!r}\n"


class TestNu:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, "nu", "paper-T7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "nu=4 optimal=true"
        assert sum(1 for l in lines if l.startswith("cycle ")) == 4

    def test_budget_flag_exhaustion(self, capsys):
        code, out, _ = run(capsys, "nu", "paper-T", "--budget-nodes", "1")
        assert code == 3
        assert out.splitlines()[0].endswith("optimal=false")

    @pytest.mark.parametrize(
        "flags,msg",
        [
            (("--budget-nodes", "0"), "node budget must be positive"),
            (("--budget-secs", "-1"), "time budget must be positive"),
        ],
    )
    def test_rejects_non_positive_budget_flags(self, capsys, flags, msg):
        code, out, err = run(capsys, "nu", "paper-T7", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and msg in err
        assert len(err.splitlines()) == 1

    def test_rejects_non_positive_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ARCPACK_BUDGET_SECS", "-5")
        code, out, err = run(capsys, "nu", "paper-T7")
        assert code == 2 and out == ""
        assert err == "error: time budget must be positive, got -5.0\n"

    @pytest.mark.parametrize(
        "name,value,kind",
        [("ARCPACK_BUDGET_SECS", "x", "float"), ("ARCPACK_BUDGET_NODES", "1e3", "int")],
    )
    def test_unreadable_budget_env_is_named(self, capsys, monkeypatch, name, value, kind):
        monkeypatch.setenv(name, value)
        code, out, err = run(capsys, "nu", "paper-T")
        assert code == 2 and out == ""
        assert err == f"error: {name}={value!r} is not a valid {kind}\n"

    @pytest.mark.parametrize(
        "name,value,flags",
        [
            ("ARCPACK_BUDGET_SECS", "x", ("--budget-secs", "5")),
            ("ARCPACK_BUDGET_NODES", "1e3", ("--budget-nodes", "100000")),
        ],
    )
    def test_flag_wins_over_unreadable_env(self, capsys, monkeypatch, name, value, flags):
        monkeypatch.setenv(name, value)
        code, out, err = run(capsys, "nu", "paper-T7", *flags)
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "nu=4 optimal=true"


class TestThroughCommands:
    def test_cycles_through_letter_vertex(self, capsys):
        code, out, _ = run(capsys, "cycles-through", "paper-T11", "k")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value=5"
        assert sum(1 for l in lines if l.startswith("cut ")) == 5
        assert sum(1 for l in lines if l.startswith("cycle ")) == 5

    def test_tri_through_numeric_vertex(self, capsys):
        code, out, _ = run(capsys, "tri-through", "paper-T11", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "count=15"
        assert lines[1] == "max=4"
        assert sum(1 for l in lines if l.startswith("triangle ")) == 4

    def test_vertex_out_of_range(self, capsys):
        code, _, err = run(capsys, "cycles-through", "paper-T7", "z")
        assert code == 2 and "out of range" in err

    @pytest.mark.parametrize("word", ["\u0663", "\u00b2", "\u00e9"])
    def test_non_ascii_vertex_is_bad(self, capsys, word):
        # Arabic-Indic three, superscript two, e acute
        code, out, err = run(capsys, "cycles-through", "paper-T", word)
        assert code == 2 and out == ""
        assert err == f"error: bad vertex {word!r}\n"


class TestEnum:
    def test_stream_order_5(self, capsys):
        code, out, _ = run(capsys, "enum", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "classes=12"
        assert len(lines) == 13
        assert lines[:-1] == sorted(lines[:-1])

    def test_predicate_filter(self, capsys, paper_T7):
        from arcpack.enumeration import canonical_code

        code, out, _ = run(capsys, "enum", "7", "--predicate", "nu_lt_tau")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "matched=2 classes=456"
        assert canonical_code(paper_T7).hex() in lines[:-1]

    def test_rejects_order_9(self, capsys):
        with pytest.raises(SystemExit):
            main(["enum", "9"])

    def test_predicate_budget_exhaustion(self, capsys, monkeypatch):
        monkeypatch.setenv("ARCPACK_BUDGET_NODES", "1")
        code, _, err = run(capsys, "enum", "6", "--predicate", "nu_lt_tau")
        assert code == 3
        assert err == "error: budget exhausted before the packing was settled\n"

    def test_closed_stdout_is_quiet(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "arcpack.cli", "enum", "6"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=path),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141


class TestRandomCheck:
    def test_budget_resolved_once(self, capsys, monkeypatch):
        from arcpack.packing import Budget

        calls = []
        real = Budget.from_env.__func__

        def counted(cls, *limits):
            calls.append(limits)
            return real(cls, *limits)

        monkeypatch.setattr(Budget, "from_env", classmethod(counted))
        code, out, _ = run(
            capsys, "random-check", "--model", "tournament", "--n", "5", "--count", "4"
        )
        assert code == 0 and out.splitlines()[-1] == "ok"
        assert calls == [()]

    @pytest.mark.parametrize("n", ["6", "8"])
    def test_bad_budget_env_before_output(self, capsys, monkeypatch, n):
        # the budget bounds only the n <= 7 packing check, yet a bad value
        # ends every run before its first line
        monkeypatch.setenv("ARCPACK_BUDGET_SECS", "-1")
        code, out, err = run(
            capsys, "random-check", "--model", "tournament", "--n", n, "--count", "2"
        )
        assert code == 2 and out == ""
        assert err == "error: time budget must be positive, got -1.0\n"

    def test_tournament_model(self, capsys):
        code, out, _ = run(
            capsys,
            "random-check", "--model", "tournament", "--n", "6",
            "--count", "15", "--seed", "3",
        )
        assert code == 0
        assert out.splitlines()[-1] == "ok"
        assert "CHECK packing-vs-bruteforce checked=15 violations=0" in out

    def test_oriented_model(self, capsys):
        code, out, _ = run(
            capsys,
            "random-check", "--model", "oriented", "--n", "5",
            "--count", "15", "--seed", "4", "--p", "0.6",
        )
        assert code == 0
        assert "mindeg-tau-bound" in out

    def test_golden_tournament(self, capsys):
        code, out, _ = run(
            capsys,
            "random-check", "--model", "tournament", "--n", "7",
            "--count", "50", "--seed", "3",
        )
        assert code == 0
        assert out == (
            "CHECK universal-vertex-cycles checked=97 violations=0\n"
            "CHECK mindeg-tau-bound checked=50 violations=0\n"
            "CHECK mindeg-triangle-count checked=77 violations=0\n"
            "CHECK second-neighborhood checked=50 violations=0\n"
            "CHECK packing-vs-bruteforce checked=50 violations=0\n"
            "ok\n"
        )

    def test_golden_oriented(self, capsys):
        code, out, _ = run(
            capsys,
            "random-check", "--model", "oriented", "--n", "7",
            "--count", "50", "--seed", "3",
        )
        assert code == 0
        assert out == (
            "CHECK universal-vertex-cycles checked=1 violations=0\n"
            "CHECK mindeg-tau-bound checked=50 violations=0\n"
            "CHECK packing-vs-bruteforce checked=50 violations=0\n"
            "ok\n"
        )

    def test_deterministic(self, capsys):
        args = ("random-check", "--model", "tournament", "--n", "5",
                "--count", "10", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_empty_count_errors(self, capsys, count):
        code, out, err = run(
            capsys, "random-check", "--model", "tournament", "--n", "3", "--count", count
        )
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: --count must be positive, got {count}"]


class TestShow:
    def test_roundtrips_through_parser(self, capsys):
        code, out, _ = run(capsys, "show", "paper-T")
        assert code == 0
        assert out.splitlines()[0] == "# paper-T"
        assert "# letters: a=0" in out
        assert parse_graph(out) == builtin("paper-T")

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "show", "paper-Z")
        assert code == 2 and "error:" in err


class TestVerifyPaper:
    def test_only_subset(self, capsys):
        code, out, _ = run(
            capsys, "verify-paper", "--only", "TAU_T,TAU_T7", "--only", "EULER_T11"
        )
        assert code == 0
        lines = out.splitlines()
        assert [l.split()[1] for l in lines if l.startswith("CLAIM ")] == [
            "TAU_T",
            "TAU_T7",
            "EULER_T11",
        ]
        assert lines[-1].startswith("3 claims: 3 passed")

    def test_unknown_id_errors(self, capsys):
        code, _, err = run(capsys, "verify-paper", "--only", "BOGUS")
        assert code == 2 and "unknown claim ids" in err

    def test_empty_selection_errors(self, capsys):
        code, out, err = run(capsys, "verify-paper", "--only", ",")
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: no claim ids selected"]
