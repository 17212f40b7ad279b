import ast
import contextlib
import io
import re
from pathlib import Path
from types import ModuleType

import pytest

import arcpack
from arcpack.fas import enumerate_min_fas, min_fas_path
from arcpack.instances import builtin, random_oriented
from arcpack.packing import count_triangles_through, max_triangles_through

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# one entry point per answer, with the types it takes, returns or raises
ROOT_NAMES = {
    "Digraph", "parse_graph", "format_graph", "builtin", "random_tournament",
    "random_oriented",
    "min_feedback_arc_set", "FasResult", "min_fas_path",
    "max_cycle_packing", "PackingReport", "Budget", "BudgetExceeded",
    "max_cycles_through", "min_arc_cover_through", "guaranteed_cycles_through",
    "enumerate_tournaments",
    "verify_paper", "format_report", "parse_claim", "ClaimResult", "CLAIM_IDS",
}


def _readme_library_code() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library")) + len("```python\n")
    return text[start : text.index("```", start)]


def _root_imports(source: str) -> set[str]:
    """Names that ``from arcpack import ...`` statements in ``source`` take."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "arcpack" and node.level == 0
        for alias in node.names
    }


def test_all_lists_every_public_name():
    # a name deleted from a module must leave both the import and __all__
    bound = {
        name
        for name, value in vars(arcpack).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(arcpack.__all__) == len(set(arcpack.__all__))
    assert set(arcpack.__all__) == bound
    for name in arcpack.__all__:
        assert getattr(arcpack, name) is not None


def test_root_exports_one_entry_point_per_answer():
    assert set(arcpack.__all__) == ROOT_NAMES


def test_root_keeps_every_name_the_benchmark_and_readme_import():
    # trimming the root must not turn a benchmark run into an import error
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        bench |= _root_imports(path.read_text(encoding="utf-8"))
    assert {"Budget", "CLAIM_IDS", "parse_claim"} <= bench
    readme = _root_imports(_readme_library_code())
    assert "max_cycle_packing" in readme
    assert bench | readme <= set(arcpack.__all__)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: enumerate_min_fas(builtin("paper-T7"), 0), "limit must be positive"),
        (lambda: random_oriented(5, 1.5, 0), "probability must be in"),
        (lambda: count_triangles_through(builtin("paper-T7"), 7), "vertex 7 out of range"),
        (lambda: max_triangles_through(builtin("paper-T7"), 7), "vertex 7 out of range"),
        (
            lambda: min_fas_path(builtin("paper-T7"), [(0, -1)]),
            r"\(0, -1\) is not an arc of the graph",
        ),
    ],
    ids=[
        "enumerate_min_fas-limit",
        "random_oriented-p",
        "count_triangles-v",
        "max_triangles-v",
        "min_fas_path-negative-head",
    ],
)
def test_bad_arguments_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_readme_library_example_runs():
    # the README cannot name a deleted function or show a stale value
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_readme_library_code(), "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["5", "4"]
    assert [re.sub(r" secs=\S+", "", line) for line in lines[2:4]] == [
        "CLAIM TAU_T7 PASS observed=5 expected=5",
        "CLAIM NU_T7 PASS observed=4 expected=4",
    ]
