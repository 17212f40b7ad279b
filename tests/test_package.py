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

README = Path(__file__).resolve().parents[1] / "README.md"


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: enumerate_min_fas(builtin("paper-T7"), 0), "limit must be positive"),
        (lambda: random_oriented(5, 1.5, 0), "probability must be in"),
        (lambda: count_triangles_through(builtin("paper-T7"), 7), "vertex 7 out of range"),
        (lambda: max_triangles_through(builtin("paper-T7"), 7), "vertex 7 out of range"),
        (lambda: builtin("paper-T7").without_arcs([(0, -1)]), r"arc \(0, -1\) not present"),
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
        "without_arcs-negative-head",
        "min_fas_path-negative-head",
    ],
)
def test_bad_arguments_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_readme_library_example_runs():
    # the README cannot name a deleted function or show a stale value
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library")) + len("```python\n")
    code = text[start : text.index("```", start)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["5", "4"]
    assert [re.sub(r" secs=\S+", "", line) for line in lines[2:4]] == [
        "CLAIM TAU_T7 PASS observed=5 expected=5",
        "CLAIM NU_T7 PASS observed=4 expected=4",
    ]
