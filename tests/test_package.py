import contextlib
import io
import re
from pathlib import Path
from types import ModuleType

import arcpack

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
