"""Every solver checks its own certificate with code that ``python -O``
keeps: a corrupt certificate raises ``RuntimeError``.

Each case patches one corruption into the package and returns the call
that must refuse it, plus a fragment of the expected message.  The same
cases run in process and once more in a ``python -O`` subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from arcpack import enumeration, fas, flow, packing
from arcpack.instances import builtin


def _enumeration_aut(patch):
    # no order-3 class has |Aut| = 4, since 4 does not divide 3! = 6
    patch(enumeration, "_classes", lambda n: ((0, 4),))
    return "4 does not divide 3! at order 3", lambda: enumeration.labeled_count_identity_holds(3)


def _fas_backward_arcs(patch):
    patch(fas, "backward_arcs", lambda d, ordering: frozenset())
    return "backward arcs", lambda: fas.min_feedback_arc_set(builtin("paper-T7"))


def _flow_cut(patch):
    real = flow._max_flow

    def inflated(d, v0):
        value, *network = real(d, v0)
        return value + 1, *network

    patch(flow, "_max_flow", inflated)
    return "residual cut", lambda: flow.min_arc_cover_through(builtin("paper-T11"), 0)


def _packing_feedback_set(patch):
    real = packing.min_feedback_arc_set

    def no_arcs(d, **kwargs):
        res = real(d, **kwargs)
        return fas.FasResult(tau=res.tau, ordering=res.ordering, arcs=frozenset())

    patch(packing, "min_feedback_arc_set", no_arcs)
    return "not a feedback arc set", lambda: packing.max_cycle_packing(builtin("paper-T7"))


def _packing_cycles(patch):
    patch(packing, "_decide", lambda d, arcs, slack, tracker: [(0, 1, 2)] * (len(arcs) - slack))
    return "invalid packing", lambda: packing.max_cycle_packing(builtin("paper-T7"))


CASES = {
    "enumeration.aut": _enumeration_aut,
    "fas.backward_arcs": _fas_backward_arcs,
    "flow.cut": _flow_cut,
    "packing.feedback_set": _packing_feedback_set,
    "packing.cycles": _packing_cycles,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_corrupt_certificate_raises(monkeypatch, name):
    fragment, call = CASES[name](monkeypatch.setattr)
    with pytest.raises(RuntimeError, match=fragment):
        call()


_UNDER_O = """
import sys
import test_certificates as tc

print("optimize", sys.flags.optimize)
for name, case in sorted(tc.CASES.items()):
    saved = []

    def patch(obj, attr, value):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    fragment, call = case(patch)
    try:
        call()
    except RuntimeError as exc:
        print(name, "raised" if fragment in str(exc) else f"wrong message: {exc}")
    else:
        print(name, "returned")
    for obj, attr, value in reversed(saved):
        setattr(obj, attr, value)
"""


def test_checks_survive_python_O():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(
        filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["optimize 1"] + [
        f"{name} raised" for name in sorted(CASES)
    ]
