"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The smoke runs use tiny inputs, so they check wiring, not speed: every
workload runs, its answers pass their checks, and every metric named in
BENCHMARK.json prints with its unit.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload: str, trace: int) -> None:
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in spec:
        assert any(
            line.startswith(f"{workload} {m['name']} ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), m["name"]


def test_without_sources_fails_without_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "nu-hard", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_reject_wrong_answers() -> None:
    rng = random.Random(3)
    op = wl.blocks_batch(rng, (12,))[0]
    assert wl.check_blocks(op, {"value": 0, "cycles": [], "optimal": True, "nodes": 0})

    ops = wl.through_batch(rng, 8)
    op = next(o for o in ops if o["rows"][o["vertex"]])
    assert wl.check_through(op, {"value": 0, "cycles": [], "cut": []})

    rows = [0b010, 0b100, 0b001]  # the 3-cycle 0 -> 1 -> 2 -> 0
    assert wl.packing_problem(rows, [[0, 1, 2]]) is None
    assert wl.packing_problem(rows, [[0, 2, 1]])
    assert wl.packing_problem(rows, [[0, 1, 2], [1, 2, 0]])


def test_fas_size_matches_ordering_search() -> None:
    rng = random.Random(4)
    for _ in range(20):
        rows = wl.tournament(rng, 6)
        brute = min(wl.backward_count(rows, list(p)) for p in itertools.permutations(range(6)))
        assert wl.fas_size(rows) == brute
