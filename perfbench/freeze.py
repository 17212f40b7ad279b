"""Write ``frozen.json``: the nu-hard pool and the answers runs compare with.

    python3 perfbench/freeze.py

Run once at the commit that defines the benchmark.  Later runs read the
pool and answers from the file and never regenerate them, so a change
to the package cannot change the workload, and a changed answer counts
as a failed op.

nu-hard's pool is the first ``POOL_SIZE`` strongly connected 14-vertex
tournaments drawn from ``POOL_SEED`` that the solver settles within
``SCREEN_NODES`` search nodes.  A few candidates need far more, some of
them minutes; a closed-loop run of seconds cannot hold such an op, so
they are left out, and ``screen`` records how many.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads as wl

POOL_SEED = 14
POOL_SIZE = 40
SCREEN_NODES = 20_000


def freeze_hard() -> dict:
    from arcpack import Budget, max_cycle_packing, min_feedback_arc_set
    from arcpack.digraph import parse_graph

    pool = []
    tried = 0
    for rows in wl.hard_candidates(POOL_SEED):
        tried += 1
        d = parse_graph(wl.graph_text(rows))
        rep = max_cycle_packing(d, Budget(max_nodes=SCREEN_NODES, max_secs=600.0))
        if not rep.optimal:
            continue
        fr = min_feedback_arc_set(d)
        pool.append(
            {"rows": rows, "nu": rep.value, "tau": fr.tau, "ordering": list(fr.ordering), "nodes": rep.nodes_explored}
        )
        print(f"candidate {tried}: nu={rep.value} tau={fr.tau} nodes={rep.nodes_explored}", file=sys.stderr)
        if len(pool) == POOL_SIZE:
            break
    return {
        "pool_seed": POOL_SEED,
        "screen": {"nodes": SCREEN_NODES, "candidates": tried, "excluded": tried - len(pool)},
        "pool": pool,
    }


def freeze_census() -> dict:
    expected = {}
    for argv in wl.CENSUS_COMMANDS + wl.SMOKE_CENSUS_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "arcpack.cli", *argv],
            env=run.child_env(None),
            cwd=run.ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        expected[" ".join(argv)] = wl.census_lines(proc.stdout)
    return expected


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    frozen = {"nu-hard": freeze_hard(), "census": freeze_census()}
    frozen["digests"] = {name: run.answers_digest(frozen[name]) for name in ("nu-hard", "census")}
    run.FROZEN.write_text(json.dumps(frozen, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
