"""arcpack's benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload nu-hard --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Run from the root of a source tree; the package is imported from
``src/`` and nothing needs installing.  Workloads (all closed loop, one
client, one op at a time):

* ``nu-hard``: one ``max_cycle_packing`` per strongly connected
  14-vertex tournament, parsed from edge-list text.  The tournaments are
  a frozen pool (``frozen.json``); the seed orders the pass over it.
* ``nu-blocks``: one ``max_cycle_packing`` per 16/17/18-vertex graph of
  3-4 tournament blocks with arcs only from earlier to later blocks.
* ``census``: one fresh ``arcpack`` process per op, alternating
  ``verify-paper`` and ``enum 7 --predicate nu_lt_tau``.
* ``through-64``: one ``cycles-through`` query (parse, max flow, min
  cut) per vertex of 64-vertex tournaments and sparse oriented graphs.

A run draws one round of ops from the seed: one pass over the nu-hard
pool, three nu-blocks graphs of each order, three through-64 batches of
one tournament and two sparse graphs, or both census commands. With
``--trace 0`` it repeats the round, each batch in a fresh process, until
``--seconds`` of op time have passed (at least three times), takes each
op's fastest round as its latency, and prints the end-to-end metrics:
correct ops per second, the median op latency, the latency at the
highest percentile with at least ten distinct ops beyond it (the slowest
op when there are fewer than eleven), set-up time and peak memory. With
``--trace 1`` it runs the round four times, alternately with and without
spans around arcpack's public functions; the work counts of the two
traced rounds must agree, and the untraced ones give the tracing
overhead. It then prints the per-layer metrics. Every op's answer is
checked outside the timed region. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a copy of the full result, with provenance, goes to
``perfbench/out/``.

Other tenants of a shared machine slow it down by up to twofold, for
seconds to minutes at a time, and slow every computation on it alike. So
each child runs on the CPU that is quickest as it starts, and the
end-to-end times are reference seconds: a measured time divided by that
of a fixed computation (``workloads.time_reference``) timed next to it
on the same CPU, times that computation's usual time. The unscaled
figures are printed too.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FROZEN = HERE / "frozen.json"

DEFAULT_SEED = 1206
WORKLOADS = ("nu-hard", "nu-blocks", "census", "through-64")
PACKING_BUDGET = (2_000_000, 60.0)  # nodes, seconds for every packing op
CHILD_TIMEOUT = 150
SETUP_SAMPLES = 15
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Batches in a round: the distinct inputs of one run, 2-3 s of ops.
ROUND_BATCHES = {"nu-hard": 1, "nu-blocks": 3, "census": 1, "through-64": 3}
MIN_ROUNDS = 3
REFERENCE_REPEATS = 5
# Counts that depend only on the inputs; they must repeat exactly.
WORK_COUNTS = (
    "digraph.calls",
    "fas.calls",
    "fas.dp_cells",
    "packing.calls",
    "packing.nodes",
    "packing.optimal",
    "enumeration.calls",
    "flow.calls",
    "flow.value_sum",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def quiet_cpu() -> int | None:
    """The allowed CPU that runs the reference computation fastest now.

    Other tenants of a shared machine slow its CPUs down at different
    times, so each child is pinned to the CPU that is quickest as it
    starts."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        return None
    speed = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = wl.time_reference()
    finally:
        os.sched_setaffinity(0, cpus)
    return min(speed, key=speed.get)


def child_env(cpu: int | None, out_path: str | None = None) -> dict:
    """Environment for every child: the package from this tree, no
    ``ARCPACK_BUDGET_*`` override from the caller's shell, and the CPU
    that ``worker.py`` pins itself to."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARCPACK_BUDGET_")}
    env["PYTHONPATH"] = str(SRC)
    if cpu is not None:
        env["PERFBENCH_CPU"] = str(cpu)
    if out_path:
        env["PERFBENCH_OUT"] = out_path
    return env


def reference_on(cpu: int | None) -> float:
    """Median of ``REFERENCE_REPEATS`` timings of the reference
    computation on ``cpu``, where a child runs; one timing is too short
    to stand for the machine's speed over a whole child process."""
    cpus = os.sched_getaffinity(0)
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        return statistics.median(wl.time_reference() for _ in range(REFERENCE_REPEATS))
    finally:
        os.sched_setaffinity(0, cpus)


def load_frozen() -> dict:
    """The frozen answers, after checking each workload's digest."""
    frozen = json.loads(FROZEN.read_text(encoding="utf-8"))
    for name, digest in frozen["digests"].items():
        if answers_digest(frozen[name]) != digest:
            raise BenchError(f"frozen answers for {name} do not match their digest")
    return frozen


def answers_digest(answers) -> str:
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


# -- one op, one batch -------------------------------------------------------


class Batch:
    """Latencies, failures and traced spans of one batch of ops."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # in reference seconds
        self.raw_latencies: list[float] = []
        self.problems: list[str] = []
        self.failed: list[int] = []  # indices of the ops behind ``problems``
        self.attempted = 0
        self.wall = 0.0
        self.totals = tracing.summarize([])
        self.spans: list[list] = []
        self.stdout: list[str] = []
        self.peak_rss_kb = 0


def _worker(
    args: list[str], cpu: int | None, payload: str | None = None
) -> tuple[float, str, str, int]:
    """Run ``worker.py`` on ``cpu``: seconds until its first line, that
    line, the rest of its output and its exit code.  A watchdog kills it
    after ``CHILD_TIMEOUT`` seconds."""
    env = child_env(cpu)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdin=subprocess.PIPE if payload is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if payload is not None:
            try:
                proc.stdin.write(payload)
                proc.stdin.close()
            except BrokenPipeError:
                pass
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return ready, first, rest, proc.returncode


def probe(with_cli: bool = False) -> dict:
    """Start a fresh interpreter and time it until ``import arcpack`` is
    done; ``cli_import_s`` is the extra time to import ``arcpack.cli``."""
    cpu = quiet_cpu()
    before = reference_on(cpu)
    setup, first, _, code = _worker(["probe"] + (["--cli"] if with_cli else []), cpu)
    after = reference_on(cpu)
    if code != 0 or not first.startswith("{"):
        raise BenchError("cannot import arcpack from src/")
    return {"setup_s": wl.scaled(setup, before, after), "raw_setup_s": setup, **json.loads(first)}


def run_worker(workload: "Workload", ops: list[dict], first_op: int, traced: bool) -> Batch:
    payload = json.dumps(
        {
            "kind": workload.kind,
            "ops": [{"text": op["text"], "vertex": op.get("vertex")} for op in ops],
            "budget": PACKING_BUDGET,
            "first_op": first_op,
        }
    )
    _, ready, stdout, code = _worker(["ops"] + (["--trace"] if traced else []), quiet_cpu(), payload)
    batch = Batch()
    batch.attempted = len(ops)
    if ready.strip() != "ready" or code != 0:
        batch.problems = [f"worker exited with code {code}"] * len(ops)
        batch.failed = list(range(len(ops)))
        return batch
    res = json.loads(stdout)
    refs = res["refs"]
    before = [k for k, _ in refs]
    for i, latency in enumerate(res["latencies"]):
        b = bisect.bisect_right(before, i) - 1  # the last timing taken before op i
        batch.latencies.append(wl.scaled(latency, refs[b][1], refs[b + 1][1]))
    batch.raw_latencies = res["latencies"]
    batch.wall = res["wall"]
    batch.peak_rss_kb = res["peak_rss_kb"]
    for i, (op, out) in enumerate(zip(ops, res["outputs"])):
        problem = workload.check(op, out)
        if problem:
            batch.problems.append(problem)
            batch.failed.append(i)
    if traced:
        batch.spans = res["spans"]
        batch.totals = tracing.summarize(batch.spans)
    return batch


def run_cli(workload: "Workload", ops: list[dict], first_op: int, traced: bool) -> Batch:
    """Each op is one fresh process running arcpack's CLI, timed from
    start to exit."""
    batch = Batch()
    for i, op in enumerate(ops):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            out_path = os.path.join(tmp, "out.json")
            cmd = [sys.executable, str(HERE / "worker.py"), "cli"]
            cmd += ["--trace"] if traced else []
            cpu = quiet_cpu()
            env = child_env(cpu, out_path)
            before = reference_on(cpu)
            t0 = time.perf_counter()
            proc = subprocess.run(
                cmd + op["argv"],
                env=env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT,
            )
            latency = time.perf_counter() - t0
            after = reference_on(cpu)
            record = {"peak_rss_kb": 0, "spans": []}
            if os.path.exists(out_path):
                with open(out_path, encoding="utf-8") as fh:
                    record = json.load(fh)
        spans = record["spans"]
        batch.peak_rss_kb = max(batch.peak_rss_kb, record["peak_rss_kb"])
        batch.attempted += 1
        batch.latencies.append(wl.scaled(latency, before, after))
        batch.raw_latencies.append(latency)
        batch.wall += latency
        batch.stdout.append(proc.stdout)
        problem = workload.check(op, {"returncode": proc.returncode, "stdout": proc.stdout})
        if problem:
            batch.problems.append(problem)
            batch.failed.append(i)
        for span in spans:
            span[5] = first_op + i
        batch.spans.extend(spans)
        batch.totals = tracing.merge(batch.totals, tracing.summarize(spans))
    return batch


# -- workloads ---------------------------------------------------------------


class Workload:
    """How one workload makes a batch of ops, runs it and checks an answer."""

    def __init__(self, name: str, frozen: dict, smoke: bool) -> None:
        self.name = name
        self.smoke = smoke
        self.kind = {"census": "cli", "through-64": "through"}.get(name, "packing")
        if name == "nu-hard":
            self.pool = frozen["nu-hard"]["pool"][: 3 if smoke else None]
        if name == "census":
            self.expected = frozen["census"]

    def round(self, rng: random.Random) -> list[list[dict]]:
        """The batches of ops every round of a run repeats."""
        return [self.batch(rng) for _ in range(1 if self.smoke else ROUND_BATCHES[self.name])]

    def batch(self, rng: random.Random) -> list[dict]:
        if self.name == "nu-hard":
            return wl.hard_pass(rng, self.pool)
        if self.name == "nu-blocks":
            return wl.blocks_batch(rng, (12,) if self.smoke else wl.BLOCK_ORDERS)
        if self.name == "through-64":
            return wl.through_batch(rng, 16 if self.smoke else wl.THROUGH_ORDER)
        return wl.census_batch(rng, self.smoke)

    def check(self, op: dict, out: dict) -> str | None:
        if self.name == "nu-hard":
            return wl.check_hard(op, out, self.pool)
        if self.name == "nu-blocks":
            return wl.check_blocks(op, out)
        if self.name == "through-64":
            return wl.check_through(op, out)
        return wl.check_census(out["returncode"], out["stdout"], self.expected[" ".join(op["argv"])])

    def run(self, ops: list[dict], first_op: int, traced: bool) -> Batch:
        runner = run_cli if self.kind == "cli" else run_worker
        return runner(self, ops, first_op, traced)


# -- measuring -----------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, str]:
    """Latency at the highest ladder percentile with at least ten ops
    beyond it (nearest rank); the maximum when there are too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        k = max(math.ceil(q / 100 * n) - 1, 0)
        if n - 1 - k >= 10:
            return ordered[k], f"p{q:g}"
    return ordered[-1], "max"


def timed_run(work: Workload, rng: random.Random, seconds: float) -> dict:
    """Rounds over the same batches until ``seconds`` of op time have passed.

    Every round runs each batch in a fresh process, so no state carries
    over between rounds; an op's latency is its fastest round, in
    reference seconds (``workloads.scaled``).  ``ops_per_s`` is the
    number of distinct correct ops over the sum of their latencies (one
    client, closed loop)."""
    probes = [probe() for _ in range(SETUP_SAMPLES)]
    batches = work.round(rng)
    best = [[math.inf] * len(ops) for ops in batches]
    best_raw = [[math.inf] * len(ops) for ops in batches]
    failed_ops: set[tuple[int, int]] = set()
    problems: list[str] = []
    attempted = rounds = 0
    wall = 0.0
    peak_rss_kb = 0
    while wall < seconds or rounds < MIN_ROUNDS:
        for b, ops in enumerate(batches):
            batch = work.run(ops, attempted, traced=False)
            if not batch.latencies:
                raise BenchError(f"a batch produced no result: {batch.problems[:1]}")
            best[b] = list(map(min, best[b], batch.latencies))
            best_raw[b] = list(map(min, best_raw[b], batch.raw_latencies))
            failed_ops.update((b, i) for i in batch.failed)
            problems += batch.problems
            attempted += batch.attempted
            wall += batch.wall
            peak_rss_kb = max(peak_rss_kb, batch.peak_rss_kb)
        rounds += 1
    latencies = [x for row in best for x in row]
    raw = [x for row in best_raw for x in row]
    tail_value, tail_at = tail(latencies)
    metrics = {
        "ops_per_s": ((len(latencies) - len(failed_ops)) / sum(latencies), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    return {
        "metrics": metrics,
        # a bound relative to a median of 0 means nothing, so this one is
        # printed but left out of the JSON metrics; failed/attempted carry it
        "shown": {"failed_share": (len(problems) / attempted, "ratio")},
        "extra": {
            "op_tail_percentile": tail_at,
            "distinct_ops": len(latencies),
            "rounds": rounds,
            "timed_wall_s": wall,
            "unscaled": {
                "ops_per_s": (len(raw) - len(failed_ops)) / sum(raw),
                "op_p50_s": statistics.median(raw),
                "op_tail_s": tail(raw)[0],
                "setup_s": statistics.median(p["raw_setup_s"] for p in probes),
            },
        },
        "attempted": attempted,
        "problems": problems,
    }


def _round(work: Workload, batches: list[list[dict]], traced: bool) -> Batch:
    total = Batch()
    for ops in batches:
        b = work.run(ops, total.attempted, traced)
        total.latencies += b.latencies
        total.problems += b.problems
        total.attempted += b.attempted
        total.wall += b.wall
        total.peak_rss_kb = max(total.peak_rss_kb, b.peak_rss_kb)
        total.spans += b.spans
        total.stdout += b.stdout
        total.totals = tracing.merge(total.totals, b.totals)
    return total


def _printed_claim_secs(stdout: list[str]) -> dict[str, float]:
    """Each claim's ``secs=`` field, read with ``arcpack.parse_claim``."""
    from arcpack import parse_claim

    secs = {}
    for text in stdout:
        for line in text.splitlines():
            if line.startswith("CLAIM "):
                claim = parse_claim(line)
                secs[claim.claim_id] = claim.elapsed
    return secs


def traced_run(work: Workload, rng: random.Random, seed: int) -> dict:
    from arcpack import CLAIM_IDS

    batches = work.round(rng)
    # interleaved, so that a slow spell of the machine hits both sides
    first, plain, second, plain_again = (
        _round(work, batches, traced) for traced in (True, False, True, False)
    )
    t = first.totals
    mismatches = [k for k in WORK_COUNTS if t.get(k, 0) != second.totals.get(k, 0)]
    if sorted(t["codes"]) != sorted(second.totals["codes"]):
        mismatches.append("enumeration.codes")
    empty = [
        f"{mod}.{attr}"
        for mod, attr, _, dominant in tracing.SITES
        if work.name in dominant and t["sites"].get(f"{mod}.{attr}", 0) == 0
    ]
    if empty:
        raise BenchError(
            f"wrapped call sites recorded no calls on {work.name}: {', '.join(empty)}; "
            "a call site moved, so perfbench/tracing.py SITES needs updating"
        )
    printed = _printed_claim_secs(first.stdout)
    if work.name == "census" and not work.smoke and set(printed) != set(CLAIM_IDS):
        raise BenchError(f"verify-paper printed claims {sorted(printed)}")
    cli_import = statistics.median(probe(with_cli=True)["cli_import_s"] for _ in range(5))

    def get(key: str) -> float:
        return t.get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {
        "fas.calls": (get("fas.calls"), "count"),
        "fas.secs": (get("fas.secs"), "s"),
        "fas.dp_cells": (get("fas.dp_cells"), "count"),
        "fas.share": (100 * ratio(get("fas.secs"), first.wall), "%"),
        "packing.calls": (get("packing.calls"), "count"),
        "packing.secs": (get("packing.secs"), "s"),
        "packing.self_secs": (get("packing.self_secs"), "s"),
        "packing.nodes": (get("packing.nodes"), "count"),
        "packing.nodes_per_s": (ratio(get("packing.nodes"), get("packing.self_secs")), "1/s"),
        "packing.optimal_ratio": (ratio(get("packing.optimal"), get("packing.calls")), "ratio"),
        "enumeration.canonical_calls": (get("enumeration.calls"), "count"),
        "enumeration.canonical_secs": (get("enumeration.secs"), "s"),
        "enumeration.classes_per_call": (
            ratio(len(set(t["codes"])), get("enumeration.calls")),
            "ratio",
        ),
        "flow.calls": (get("flow.calls"), "count"),
        "flow.secs": (get("flow.secs"), "s"),
        "flow.value_sum": (get("flow.value_sum"), "count"),
        # timed by the tracer: the printed secs= field has only 3 decimals
        **{f"claims.{cid}.secs": (get(f"claims.{cid}.secs"), "s") for cid in CLAIM_IDS},
        "digraph.parse_secs": (get("digraph.secs"), "s"),
        "cli.import_s": (cli_import, "s"),
        "trace.overhead_pct": (
            100 * (ratio(min(first.wall, second.wall), min(plain.wall, plain_again.wall)) - 1),
            "%",
        ),
        "trace.count_mismatches": (len(mismatches), "count"),
    }
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{work.name}-{seed}.json"
    spans_file.write_text(json.dumps(first.spans), encoding="utf-8")
    rounds = (first, second, plain, plain_again)
    return {
        "metrics": metrics,
        "extra": {
            "count_mismatches": mismatches,
            "walls_s": {
                "traced": [first.wall, second.wall],
                "untraced": [plain.wall, plain_again.wall],
            },
            "site_calls": t["sites"],
            "claim_secs_printed": printed,
            "spans_file": str(spans_file.relative_to(ROOT)),
        },
        "attempted": sum(r.attempted for r in rounds),
        "problems": [p for r in rounds for p in r.problems],
    }


# -- provenance and output -----------------------------------------------------


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must not be negative")
    return args


def report(name: str, args: argparse.Namespace, result: dict) -> None:
    """Print one workload's metrics, keep a copy with provenance, and end
    with the one-line JSON result."""
    prov = provenance(args.seed)
    print(f"# perfbench workload={name} trace={args.trace} smoke={int(args.smoke)}")
    print("# " + " ".join(f"{k}={json.dumps(v)}" for k, v in prov.items()))
    for metric, (value, unit) in {**result["metrics"], **result.get("shown", {})}.items():
        print(f"{name} {metric} {value:.6g} {unit}")
    for key, value in result["extra"].items():
        print(f"# {key} {json.dumps(value)}")
    for problem in result["problems"][:10]:
        print(f"# FAILED {problem}")
    failed = len(result["problems"])
    line = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    record = {"workload": name, "trace": args.trace, "provenance": prov, **line, **result["extra"]}
    out_file = OUT / f"result-{name}-{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(line), flush=True)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "arcpack" / "__init__.py").is_file():
        print(f"error: no arcpack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import arcpack

        if Path(arcpack.__file__).resolve().parent != SRC / "arcpack":
            raise BenchError(f"imported arcpack from {arcpack.__file__}, not from {SRC}")
        frozen = load_frozen()
        OUT.mkdir(exist_ok=True)
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            work = Workload(name, frozen, args.smoke)
            rng = random.Random(f"{name}:{args.seed}")
            if args.trace:
                result = traced_run(work, rng, args.seed)
            else:
                result = timed_run(work, rng, args.seconds)
            report(name, args, result)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
