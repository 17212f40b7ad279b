"""Child process that calls into arcpack for the benchmark.

    python3 perfbench/worker.py ops [--trace]     run one batch of ops
    python3 perfbench/worker.py probe [--cli]     set-up only
    python3 perfbench/worker.py cli [--trace] ARGS...   arcpack's CLI

``ops`` prints ``ready`` and ``probe`` its import times once ``import
arcpack`` is done; the parent stops its set-up clock at that first line.
``ops`` then reads one JSON batch from standard input, runs every op in
order, and prints one JSON line with latencies, outputs and timings of
the reference computation taken between ops. The parent checks the
outputs; nothing here judges them. ``cli`` runs
``arcpack.cli.main`` and writes its peak memory (and spans, when traced)
to the file named by ``PERFBENCH_OUT``.

The parent names the CPU to run on in ``PERFBENCH_CPU``. Peak memory is
read from ``VmHWM``, which starts afresh when the process image is
replaced; ``ru_maxrss`` would also count the pages of the parent that
the child shared before ``exec``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# Seconds of ops between two timings of the reference computation.
REFERENCE_EVERY = 0.05


def _ops(traced: bool) -> None:
    import arcpack.digraph
    import arcpack.flow
    import arcpack.packing
    from workloads import time_reference

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)

    batch = json.load(sys.stdin)
    budget = arcpack.packing.Budget(*batch["budget"])
    clock = time.perf_counter
    latencies, outputs = [], []
    # (index of the next op, seconds of the reference computation)
    refs = [(0, time_reference())]
    wall = 0.0
    for i, op in enumerate(batch["ops"]):
        if wall > REFERENCE_EVERY * len(refs):
            refs.append((i, time_reference()))
        if tracer:
            tracer.op = batch["first_op"] + i
        t0 = clock()
        # Module attributes are looked up per call so that traced
        # wrappers, installed above, see these calls too.
        d = arcpack.digraph.parse_graph(op["text"])
        if batch["kind"] == "packing":
            rep = arcpack.packing.max_cycle_packing(d, budget)
            out = (rep.value, rep.cycles, rep.optimal, rep.nodes_explored)
        else:
            value, cycles = arcpack.flow.max_cycles_through(d, op["vertex"])
            cut = arcpack.flow.min_arc_cover_through(d, op["vertex"])
            out = (value, cycles, sorted(cut))
        latencies.append(clock() - t0)
        wall += latencies[-1]
        outputs.append(out)
    refs.append((len(batch["ops"]), time_reference()))

    if batch["kind"] == "packing":
        keys = ("value", "cycles", "optimal", "nodes")
    else:
        keys = ("value", "cycles", "cut")
    result = {
        "latencies": latencies,
        "wall": wall,
        "refs": refs,
        "outputs": [dict(zip(keys, out)) for out in outputs],
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer:
        result["spans"] = tracer.dump()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


def _probe(with_cli: bool) -> None:
    t0 = time.perf_counter()
    import arcpack  # noqa: F401

    t1 = time.perf_counter()
    if with_cli:
        import arcpack.cli  # noqa: F401
    print(json.dumps({"import_s": t1 - t0, "cli_import_s": time.perf_counter() - t1}), flush=True)


def _cli(argv: list[str]) -> int:
    tracer = None
    if argv[:1] == ["--trace"]:
        from tracing import Tracer

        argv = argv[1:]
        tracer = Tracer()
        tracer.install()
    import arcpack.cli

    try:
        return arcpack.cli.main(argv)
    finally:
        sys.stdout.flush()
        record = {"peak_rss_kb": peak_rss_kb(), "spans": tracer.dump() if tracer else []}
        with open(os.environ["PERFBENCH_OUT"], "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def main(argv: list[str]) -> int:
    if "PERFBENCH_CPU" in os.environ:
        os.sched_setaffinity(0, {int(os.environ["PERFBENCH_CPU"])})
    mode, rest = argv[0], argv[1:]
    if mode == "ops":
        _ops("--trace" in rest)
    elif mode == "probe":
        _probe("--cli" in rest)
    elif mode == "cli":
        return _cli(rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
