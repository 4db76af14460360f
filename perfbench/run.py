"""delta-lab benchmark: one closed-loop client, three seeded workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload bisim --seed 1 --trace 1 --out runs.jsonl
    python3 perfbench/run.py --compare base.jsonl change.jsonl

The program is imported from ``src/`` next to this directory, never from an
installed copy.  A run sets up its workload several times (fresh import,
input generation, cache fill) and reports the median as ``setup_s``.  It then
runs whole rounds of queries, each query issued when the previous one has
returned, until ``--seconds`` have passed, and checks every answer.

With ``--trace 1`` it instead runs each workload's first round once with
spans around the public functions of every layer, and reports the per-layer
metrics and the tracing overhead: each query of the chosen workload also runs
untraced just before its traced run.
Spans are written to ``.perfbench/spans-<workload>.jsonl``.

The last line of standard output is the result object; the line before it
holds the details (tail percentile, sample counts, failures, machine info).
See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("formula", "model", "semantics", "transform", "bisim",
           "definability", "proofsys", "generators", "cli")
SETUP_RUNS = 3
TAIL_BEYOND = 10
perf_counter = time.perf_counter


def fresh_import() -> SimpleNamespace:
    """Import delta_lab from ``src/`` anew, dropping any earlier import, so
    that each set-up pays for import and starts with empty caches."""
    for name in [n for n in sys.modules if n.split(".")[0] == "delta_lab"]:
        del sys.modules[name]
    mods = SimpleNamespace(**{name: importlib.import_module("delta_lab." + name)
                              for name in MODULES})
    if Path(mods.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"delta_lab was imported from {mods.cli.__file__}")
    return mods


def machine_info() -> dict[str, object]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "system": platform.system()}


def run_query(query, failures: list[str]) -> float:
    """Issue one query and check its answer; return its latency in seconds."""
    start = perf_counter()
    try:
        result = query.run()
    except Exception as exc:  # noqa: BLE001 - a failed query is counted
        failures.append(f"{query.label}: {type(exc).__name__}: {exc}")
        return perf_counter() - start
    latency = perf_counter() - start
    try:
        query.check(result)
    except Exception as exc:  # noqa: BLE001 - a wrong answer is counted
        failures.append(f"{query.label}: {type(exc).__name__}: {exc}")
    return latency


def run_round(queries, failures: list[str]) -> list[float]:
    """Issue every query once, in order; return the latencies."""
    return [run_query(query, failures) for query in queries]


def unit_of(name: str) -> str:
    """Metric units follow the name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"),
                         ("_s", "s"), ("_mb", "MB"), ("_pct", "%"),
                         ("_frac", "fraction")):
        if name.endswith(suffix):
            return unit
    return "count"


def end_to_end(workload, seed: int, seconds: float):
    setups = []
    for _ in range(SETUP_RUNS):
        queries = None           # let the previous import go before timing
        start = perf_counter()
        mods = fresh_import()
        queries = workload.setup(mods, seed)
        setups.append(perf_counter() - start)
    failures: list[str] = []
    latencies: list[float] = []
    rounds = 0
    start = perf_counter()
    # Whole rounds only, so every run weighs the schedule alike.
    while rounds == 0 or perf_counter() - start < seconds:
        if rounds:
            queries = workload.round(mods, seed, rounds)
        latencies += run_round(queries, failures)
        rounds += 1
    # The tail is the highest percentile with TAIL_BEYOND samples beyond it
    # in one round, fixed per workload so runs with more rounds compare:
    # over whole rounds it has TAIL_BEYOND samples beyond it per round.
    tail_pct = 100 * (1 - TAIL_BEYOND / len(queries))
    attempted = len(latencies)
    tail_rank = attempted - TAIL_BEYOND * rounds
    metrics = {
        "queries_per_s": attempted / sum(latencies),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_tail_ms": sorted(latencies)[tail_rank - 1] * 1e3,
        "pass_frac": 1 - len(failures) / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"rounds": rounds, "round_queries": len(queries),
              "samples": attempted, "failed_frac": len(failures) / attempted,
              "tail_percentile": round(tail_pct, 3),
              "tail_beyond": attempted - tail_rank,
              "setup_runs_s": setups}
    return metrics, attempted, failures, detail


@contextlib.contextmanager
def tracing(tracer, mods, layers):
    """Spans around the given layers' functions for the ``with`` body."""
    for module, attr, hook in layers:
        tracer.trace(getattr(mods, module), attr,
                     on_return=None if hook == "generator" else hook,
                     generator=hook == "generator")
    try:
        yield
    finally:
        tracer.restore()


def per_layer(workloads, main: str, seed: int):
    from spans import Tracer

    mods = fresh_import()
    setup_tracer = Tracer()
    with tracing(setup_tracer, mods, workloads.SETUP_LAYERS):
        rounds = {name: w.setup(mods, seed)
                  for name, w in workloads.WORKLOADS.items()}
    metrics = dict(workloads.setup_metrics(setup_tracer))

    # Each query of the chosen workload also runs untraced, right before or
    # after its traced run (alternating), so that the overhead compares like
    # with like on a machine whose speed drifts.
    failures: list[str] = []
    attempted = 0
    untraced = traced = 0.0
    tracers = {"setup": setup_tracer}
    for name, w in workloads.WORKLOADS.items():
        tracer = tracers[name] = Tracer()
        queries = rounds[name]
        if name == main:
            for qid, query in enumerate(queries):
                tracer.query = qid
                for traced_now in ((False, True) if qid % 2 else (True, False)):
                    if traced_now:
                        with tracing(tracer, mods, w.layers):
                            traced += run_query(query, failures)
                    else:
                        untraced += run_query(query, failures)
            attempted += 2 * len(queries)
        else:
            with tracing(tracer, mods, w.layers):
                for qid, query in enumerate(queries):
                    tracer.query = qid
                    run_query(query, failures)
            attempted += len(queries)
        try:
            metrics.update(w.metrics(tracer))
        except workloads.WrongAnswer as exc:
            failures.append(f"{name} trace: {exc}")
    metrics["trace.overhead_pct"] = 100 * (traced / untraced - 1)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{main}.jsonl", "w", encoding="utf-8") as fh:
        for name, tracer in tracers.items():
            tracer.write(fh, name)
    detail = {"untraced_round_s": untraced, "traced_round_s": traced,
              "counts": {k: v for t in tracers.values() for k, v in t.counts.items()}}
    return metrics, attempted, failures, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "bisim", "eval"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two JSONL files of run records")
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "delta_lab" / "__init__.py").is_file():
        print(f"error: no delta_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    try:
        if args.trace:
            metrics, attempted, failures, detail = per_layer(
                workloads, args.workload, args.seed)
        else:
            metrics, attempted, failures, detail = end_to_end(
                workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    except Exception:  # noqa: BLE001 - report and exit non-zero, no result
        traceback.print_exc()
        return 1
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine_info(), failures=failures[:20])
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"detail": detail, "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
