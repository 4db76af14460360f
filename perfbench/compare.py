"""Compare two JSONL files of run records written with ``run.py --out``.

For each workload and metric it prints both sides' medians and quartiles and
the ratio of the medians, with the base it was taken from.  An end-to-end
metric is marked

* ``unresolved`` when either side's quartile spread, as a share of its
  median, is wider than the metric's bound in BENCHMARK.json, unless every
  change run reads better than every base run;
* ``worse`` when the change's median is worse than the base's by more than
  the bound;
* ``better`` when it is better by more than the base's own quartile spread;
* ``same`` otherwise.

Per-layer metrics have no bound and get no mark.  The machine each side ran
on is printed first.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """Run records grouped by (workload, trace flag)."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                detail = record["detail"]
                groups[(detail["workload"], detail["trace"])].append(record)
    return groups


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], change: list[float], bound: float,
            higher_better: bool) -> str:
    sign = 1 if higher_better else -1
    if spread(base) > bound or spread(change) > bound:
        if min(sign * v for v in change) > max(sign * v for v in base):
            return "better (every run)"
        return "unresolved"
    b, c = summary(base)[0], summary(change)[0]
    if not b:
        return "same" if c == b else ("better" if sign * c > 0 else "worse")
    gain = sign * (c - b) / abs(b)
    if gain < -bound:
        return "worse"
    if gain > spread(base):
        return "better"
    return "same"


def main(base_path: str, change_path: str) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(base_path), load(change_path)
    for label, groups in (("base", base), ("change", change)):
        machines = {json.dumps(r["detail"]["machine"], sort_keys=True)
                    for records in groups.values() for r in records}
        print(f"{label} machine: {' | '.join(sorted(machines))}")
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        b_runs, c_runs = base[key], change[key]
        print(f"\n{workload} ({'traced' if trace else 'end to end'}): "
              f"{len(b_runs)} base runs, {len(c_runs)} change runs")
        names = [n for n in b_runs[0]["result"]["metrics"]
                 if n in c_runs[0]["result"]["metrics"]]
        for name in names:
            unit = b_runs[0]["result"]["metrics"][name]["unit"]
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            c = [r["result"]["metrics"][name]["value"] for r in c_runs]
            bm, bq1, bq3 = summary(b)
            cm, cq1, cq3 = summary(c)
            ratio = f"{cm / bm:.3f}x of {bm:.6g}" if bm else "n/a"
            mark = ""
            if name in e2e:
                m = e2e[name]
                mark = verdict(b, c, m["bound"], m["better"] == "higher")
            print(f"  {name:30s} {unit:9s} base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  {ratio}  {mark}")
    for key in sorted(set(base) ^ set(change)):
        print(f"\n{key[0]} (trace {key[1]}): only on one side, not compared")
    return 0
