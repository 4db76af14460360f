"""Checks on the benchmark itself.

    python3 perfbench/selfcheck.py

1. The verification bites: a sweep round whose answer table has one wrong
   count and one wrong exit code must report exactly those two queries as
   failed, while the correct rows pass.
2. The computed counts repeat: two traced runs with the same seed must give
   identical counts (valuations, frames, blocks, rounds, unions, rows).

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys

import answers
import run


def wrong_rows_fail() -> bool:
    sys.path.insert(0, str(run.SRC))
    import workloads

    cheap = [r for r in answers.ROWS if r.args[0] == "enumerate"]
    bad_count = dataclasses.replace(
        cheap[0], expect={"count": cheap[0].expect["count"] + 1})
    bad_exit = dataclasses.replace(cheap[1], exit=1)
    rows = cheap[2:] + [bad_count, bad_exit]
    mods = run.fresh_import()
    workloads.sweep_caches(mods)
    failures: list[str] = []
    queries = workloads.sweep_round(mods, workloads.random.Random(0), rows)
    run.run_round(queries, failures)
    failed = sorted(f.split(":")[0] for f in failures)
    expected = sorted(" ".join(r.args) for r in (bad_count, bad_exit))
    ok = failed == expected
    print(f"wrong rows: {len(failures)} of {len(rows)} queries failed "
          f"({'as expected' if ok else 'NOT as expected'}): {failures}")
    return ok


def counts_repeat(seed: int = 1) -> bool:
    sys.path.insert(0, str(run.SRC))
    import workloads

    counted = []
    for _ in range(2):
        metrics, _, failures, detail = run.per_layer(workloads, "eval", seed)
        if failures:
            print(f"traced run failed: {failures[:3]}")
            return False
        counts = {k: v for k, v in metrics.items() if run.unit_of(k) == "count"}
        counted.append((counts, detail["counts"]))
    ok = counted[0] == counted[1]
    print(f"computed counts {'repeat' if ok else 'DIFFER'} across two traced runs: "
          f"{counted[0][0]}")
    return ok


if __name__ == "__main__":
    results = [wrong_rows_fail(), counts_repeat()]
    sys.exit(0 if all(results) else 1)
