#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny n (a few seconds).

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload run.py knows, untraced and traced; that the last output
line has exactly the result keys; and that a deliberately failing op is
counted in `failed` and `fail_ratio`, not dropped.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY_N = 30
SECONDS = 0.2


def check_result(label: str, result: dict, units: dict, problems: list) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{label}: metrics {got} != {units}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], float) and math.isfinite(m["value"])):
            problems.append(f"{label}: {name} = {m['value']!r}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_result(dict(result))
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: last line keys {sorted(last)}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    unknown = {w["name"] for w in spec["workloads"]} - set(run.WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")

    for workload in run.WORKLOADS:
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            result = run.run_workload(workload, 1, SECONDS, trace, n=TINY_N)
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['detail']}")
            check_result(label, result, units[trace], problems)

    bad = run.Op("12:00", "no-such-heliostat")
    for trace in (False, True):
        label = f"failing op trace={int(trace)}"
        result = run.run_workload("noon-1000", 1, SECONDS, trace, n=TINY_N, extra_ops=[bad])
        detail = result["detail"]
        failed, attempted = result["failed"], result["attempted"]
        if result["correct"] or failed < 1 or attempted <= failed:
            problems.append(f"{label}: correct={result['correct']} {failed}/{attempted}")
        if detail["fail_ratio"] != failed / attempted:
            problems.append(f"{label}: fail_ratio {detail['fail_ratio']} != {failed}/{attempted}")
        if not all("no-such-heliostat" in f for f in detail["failures"]):
            problems.append(f"{label}: unexpected failures {detail['failures']}")
        check_result(label, result, units[trace], problems)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
