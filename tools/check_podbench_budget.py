#!/usr/bin/env python3
"""Gates deterministic pod-benchmark metrics against fixed budgets.

    python3 tools/check_podbench_budget.py <output.txt> BUDGET [BUDGET ...]

Each BUDGET is NAME=MAX for a lower-is-better metric (fails when the value
exceeds MAX) or NAME>=MIN for a higher-is-better one (fails when the value
falls below MIN). Quote the >= form in a shell.

Reads the last line of a podbench run's standard output (one JSON object:
correct, attempted, failed, metrics), and fails when the run was not
correct, when a budgeted metric is missing, or when its value is on the
wrong side of its bound. Use it on modeled metrics only (per-layer sim_ns,
per-op event counts): they are a function of binary, seed and workload,
so a fixed budget holds them without noise. Example:

    python3 podbench/run.py --workload churn_mcas --seed 1 --seconds 5 \\
        --trace 1 > churn.txt
    python3 tools/check_podbench_budget.py churn.txt \\
        mem.mcas_ops_per_op=0.40 'mem.mcas_batch_occupancy>=2.8'
"""

import json
import sys
from pathlib import Path


def last_json_line(path):
    lines = [l for l in Path(path).read_text().splitlines() if l.strip()]
    if not lines:
        raise ValueError(f"{path}: empty output")
    return json.loads(lines[-1])


def parse_budget(arg):
    """Returns (name, bound, at_least) for NAME=MAX or NAME>=MIN."""
    at_least = ">=" in arg
    name, sep, bound = arg.partition(">=" if at_least else "=")
    if not sep or not name:
        raise ValueError(f"budget '{arg}' is not NAME=MAX or NAME>=MIN")
    try:
        return name, float(bound), at_least
    except ValueError:
        raise ValueError(f"budget '{arg}' has a non-numeric bound") from None


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        result = last_json_line(argv[1])
        budgets = [parse_budget(a) for a in argv[2:]]
    except ValueError as err:
        print(f"check_podbench_budget: {err}", file=sys.stderr)
        return 2
    failures = 0
    if result.get("correct") is not True:
        print("run not correct", file=sys.stderr)
        failures += 1
    metrics = result.get("metrics", {})
    for name, bound, at_least in budgets:
        entry = metrics.get(name)
        if entry is None:
            print(f"{name:<45} missing", file=sys.stderr)
            failures += 1
            continue
        value = entry["value"]
        ok = value >= bound if at_least else value <= bound
        print(f"{name:<45} {value:12.4f} {'>=' if at_least else '<='} "
              f"{bound:<12g} {'ok' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} budget check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
