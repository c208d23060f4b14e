#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs the benchmark's unit tests (among them a queue that drops one item,
which must raise the failure count above 0), then a smoke-size run of
every workload in BENCHMARK.json with tracing off and on. Each run must
pass its own correctness checks, end with the JSON result line, and print
exactly the metrics BENCHMARK.json names for that mode, each with the unit
it declares; the end-to-end values must be positive.

Run from anywhere:  python3 perfbench/selftest.py
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = ["--manifest-path", "perfbench/Cargo.toml"]
    subprocess.run(["cargo", "test", "--release", "--offline", "--quiet", *manifest],
                   cwd=ROOT, check=True)
    problems = []
    for workload in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", workload["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            run = subprocess.run(bench["command"] + args, cwd=ROOT,
                                 capture_output=True, text=True, timeout=300)
            where = f"{workload['name']} --trace {trace}"
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append(f"{where}: exit {run.returncode}\n{run.stdout}{run.stderr}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: checks failed: {result}")
            expected = {m["name"]: m["unit"] for m in bench[key]}
            printed = result["metrics"]
            if set(printed) != set(expected):
                problems.append(f"{where}: missing {sorted(set(expected) - set(printed))}, "
                                f"unexpected {sorted(set(printed) - set(expected))}")
            for name, unit in expected.items():
                metric = printed.get(name)
                if metric is None:
                    continue
                if metric.get("unit") != unit:
                    problems.append(f"{where}: {name} has unit {metric.get('unit')}, not {unit}")
                value = metric.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {value!r}")
                elif key == "end_to_end" and value <= 0:
                    problems.append(f"{where}: end-to-end {name} = {value}")
    for p in problems:
        print("FAIL:", p)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
