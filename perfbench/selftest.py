#!/usr/bin/env python3
"""Quick self-test of the benchmark: runs every workload of BENCHMARK.json,
and run_vm, for a moment, untraced and traced, and checks the result line. Every
metric named in BENCHMARK.json must be printed with its unit, every
request must succeed, and the run must report itself correct.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    problems = []
    # run_vm is run and checked like the gated workloads (README.md).
    for name in [w["name"] for w in spec["workloads"]] + ["run_vm"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = ["python3", "perfbench/run.py", "--workload", name,
                   "--seed", "7", "--seconds", str(SECONDS),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True)
            where = f"{name} --trace {trace}"
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                problems.append(f"{where}: exit {out.returncode}\n"
                                f"{out.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{where}: keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} "
                                f"attempted={result['attempted']}")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{where}: {m['name']} missing")
                elif got["unit"] != m["unit"] or \
                        not isinstance(got["value"], (int, float)):
                    problems.append(f"{where}: {m['name']} = {got}")
            if trace == 0 and result["metrics"]["success_rate"]["value"] != 1:
                problems.append(f"{where}: success_rate "
                                f"{result['metrics']['success_rate']}")
            print(f"ok   {where}: {result['attempted']} requests",
                  flush=True)

    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
