#!/usr/bin/env python3
"""End-to-end benchmark of the Descend reproduction.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the harness from the sources of the checkout (perfbench/CMakeLists.txt,
into $CARGO_TARGET_DIR or .bench_build), then runs workload W for S seconds
with inputs drawn from seed N. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where metrics holds
every end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer
metric (--trace 1), each as {"value", "unit"}. A line starting with
PROVENANCE before it records what was measured. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

# Set-up is timed in this many extra processes besides the measured run,
# half of them before it and half after, so they meet a shared machine in
# more than one state; setup_s is the median of all of them.
SETUP_SAMPLES = 8


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_harness")


def git_state():
    """The checkout's git SHA and whether the tree differs from it; both
    None outside a git checkout."""
    def git(*args):
        try:
            out = subprocess.run(["git"] + list(args), cwd=ROOT,
                                 capture_output=True, text=True)
        except OSError:
            return None
        return out.stdout if out.returncode == 0 else None
    sha = git("rev-parse", "HEAD")
    if sha is None:
        return None, None
    return sha.strip(), bool(git("status", "--porcelain"))


def harness(binary, args, timeout):
    out = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                         text=True, timeout=timeout)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"harness {' '.join(args)} exited with {out.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # The harness rejects unknown workloads. run_vm is not in
    # BENCHMARK.json (README.md: too noisy to gate) but runs here too.

    binary = build()
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    run_args = common + ["--seconds", str(opts.seconds)]
    if opts.trace:
        run_args.append("--trace")
    budget = 60 + 4 * opts.seconds

    def setup_samples(n):
        return [harness(binary, common + ["--mode", "setup"], budget)[0]
                ["setup_s"] for _ in range(n)]

    setups = [] if opts.trace else setup_samples(SETUP_SAMPLES // 2)
    result, text = harness(binary, run_args, budget)
    correct = result["ok"]
    measured = dict(result["end_to_end"])
    if opts.trace:
        measured = dict(result["per_layer"])
        # The exact counts and the compile verdicts must repeat in a second
        # process; later count-based claims rest on that.
        again, _ = harness(binary, ["--mode", "counts", "--seed",
                                    str(opts.seed)], budget)
        for name, value in again["counts"].items():
            if measured.get(name) != value:
                print(f"perfbench: count {name} did not repeat: "
                      f"{measured.get(name)} then {value}", file=sys.stderr)
                correct = False
        if again["verdicts"] != result["verdicts"]:
            print("perfbench: compile_cold verdicts did not repeat",
                  file=sys.stderr)
            correct = False
    else:
        setups += [measured["setup_s"]] + setup_samples(SETUP_SAMPLES // 2)
        measured["setup_s"] = statistics.median(setups)

    for line in text:
        print(line)
    sha, dirty = git_state()
    provenance = {
        "git_sha": sha, "dirty": dirty, "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds, "trace": opts.trace,
        "workers": result["workers"], "nproc": result["nproc"],
        "compiler": result["compiler"], "requests": result["requests"],
        "windows": result["windows"], "attempted": result["attempted"],
        "spans": result["spans"], "obs_events": result["obs_events"],
    }
    print("PROVENANCE " + json.dumps(provenance, sort_keys=True))

    key = "per_layer" if opts.trace else "end_to_end"
    metrics = {}
    for m in spec[key]:
        if m["name"] not in measured:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct) and result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    if not correct or result["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
