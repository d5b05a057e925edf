#!/usr/bin/env bash
# Builds and runs the benchmark binaries, writing machine-readable
# BENCH_<name>.json files (one per bench) next to the raw logs.
#
# Usage: tools/run_benches.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  cmake build directory (default: build)
#   OUT_DIR    where BENCH_*.json and *.log land (default: bench-results)
#
# Set DESCEND_BENCH_QUICK=1 to skip the (slow) Figure 8 run.

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-results}"
ROOT_DIR="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT_DIR"

# Benchmark numbers taken with fault injection armed would be garbage —
# an injected delay or trap skews every timing and can poison a device
# mid-bench. Refuse to run rather than produce silently-wrong results.
if [ -n "${DESCEND_FAULTS:-}" ]; then
  echo "run_benches.sh: error: DESCEND_FAULTS is set ('${DESCEND_FAULTS}');" \
       "benchmarks must run with fault injection disabled" >&2
  exit 2
fi

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j --target bench_safety bench_fig8 \
    bench_matmul_sweep bench_throughput >/dev/null
HAVE_ABLATIONS=0
if cmake --build "$BUILD_DIR" -j --target bench_ablations >/dev/null 2>&1; then
  HAVE_ABLATIONS=1
fi

mkdir -p "$OUT_DIR"

#===---------------------------------------------------------------------===#
# bench_safety: compile-time verdict table -> BENCH_safety.json
#===---------------------------------------------------------------------===#

echo "== bench_safety =="
"$BUILD_DIR/bench_safety" | tee "$OUT_DIR/bench_safety.log"
python3 - "$OUT_DIR/bench_safety.log" "$OUT_DIR/BENCH_safety.json" <<'PY'
import json, re, sys
log = open(sys.argv[1]).read()
rows = []
for m in re.finditer(
    r"^([SPH]\d+)\s+(.*?)\s+(accept|reject)\s+(accepted|rejected|WRONG)"
    r"\s+([0-9.]+)ms$", log, re.M):
    rows.append({"id": m.group(1), "case": m.group(2).strip(),
                 "expect": m.group(3), "verdict": m.group(4),
                 "compile_ms": float(m.group(5))})
summary = re.search(r"(\d+)/(\d+) verdicts as the paper describes", log)
json.dump({"bench": "safety", "unit": "ms", "rows": rows,
           "correct": int(summary.group(1)) if summary else None,
           "total": int(summary.group(2)) if summary else None},
          open(sys.argv[2], "w"), indent=2)
PY
echo "-> $OUT_DIR/BENCH_safety.json"

#===---------------------------------------------------------------------===#
# bench_fig8: handwritten-vs-generated table -> BENCH_fig8.json
#===---------------------------------------------------------------------===#

if [ "${DESCEND_BENCH_QUICK:-0}" != "1" ]; then
  echo "== bench_fig8 (this takes a while) =="
  "$BUILD_DIR/bench_fig8" | tee "$OUT_DIR/bench_fig8.log"
  python3 - "$OUT_DIR/bench_fig8.log" "$OUT_DIR/BENCH_fig8.json" <<'PY'
import json, re, sys
log = open(sys.argv[1]).read()
# Per-row perf-counter summaries: one counted run per (bench, size),
# printed by bench_fig8 after the timing table.
counters = {}
for m in re.finditer(
    r"^COUNTERS (Reduce|Transpose|Scan|MM) (small|medium|large) (\{.*\})$",
    log, re.M):
    counters[(m.group(1), m.group(2))] = json.loads(m.group(3))
rows = []
for m in re.finditer(
    r"^(Reduce|Transpose|Scan|MM)\s+(small|medium|large)\s+"
    r"([0-9.]+)\s+([0-9.]+)\s+([0-9.]+)x$", log, re.M):
    rows.append({"bench": m.group(1), "size": m.group(2),
                 "cuda_ms": float(m.group(3)),
                 "descend_ms": float(m.group(4)),
                 "relative": float(m.group(5)),
                 "counters": counters.get((m.group(1), m.group(2)))})
mean = re.search(r"^Mean\s+([0-9.]+)x$", log, re.M)
json.dump({"bench": "fig8", "unit": "ms", "rows": rows,
           "geomean_relative": float(mean.group(1)) if mean else None},
          open(sys.argv[2], "w"), indent=2)
PY
  echo "-> $OUT_DIR/BENCH_fig8.json"

  # Regression gate: the Fig. 8 geometric mean must not drop below 0.95x
  # of the checked-in baseline (tools/bench_baseline.json). A real perf
  # regression fails the bench job instead of silently shipping.
  python3 - "$OUT_DIR/BENCH_fig8.json" "$ROOT_DIR/tools/bench_baseline.json" <<'PY'
import json, sys
measured = json.load(open(sys.argv[1])).get("geomean_relative")
base = json.load(open(sys.argv[2]))
baseline = base["fig8_geomean_relative"]
min_ratio = base.get("min_ratio", 0.95)
if measured is None:
    sys.exit("bench gate: no geometric mean in BENCH_fig8.json")
floor = baseline * min_ratio
verdict = "PASS" if measured >= floor else "FAIL"
print(f"bench gate: fig8 geomean {measured:.3f}x vs baseline "
      f"{baseline:.3f}x (floor {floor:.3f}x) -> {verdict}")
if measured < floor:
    sys.exit(1)
PY
else
  echo "== bench_fig8 skipped (DESCEND_BENCH_QUICK=1) =="
fi

#===---------------------------------------------------------------------===#
# bench_matmul_sweep: matmul nt=4/8/16/32 ratios, default and tuned
# (--pad-shared=1) variants -> BENCH_matmul_sweep.json
# (the phase-program IR regression guard: ratios must stay flat over nt;
# the tuned rows are the schedule-pass/autotuner regression harness)
#===---------------------------------------------------------------------===#

echo "== bench_matmul_sweep =="
"$BUILD_DIR/bench_matmul_sweep" | tee "$OUT_DIR/bench_matmul_sweep.log"
python3 - "$OUT_DIR/bench_matmul_sweep.log" \
          "$OUT_DIR/BENCH_matmul_sweep.json" <<'PY'
import json, re, sys
log = open(sys.argv[1]).read()
counters = {}
for m in re.finditer(r"^COUNTERS (MMsweep|MMtuned) nt=(\d+) (\{.*\})$",
                     log, re.M):
    counters[(m.group(1), int(m.group(2)))] = json.loads(m.group(3))
rows = []
for m in re.finditer(
    r"^(MMsweep|MMtuned)\s+nt=(\d+)\s+([0-9.]+)\s+([0-9.]+)\s+([0-9.]+)x$",
    log, re.M):
    rows.append({"bench": "MM",
                 "variant": "tuned" if m.group(1) == "MMtuned" else "default",
                 "nt": int(m.group(2)),
                 "cuda_ms": float(m.group(3)),
                 "descend_ms": float(m.group(4)),
                 "relative": float(m.group(5)),
                 "counters": counters.get((m.group(1), int(m.group(2))))})
# Per-nt default-vs-tuned counter deltas: what the shared-padding pass
# bought, by the deterministic counters (the autotuner's scoring signal).
tuned = {}
for nt in sorted({r["nt"] for r in rows}):
    default = next((r for r in rows
                    if r["nt"] == nt and r["variant"] == "default"), None)
    t = next((r for r in rows
              if r["nt"] == nt and r["variant"] == "tuned"), None)
    if not default or not t or not default["counters"] or not t["counters"]:
        continue
    dc = default["counters"]["bank_conflicts"]
    tc = t["counters"]["bank_conflicts"]
    tuned[str(nt)] = {
        "default_conflicts": dc,
        "tuned_conflicts": tc,
        "conflict_improvement": (dc - tc) / dc if dc else 0.0,
        "default_shared_transactions": default["counters"][
            "shared_transactions"],
        "tuned_shared_transactions": t["counters"]["shared_transactions"]}
json.dump({"bench": "matmul_sweep", "unit": "ms", "rows": rows,
           "tuned_deltas": tuned},
          open(sys.argv[2], "w"), indent=2)
PY
echo "-> $OUT_DIR/BENCH_matmul_sweep.json"

# Regression gate: the tuned (--pad-shared=1) matmul must reduce bank
# conflicts vs the default lowering by at least
# matmul_tuned_min_improvement at EVERY sweep nt — the schedule passes
# exist to buy this, and the gate keeps a lowerer or pass change from
# quietly giving it back. (Measured ~0.889 at the schedule-pass PR.)
python3 - "$OUT_DIR/BENCH_matmul_sweep.json" \
          "$ROOT_DIR/tools/bench_baseline.json" <<'PY'
import json, sys
deltas = json.load(open(sys.argv[1])).get("tuned_deltas") or {}
floor = json.load(open(sys.argv[2])).get("matmul_tuned_min_improvement", 0.5)
if not deltas:
    sys.exit("bench gate: no tuned_deltas in BENCH_matmul_sweep.json")
worst_nt = min(deltas, key=lambda nt: deltas[nt]["conflict_improvement"])
worst = deltas[worst_nt]["conflict_improvement"]
verdict = "PASS" if worst >= floor else "FAIL"
print(f"bench gate: matmul tuned conflict improvement "
      f"{worst:.3f} at nt={worst_nt} (worst of {len(deltas)} nts, "
      f"floor {floor:.3f}) -> {verdict}")
if worst < floor:
    sys.exit(1)
PY

#===---------------------------------------------------------------------===#
# bench_throughput: launch-path throughput -> BENCH_throughput.json
# (absolute launch rate; gated on the persistent-pool vs spawn-per-launch
# speedup so the executor can never quietly regress to per-launch spawns)
#===---------------------------------------------------------------------===#

echo "== bench_throughput =="
"$BUILD_DIR/bench_throughput" | tee "$OUT_DIR/bench_throughput.log"
python3 - "$OUT_DIR/bench_throughput.log" \
          "$OUT_DIR/BENCH_throughput.json" <<'PY'
import json, re, sys
log = open(sys.argv[1]).read()
rows = []
for m in re.finditer(
    r"^THROUGHPUT (\S+) mode=(\S+)(?: workers=(\d+) nb=(\d+))? "
    r"count=(\d+) ms=([0-9.]+) rate=([0-9.]+)$", log, re.M):
    row = {"section": m.group(1), "mode": m.group(2),
           "count": int(m.group(5)), "ms": float(m.group(6)),
           "rate_per_sec": float(m.group(7))}
    if m.group(3):
        row["workers"] = int(m.group(3))
        row["nb"] = int(m.group(4))
    rows.append(row)
# Reported, not gated: whole-pipeline replay and the graph-mode drivers
# over the sync drivers, per serving worker count.
vs_sync = [{"workers": int(m.group(1)),
            "replay_vs_sync": float(m.group(2)),
            "graph_driver_vs_sync": {"nb1": float(m.group(3)),
                                     "nb64": float(m.group(4))}}
           for m in re.finditer(
               r"^THROUGHPUT vs_sync workers=(\d+) replay_vs_sync=([0-9.]+) "
               r"graph_driver_vs_sync_nb1=([0-9.]+) "
               r"graph_driver_vs_sync_nb64=([0-9.]+)$", log, re.M)]
speed = re.search(
    r"^THROUGHPUT speedup pool_vs_spawn=([0-9.]+) streams_vs_spawn="
    r"([0-9.]+)$", log, re.M)
service = re.search(
    r"^THROUGHPUT service_summary hit_rate=([0-9.]+) cold_ms=([0-9.]+) "
    r"warm_ms=([0-9.]+) warm_speedup=([0-9.]+) entries=(\d+) "
    r"evictions=(\d+)$", log, re.M)
shape = re.search(
    r"^THROUGHPUT graph_shape ops_quickstart=(\d+) ops_reduction=(\d+) "
    r"replays=(\d+)$", log, re.M)
pipe_shape = re.search(
    r"^THROUGHPUT graph_shape ops_pipeline=(\d+) replays=(\d+)$", log, re.M)
graph = re.search(
    r"^THROUGHPUT graph_summary replay_vs_reenqueue=([0-9.]+) "
    r"replays=(\d+)$", log, re.M)
# bench_throughput pins its own worker count (the spawn-vs-pool
# comparison is the same experiment on every machine); record it.
pinned = re.search(r"launch-path throughput \(workers=(\d+)\)", log)
json.dump({"bench": "throughput", "unit": "ops/s", "rows": rows,
           "workers": int(pinned.group(1)) if pinned else None,
           "pool_vs_spawn_speedup": float(speed.group(1)) if speed else None,
           "streams_vs_spawn_speedup":
               float(speed.group(2)) if speed else None,
           "service": None if not service else {
               "hit_rate": float(service.group(1)),
               "cold_ms": float(service.group(2)),
               "warm_ms": float(service.group(3)),
               "warm_speedup": float(service.group(4)),
               "entries": int(service.group(5)),
               "evictions": int(service.group(6))},
           "graph": None if not graph else {
               "replay_vs_reenqueue": float(graph.group(1)),
               "requests": int(graph.group(2)),
               "ops_quickstart": int(shape.group(1)) if shape else None,
               "ops_reduction": int(shape.group(2)) if shape else None,
               "driver_replays": int(shape.group(3)) if shape else None,
               "ops_pipeline":
                   int(pipe_shape.group(1)) if pipe_shape else None,
               "pipeline_replays":
                   int(pipe_shape.group(2)) if pipe_shape else None},
           "vs_sync": vs_sync},
          open(sys.argv[2], "w"), indent=2)
PY
echo "-> $OUT_DIR/BENCH_throughput.json"

# Regression gate: the persistent pool must beat the per-launch-spawn
# baseline by at least throughput_min_speedup (tools/bench_baseline.json)
# on the small-launch rate.
python3 - "$OUT_DIR/BENCH_throughput.json" \
          "$ROOT_DIR/tools/bench_baseline.json" <<'PY'
import json, sys
measured = json.load(open(sys.argv[1])).get("pool_vs_spawn_speedup")
floor = json.load(open(sys.argv[2])).get("throughput_min_speedup", 5.0)
if measured is None:
    sys.exit("bench gate: no pool_vs_spawn speedup in BENCH_throughput.json")
verdict = "PASS" if measured >= floor else "FAIL"
print(f"bench gate: throughput pool-vs-spawn {measured:.2f}x "
      f"(floor {floor:.2f}x) -> {verdict}")
if measured < floor:
    sys.exit(1)
PY

# Regression gate: a compile-service cache hit must beat a cold compile
# by at least service_min_hit_speedup — the whole point of the service is
# that -D specialization is a cache probe, not a rebuild.
python3 - "$OUT_DIR/BENCH_throughput.json" \
          "$ROOT_DIR/tools/bench_baseline.json" <<'PY'
import json, sys
service = json.load(open(sys.argv[1])).get("service")
floor = json.load(open(sys.argv[2])).get("service_min_hit_speedup", 10.0)
if not service:
    sys.exit("bench gate: no service summary in BENCH_throughput.json")
measured = service["warm_speedup"]
verdict = "PASS" if measured >= floor else "FAIL"
print(f"bench gate: compile-service warm-hit {measured:.1f}x over cold "
      f"(floor {floor:.1f}x, hit rate {service['hit_rate']:.3f}) "
      f"-> {verdict}")
if measured < floor:
    sys.exit(1)
PY

# Regression gate: replaying the captured mixed serving pipeline must
# beat re-enqueueing every op each iteration by at least
# graph_min_replay_speedup — the single-enqueue replay path is the point
# of sim::Graph, and this keeps it from quietly regressing to per-op
# enqueue cost.
python3 - "$OUT_DIR/BENCH_throughput.json" \
          "$ROOT_DIR/tools/bench_baseline.json" <<'PY'
import json, sys
bench = json.load(open(sys.argv[1]))
graph = bench.get("graph")
floor = json.load(open(sys.argv[2])).get("graph_min_replay_speedup", 2.0)
if not graph:
    sys.exit("bench gate: no graph summary in BENCH_throughput.json")
measured = graph["replay_vs_reenqueue"]
verdict = "PASS" if measured >= floor else "FAIL"
print(f"bench gate: graph replay {measured:.2f}x over re-enqueue "
      f"(floor {floor:.2f}x, {graph['ops_pipeline']} ops/replay) "
      f"-> {verdict}")
for v in bench.get("vs_sync", []):
    print(f"bench report: workers={v['workers']} replay_vs_sync "
          f"{v['replay_vs_sync']:.2f}x, graph_driver_vs_sync "
          f"nb1 {v['graph_driver_vs_sync']['nb1']:.2f}x "
          f"nb64 {v['graph_driver_vs_sync']['nb64']:.2f}x (not gated)")
if measured < floor:
    sys.exit(1)
PY

#===---------------------------------------------------------------------===#
# bench_ablations: google-benchmark native JSON -> BENCH_ablations.json
#===---------------------------------------------------------------------===#

if [ "$HAVE_ABLATIONS" = "1" ]; then
  echo "== bench_ablations =="
  "$BUILD_DIR/bench_ablations" \
    --benchmark_out="$OUT_DIR/BENCH_ablations.json" \
    --benchmark_out_format=json | tee "$OUT_DIR/bench_ablations.log"
  echo "-> $OUT_DIR/BENCH_ablations.json"
else
  echo "== bench_ablations skipped (google-benchmark not available) =="
fi

#===---------------------------------------------------------------------===#
# Provenance stamping: every BENCH_*.json carries the git SHA, a UTC
# timestamp, the compiler version, and the execution-width facts — the
# default simulator worker count the benches' devices ran with
# (DESCEND_WORKERS is honored by GpuDevice::effectiveWorkers; otherwise
# hardware concurrency) plus the hardware concurrency itself — so
# throughput numbers are attributable per commit AND comparable across
# machines. bench_throughput pins its own worker count and records it
# inside BENCH_throughput.json.
#===---------------------------------------------------------------------===#

GIT_SHA="$(git -C "$ROOT_DIR" rev-parse HEAD 2>/dev/null || echo unknown)"
GIT_DIRTY=""
if ! git -C "$ROOT_DIR" diff --quiet HEAD 2>/dev/null; then
  GIT_DIRTY="-dirty"
fi
STAMP_UTC="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
CXX_BIN="$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' \
    "$BUILD_DIR/CMakeCache.txt" 2>/dev/null | head -n1)"
COMPILER_VERSION="unknown"
if [ -n "$CXX_BIN" ] && [ -x "$CXX_BIN" ]; then
  COMPILER_VERSION="$("$CXX_BIN" --version 2>/dev/null | head -n1)"
fi
HW_CONCURRENCY="$(nproc 2>/dev/null || echo 1)"
WORKERS="${DESCEND_WORKERS:-$HW_CONCURRENCY}"
# The fault/watchdog environment the numbers were taken under. The guard
# at the top guarantees faults are off; the watchdog (usually unset) is
# recorded verbatim because a step budget could cancel — and so skew —
# a long bench kernel.
WATCHDOG="${DESCEND_WATCHDOG:-}"

python3 - "$OUT_DIR" "$GIT_SHA$GIT_DIRTY" "$STAMP_UTC" "$COMPILER_VERSION" \
          "$WORKERS" "$HW_CONCURRENCY" "$WATCHDOG" <<'PY'
import glob, json, sys
out_dir, sha, stamp, compiler, workers, hw, watchdog = sys.argv[1:8]
for path in sorted(glob.glob(out_dir + "/BENCH_*.json")):
    with open(path) as f:
        data = json.load(f)
    data["meta"] = {"git_sha": sha, "timestamp_utc": stamp,
                    "compiler": compiler, "workers": int(workers),
                    "hardware_concurrency": int(hw),
                    "faults": "disabled",
                    "watchdog": watchdog or "disabled"}
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
    print(f"stamped {path} @ {sha[:12]} (workers={workers}, hw={hw}, "
          f"watchdog={watchdog or 'disabled'})")
PY

echo "all benches done; results in $OUT_DIR/"
