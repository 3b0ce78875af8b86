#!/usr/bin/env bash
# Regenerates BENCH_baseline.json at the repo root: golden reference
# outputs for regression tracking.
#
#   * fig2_k_sweep metrics are bit-deterministic for a fixed seed and
#     environment, so any diff is a real behavior change.
#   * micro_kdpp timings are machine-dependent; they are recorded as a
#     rough shape reference (relative costs), not a pass/fail gate.
#   * serve_throughput contributes its machine-independent determinism
#     verdict plus indicative throughput numbers.
#   * train_throughput contributes the machine-independent
#     training-determinism verdict (serial vs parallel bit-equality at
#     every thread count) plus indicative step timings/speedups.
#   * eigen_bench contributes the machine-independent solver-agreement
#     verdict plus indicative tridiag-vs-Jacobi timings/speedups.
#   * dual_bench contributes the machine-independent dual-vs-primal
#     agreement verdict (normalizers, marginals, bit-identical sample
#     streams) plus indicative construction timings/speedups. Its
#     n=4096 primal eigendecompositions take a few minutes; that cost
#     is the measurement.
#   * map_bench contributes the machine-independent factor-vs-primal
#     greedy MAP agreement verdict (bit-identical selected lists on a
#     blended alpha=0.5 kernel) plus indicative rerank timings/speedups.
#   * stream_bench contributes the machine-independent replay-determinism
#     verdict for serving under live model updates (fixed interleave,
#     bit-identical responses at every thread count) plus indicative
#     staleness-vs-throughput rows per update rate.
#
# Usage: bench/record_baseline.sh [build-dir]   (default: build)
# The build dir must already contain the Release bench binaries.

set -euo pipefail
BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

# Pin the environment the goldens were recorded under (the binaries'
# defaults, made explicit): what matters is that the recorded numbers
# and any future comparison use the SAME pins.
export LKP_SCALE=1.0
export LKP_EPOCHS=36
export LKP_SERVE_USERS=100000
export LKP_SERVE_REQUESTS=2000
export LKP_STREAM_USERS=20000
export LKP_STREAM_REQUESTS=1024
export LKP_THREADS=2
# 6 epochs keeps the 1-thread lkp_train row around 100ms: comfortably
# above timer noise, so recorded speedup ratios are meaningful shapes
# (on a multi-core recorder; a 1-core box reads ~1.0x by construction).
export LKP_TRAIN_EPOCHS=6

FIG2_OUT=$(mktemp)
MICRO_OUT=$(mktemp)
SERVE_OUT=$(mktemp)
TRAIN_OUT=$(mktemp)
EIGEN_OUT=$(mktemp)
DUAL_OUT=$(mktemp)
MAP_OUT=$(mktemp)
STREAM_OUT=$(mktemp)
METRICS_OUT=$(mktemp)
trap 'rm -f "$FIG2_OUT" "$MICRO_OUT" "$SERVE_OUT" "$TRAIN_OUT" "$EIGEN_OUT" "$DUAL_OUT" "$MAP_OUT" "$STREAM_OUT" "$METRICS_OUT"' EXIT

echo "running fig2_k_sweep (LKP_SCALE=$LKP_SCALE LKP_EPOCHS=$LKP_EPOCHS)..."
"$BUILD_DIR/bench/fig2_k_sweep" > "$FIG2_OUT"

if [ -x "$BUILD_DIR/bench/micro_kdpp" ]; then
  echo "running micro_kdpp..."
  "$BUILD_DIR/bench/micro_kdpp" --benchmark_format=json \
    --benchmark_min_time=0.05 > "$MICRO_OUT"
else
  echo "micro_kdpp not built (Google Benchmark missing); skipping"
  echo '{}' > "$MICRO_OUT"
fi

echo "running serve_throughput (LKP_SERVE_USERS=$LKP_SERVE_USERS" \
     "LKP_SERVE_REQUESTS=$LKP_SERVE_REQUESTS)..."
# serve_throughput exits non-zero on a determinism violation (and, with
# LKP_SCALING_GATE=1, on a scaling shortfall); keep going so the parser
# records the red verdict instead of aborting the baseline. The obs
# metrics dump of the same run rides along into the baseline.
LKP_METRICS_OUT="$METRICS_OUT" \
  "$BUILD_DIR/bench/serve_throughput" > "$SERVE_OUT" || true

echo "running train_throughput (LKP_TRAIN_EPOCHS=$LKP_TRAIN_EPOCHS)..."
# train_throughput exits non-zero on a determinism violation; keep going
# so the parser records deterministic_across_threads=false.
"$BUILD_DIR/bench/train_throughput" > "$TRAIN_OUT" || true

echo "running eigen_bench..."
# eigen_bench exits non-zero on an accuracy violation; don't let set -e
# abort before the parser records solvers_agree=false in the baseline.
"$BUILD_DIR/bench/eigen_bench" > "$EIGEN_OUT" || true

echo "running dual_bench (n=4096 primal eigendecompositions: minutes)..."
# dual_bench exits non-zero on an agreement violation; keep going so the
# parser records dual_agrees=false in the baseline.
"$BUILD_DIR/bench/dual_bench" > "$DUAL_OUT" || true

echo "running map_bench..."
# map_bench exits non-zero on an agreement violation; keep going so the
# parser records map_agrees=false in the baseline.
"$BUILD_DIR/bench/map_bench" > "$MAP_OUT" || true

echo "running stream_bench (LKP_STREAM_USERS=$LKP_STREAM_USERS" \
     "LKP_STREAM_REQUESTS=$LKP_STREAM_REQUESTS)..."
# stream_bench exits non-zero on a replay-determinism violation (and,
# with LKP_STREAM_GATE=1, on an invalidation/staleness assertion); keep
# going so the parser records the red verdict instead of aborting.
"$BUILD_DIR/bench/stream_bench" > "$STREAM_OUT" || true

python3 - "$FIG2_OUT" "$MICRO_OUT" "$SERVE_OUT" "$TRAIN_OUT" "$EIGEN_OUT" \
  "$DUAL_OUT" "$MAP_OUT" "$STREAM_OUT" "$METRICS_OUT" <<'EOF'
import json, os, re, sys

(fig2_path, micro_path, serve_path, train_path, eigen_path,
 dual_path, map_path, stream_path, metrics_path) = sys.argv[1:10]

# --- fig2_k_sweep: parse the per-k metric rows under each mode header.
fig2 = {}
mode = None
for line in open(fig2_path):
    m = re.match(r"--- (LkP_\w+) on", line)
    if m:
        mode = m.group(1)
        fig2[mode] = []
        continue
    m = re.match(r"\s*(\d+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(\d+)\s*$",
                 line)
    if m and mode:
        fig2[mode].append({
            "k": int(m.group(1)),
            "ndcg5": float(m.group(2)),
            "cc5": float(m.group(3)),
            "f5": float(m.group(4)),
            "best_epoch": int(m.group(5)),
        })

# --- micro_kdpp: keep name + cpu time; timings are shape reference only.
micro = []
try:
    data = json.load(open(micro_path))
    for b in data.get("benchmarks", []):
        micro.append({
            "name": b["name"],
            "cpu_time_ns": round(b["cpu_time"], 1),
        })
except (json.JSONDecodeError, KeyError):
    pass

# --- serve_throughput: throughput rows + the determinism verdicts
# (sync across thread counts AND async-vs-sync admission slicing).
serve = {"deterministic_across_threads": True,
         "async_matches_sync": True,
         "users": None, "cores": None,
         "cold": [], "warm": [], "async": []}
section = None
for line in open(serve_path):
    m = re.search(r"users=(\d+).*cores=(\d+)", line)
    if m:
        serve["users"] = int(m.group(1))
        serve["cores"] = int(m.group(2))
        continue
    m = re.match(r"--- mode=(\w+), (cold|warm) cache", line)
    if m:
        section = (m.group(1), m.group(2))
        continue
    m = re.match(r"--- async admission \(mode=(\w+)\)", line)
    if m:
        section = (m.group(1), "async")
        continue
    if "ASYNC DETERMINISM VIOLATION" in line:
        serve["async_matches_sync"] = False
    elif "DETERMINISM VIOLATION" in line:
        serve["deterministic_across_threads"] = False
    m = re.match(r"\s*(\d+)\s+([\d.]+)\s+([\d.]+)x", line)
    if m and section and section[1] == "cold":
        serve["cold"].append({
            "mode": section[0],
            "threads": int(m.group(1)),
            "rps": float(m.group(2)),
            "speedup": float(m.group(3)),
        })
        continue
    m = re.match(r"\s*(\d+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)", line)
    if m and section and section[1] in ("warm", "async"):
        serve[section[1]].append({
            "mode": section[0],
            "threads": int(m.group(1)),
            "rps": float(m.group(2)),
            "hit_rate": float(m.group(3)),
        })

# --- train_throughput: per-thread-count timing rows + the
# serial-vs-parallel bit-equality verdict.
train = {"deterministic_across_threads": True, "lkp_train": [],
         "kernel_train": []}
section = None
for line in open(train_path):
    m = re.match(r"--- (lkp_train|kernel_train) ", line)
    if m:
        section = m.group(1)
        continue
    if "DETERMINISM VIOLATION" in line:
        train["deterministic_across_threads"] = False
    m = re.match(r"\s*(\d+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)x", line)
    if m and section == "kernel_train":
        train[section].append({
            "threads": int(m.group(1)),
            "train_s": float(m.group(2)),
            "pairs_per_s": float(m.group(3)),
            "speedup": float(m.group(4)),
        })
        continue
    m = re.match(r"\s*(\d+)\s+([\d.]+)\s+([\d.]+)x", line)
    if m and section == "lkp_train":
        train[section].append({
            "threads": int(m.group(1)),
            "train_s": float(m.group(2)),
            "speedup": float(m.group(3)),
        })

# --- eigen_bench: per-size timing rows + the solver-agreement verdict.
eigen = {"solvers_agree": True, "sizes": []}
for line in open(eigen_path):
    if "ACCURACY VIOLATION" in line:
        eigen["solvers_agree"] = False
    m = re.match(
        r"\s*(\d+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)x\s+(\S+)\s*$",
        line)
    if m:
        eigen["sizes"].append({
            "n": int(m.group(1)),
            "tridiag_ms": float(m.group(3)),
            "jacobi_ms": float(m.group(4)),
            "speedup": float(m.group(5)),
            "max_rel_dlam": float(m.group(6)),
        })

# --- dual_bench: per-shape timing rows + the dual-agreement verdict
# (normalizers/marginals to tolerance, sample streams bit-identical).
dual = {"dual_agrees": True, "shapes": []}
for line in open(dual_path):
    if "AGREEMENT VIOLATION" in line or "AGREEMENT UNVERIFIED" in line:
        dual["dual_agrees"] = False
    m = re.match(
        r"\s*(\d+)\s+(\d+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)x"
        r"\s+(\S+)\s+(\S+)\s+(\d+)/(\d+)\s*$",
        line)
    if m:
        dual["shapes"].append({
            "n": int(m.group(1)),
            "d": int(m.group(2)),
            "primal_ms": float(m.group(4)),
            "dual_ms": float(m.group(5)),
            "speedup": float(m.group(6)),
            "dlogz_rel": float(m.group(7)),
            "dmarg_rel": float(m.group(8)),
            "identical_draws": int(m.group(9)),
            "total_draws": int(m.group(10)),
        })
if not dual["shapes"]:
    # A verdict backed by zero measurements is not a green verdict.
    dual["dual_agrees"] = False

# --- map_bench: per-shape timing rows + the factor-vs-primal greedy MAP
# agreement verdict (selected lists bit-identical, no tolerance).
map_rerank = {"map_agrees": True, "shapes": []}
for line in open(map_path):
    if "AGREEMENT VIOLATION" in line or "AGREEMENT UNVERIFIED" in line:
        map_rerank["map_agrees"] = False
    m = re.match(
        r"\s*(\d+)\s+(\d+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)x"
        r"\s+(identical|DIVERGED)\s*$",
        line)
    if m:
        map_rerank["shapes"].append({
            "n": int(m.group(1)),
            "d": int(m.group(2)),
            "primal_ms": float(m.group(4)),
            "factor_ms": float(m.group(5)),
            "speedup": float(m.group(6)),
            "identical": m.group(7) == "identical",
        })
if not map_rerank["shapes"]:
    map_rerank["map_agrees"] = False

# --- stream_bench: staleness-vs-throughput rows per update rate + the
# replay-determinism verdict (fixed serve/update interleave must be
# bit-identical at every thread count).
stream = {"replay_deterministic": True, "users": None, "cores": None,
          "rates": []}
rate = None
for line in open(stream_path):
    m = re.search(r"users=(\d+).*cores=(\d+)", line)
    if m:
        stream["users"] = int(m.group(1))
        stream["cores"] = int(m.group(2))
        continue
    m = re.match(r"--- update_rate=(\d+) events/batch", line)
    if m:
        rate = int(m.group(1))
        continue
    if "REPLAY DETERMINISM VIOLATION" in line:
        stream["replay_deterministic"] = False
    m = re.match(
        r"\s*(\d+)\s+([\d.]+)\s+([\d.]+)\s+(\d+)\s+(\d+)\s+([\d.]+)"
        r"\s+([\d.]+)", line)
    if m and rate is not None:
        stream["rates"].append({
            "update_rate": rate,
            "threads": int(m.group(1)),
            "rps": float(m.group(2)),
            "hit_rate": float(m.group(3)),
            "updates": int(m.group(4)),
            "events_applied": int(m.group(5)),
            "invalidations_per_update": float(m.group(6)),
            "stale_max_ms": float(m.group(7)),
        })
if not stream["rates"]:
    # A verdict backed by zero measurements is not a green verdict.
    stream["replay_deterministic"] = False

# --- obs metrics: the serve_throughput run's MetricsRegistry dump
# (LKP_METRICS_OUT). Counter totals are workload-shape references;
# absence of an expected family is the regression this catches.
obs_metrics = {}
try:
    obs_metrics = json.load(open(metrics_path))
except (OSError, json.JSONDecodeError):
    pass

baseline = {
    "comment": (
        "Golden bench baselines. fig2 metrics are bit-deterministic for "
        "the pinned environment below: a diff means behavior changed. "
        "micro_kdpp/serve rps are machine-dependent shape references. "
        "Regenerate with bench/record_baseline.sh."),
    "environment": {
        "LKP_SCALE": os.environ["LKP_SCALE"],
        "LKP_EPOCHS": os.environ["LKP_EPOCHS"],
        "LKP_SERVE_USERS": os.environ["LKP_SERVE_USERS"],
        "LKP_SERVE_REQUESTS": os.environ["LKP_SERVE_REQUESTS"],
        "LKP_STREAM_USERS": os.environ["LKP_STREAM_USERS"],
        "LKP_STREAM_REQUESTS": os.environ["LKP_STREAM_REQUESTS"],
        "LKP_THREADS": os.environ["LKP_THREADS"],
        "LKP_TRAIN_EPOCHS": os.environ["LKP_TRAIN_EPOCHS"],
        "recorder_cores": os.cpu_count(),
        "build_type": "Release",
    },
    "fig2_k_sweep": fig2,
    "micro_kdpp": micro,
    "serve_throughput": serve,
    "train_throughput": train,
    "eigen": eigen,
    "dual": dual,
    "map": map_rerank,
    "stream": stream,
    "obs_metrics": obs_metrics,
}
with open("BENCH_baseline.json", "w") as f:
    json.dump(baseline, f, indent=2)
    f.write("\n")
print("wrote BENCH_baseline.json")
EOF
