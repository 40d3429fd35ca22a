#!/usr/bin/env bash
# Perf-regression harness (docs/PERFORMANCE.md).
#
# Builds the no-tracing bench preset, runs bench_scaling / bench_micro with
# machine-readable reports, merges them into BENCH_PR3.json
# at the repo root, and gates against the committed baseline. Also runs
# the resident-serving suite (bench_serve) into BENCH_PR9.json, gating the
# >= 5x resident-vs-spawn request throughput and serve/CLI byte-identity
# (see bench/bench_serve.cpp and docs/SERVE.md).
#
#   scripts/perf_regression.sh              # run + merge + compare
#   scripts/perf_regression.sh --baseline   # additionally refresh
#                                           # bench/BENCH_BASELINE.json
#
# Tunables: MCLG_BENCH_SCALE (default 1.0), MCLG_BENCH_REPS (default 3),
# MCLG_PERF_REQUIRE (extra --require gates for the compare step).
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD="$ROOT/build-notrace"
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

cmake --preset bench >/dev/null
cmake --build "$BUILD" -j"$(nproc)" \
  --target bench_scaling bench_micro bench_serve mclg_cli >/dev/null

echo "== bench_scaling =="
MCLG_BENCH_REPORT="$OUT" "$BUILD/bench/bench_scaling"
echo "== bench_micro =="
"$BUILD/bench/bench_micro" \
  --benchmark_filter='BM_(MglLegalize|FixedRowOrder|NetworkSimplex|CurveSumMinimize|SparseAssignment)' \
  --benchmark_format=console \
  --benchmark_out_format=json --benchmark_out="$OUT/bench_micro.json"

python3 "$ROOT/scripts/perf_gate.py" merge "$OUT" \
  -o "$ROOT/BENCH_PR3.json" --baseline "$ROOT/bench/BENCH_BASELINE.json"

if [[ "${1:-}" == "--baseline" ]]; then
  cp "$ROOT/BENCH_PR3.json" "$ROOT/bench/BENCH_BASELINE.json"
  echo "baseline refreshed: bench/BENCH_BASELINE.json"
  exit 0
fi

# shellcheck disable=SC2086
python3 "$ROOT/scripts/perf_gate.py" compare \
  "$ROOT/BENCH_PR3.json" "$ROOT/bench/BENCH_BASELINE.json" \
  ${MCLG_PERF_REQUIRE:-}

# Resident-serving suite: one resident daemon session vs one spawned
# mclg_cli process per ECO request on the same 16k-cell design + request
# schedule. Gates the >= 5x request-throughput claim and the byte-identity
# of resident responses with the solo CLI runs.
SERVE_OUT=$(mktemp -d)
trap 'rm -rf "$OUT" "$SERVE_OUT"' EXIT
echo "== bench_serve =="
MCLG_BENCH_REPORT="$SERVE_OUT" MCLG_CLI="$BUILD/tools/mclg_cli" \
  "$BUILD/bench/bench_serve"
python3 "$ROOT/scripts/perf_gate.py" merge "$SERVE_OUT" \
  -o "$ROOT/BENCH_PR9.json" --bench bench_serve
python3 "$ROOT/scripts/perf_gate.py" compare \
  "$ROOT/BENCH_PR9.json" "$ROOT/BENCH_PR9.json" \
  --ratio 'bench_serve.spawn_request_seconds/serve_request_seconds>=5.0'
