#!/usr/bin/env sh
# Perf-regression gate: runs the hand-timed kernel bench into a fresh
# t2c.bench.v1 document and diffs it against the committed baseline with
# t2c_perf_diff. Driven by the `t2c_perf_regress` ctest entry:
#   perf_regress.sh <bench_kernels> <t2c_perf_diff> <baseline.json> <workdir>
# The gate is soft by default (regressions are reported, exit stays 0)
# because local wall time on shared machines is not trustworthy; set
# T2C_PERF_HARD=1 (CI) to make a regression fail the test.
set -e
KERNELS="$1"
DIFF="$2"
BASELINE="$3"
WORK="$4"
[ -n "$KERNELS" ] && [ -n "$DIFF" ] && [ -n "$BASELINE" ] && \
[ -n "$WORK" ] || {
  echo "usage: perf_regress.sh <bench_kernels> <t2c_perf_diff>" \
       "<baseline.json> <workdir>" >&2
  exit 2
}
[ -f "$BASELINE" ] || {
  echo "perf_regress: no baseline at $BASELINE (run 'cmake --build . " \
       "--target bench_regress' and commit BENCH_runtime.json)" >&2
  exit 2
}
mkdir -p "$WORK"
cd "$WORK"
T2C_BENCH_JSON="$WORK/bench_kernels.json" "$KERNELS" \
  > kernels.log 2>&1 || { cat kernels.log >&2; exit 1; }
# Same merged shape tools/bench_regress.cmake writes.
{
  printf '{\n  "schema": "t2c.bench.v1",\n  "benches": {\n    "bench_kernels": '
  cat "$WORK/bench_kernels.json"
  printf '\n  }\n}\n'
} > current.json
if [ "${T2C_PERF_HARD:-0}" != "0" ]; then
  SOFT=""
else
  SOFT="--soft"
fi
exec "$DIFF" $SOFT "$BASELINE" "$WORK/current.json"
