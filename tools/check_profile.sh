#!/usr/bin/env sh
# Runs t2c_cli with profiling + tracing + metrics JSON output on a small
# model and validates every emitted document with t2c_json_check. The CLI
# also serves the live telemetry plane (--serve-obs 0 --loop N): while the
# soak loop runs, the script scrapes /metrics once over a raw socket and
# validates the Prometheus exposition too. Driven by the
# `t2c_profile_valid` ctest entry:
#   check_profile.sh <t2c_cli> <t2c_json_check> <workdir>
set -e
CLI="$1"
CHECK="$2"
WORK="$3"
[ -n "$CLI" ] && [ -n "$CHECK" ] && [ -n "$WORK" ] || {
  echo "usage: check_profile.sh <t2c_cli> <t2c_json_check> <workdir>" >&2
  exit 2
}
mkdir -p "$WORK"
cd "$WORK"
rm -f cli.log metrics.prom
"$CLI" --model resnet20 --width 0.25 --epochs 1 --threads 4 --out cli_out \
       --profile --profile-json prof.json --trace-json trace.json \
       --metrics-json metrics.json --serve-obs 0 --loop 4000 \
       > cli.log 2>&1 &
CLI_PID=$!

# The exporter prints its (ephemeral) port before training starts; the
# soak marker appears once the deployed graph is taking live traffic.
PORT=""
i=0
while [ "$i" -lt 6000 ]; do
  PORT=$(sed -n 's/^obs: serving \/metrics on port \([0-9][0-9]*\)$/\1/p' \
         cli.log 2>/dev/null | head -n 1)
  [ -n "$PORT" ] && break
  kill -0 "$CLI_PID" 2>/dev/null || break
  sleep 0.05
  i=$((i + 1))
done
[ -n "$PORT" ] || {
  echo "no exporter port in cli.log; log follows" >&2
  cat cli.log >&2
  exit 1
}
i=0
while [ "$i" -lt 6000 ]; do
  grep -q '^soak:' cli.log 2>/dev/null && break
  kill -0 "$CLI_PID" 2>/dev/null || break
  sleep 0.05
  i=$((i + 1))
done

# One mid-run scrape: raw-socket GET (no curl dependency), 200 required,
# body dumped and validated as Prometheus text exposition. The soak lasts
# about a second, so both waits above poll every 0.05 s (cap 300 s).
T2C_PROM_DUMP=metrics.prom "$CHECK" --prom-scrape "$PORT" || {
  kill -0 "$CLI_PID" 2>/dev/null ||
    echo "scrape failed after t2c_cli exited: the soak ended first" >&2
  exit 1
}
"$CHECK" --prom metrics.prom

wait "$CLI_PID" || {
  echo "t2c_cli failed; log follows" >&2
  cat cli.log >&2
  exit 1
}
"$CHECK" --trace trace.json --profile prof.json --metrics metrics.json
