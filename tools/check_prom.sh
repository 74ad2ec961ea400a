#!/usr/bin/env sh
# Live telemetry-plane gate, driven by the `t2c_prom_valid` ctest entry:
#   check_prom.sh <t2c_cli> <t2c_json_check> <workdir>
#
# Boots t2c_cli with --serve-obs 0 --loop N (train 1 epoch, deploy, then
# soak the integer graph across two client threads), scrapes /metrics over
# a raw socket while the soak is running, validates the body as Prometheus
# text exposition (HELP/TYPE coverage, label escaping, cumulative
# histogram buckets, +Inf == _count), and asserts the acceptance signal:
# live sliding-window percentiles for the deploy.step.latency series.
set -e
CLI="$1"
CHECK="$2"
WORK="$3"
[ -n "$CLI" ] && [ -n "$CHECK" ] && [ -n "$WORK" ] || {
  echo "usage: check_prom.sh <t2c_cli> <t2c_json_check> <workdir>" >&2
  exit 2
}
mkdir -p "$WORK"
cd "$WORK"
rm -f cli.log live.prom
"$CLI" --model resnet20 --width 0.25 --epochs 1 --threads 4 --out cli_out \
       --serve-obs 0 --loop 16000 > cli.log 2>&1 &
CLI_PID=$!

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

# Both waits above poll every 0.05 s (cap 300 s) so the scrape lands
# inside the soak even when it is short.
T2C_PROM_DUMP=live.prom "$CHECK" --prom-scrape "$PORT" || {
  kill -0 "$CLI_PID" 2>/dev/null ||
    echo "scrape failed after t2c_cli exited: the soak ended first" >&2
  exit 1
}
"$CHECK" --prom live.prom

# The acceptance signal: windowed percentiles of the per-step latency
# aggregate, digested from live traffic.
for m in t2c_tele_p50_ms t2c_tele_p95_ms t2c_tele_p99_ms; do
  grep -q "^${m}{series=\"deploy.step.latency\"" live.prom || {
    echo "live.prom lacks ${m} for deploy.step.latency" >&2
    exit 1
  }
done
grep -q '^t2c_healthy 1$' live.prom || {
  echo "live.prom does not report t2c_healthy 1" >&2
  exit 1
}

wait "$CLI_PID" || {
  echo "t2c_cli failed; log follows" >&2
  cat cli.log >&2
  exit 1
}
echo "prom gate ok: port $PORT, $(wc -l < live.prom) exposition lines"
