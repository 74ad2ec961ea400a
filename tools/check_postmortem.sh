#!/usr/bin/env sh
# Flight-recorder / postmortem acceptance gate, driven by the
# `t2c_postmortem_valid` ctest entry:
#   check_postmortem.sh <t2c_cli> <t2c_json_check> <workdir>
#
# Three legs:
#   1. forced SIGSEGV  — t2c_cli --postmortem-dir --selftest-crash segv
#      must die by signal and leave a bundle that t2c_json_check
#      --postmortem accepts (schema, build_info, flight events, backtrace);
#   2. forced stall    — --stall-ms 300 --stall-fatal --selftest-crash
#      stall must escalate the watchdog to a stall bundle and abort;
#   3. live exemplars  — a --serve-obs soak's mid-run /metrics scrape must
#      carry at least one OpenMetrics exemplar on a latency histogram
#      bucket, and an id pulled from /exemplars must resolve on
#      /requests/<id>.
set -e
CLI="$1"
CHECK="$2"
WORK="$3"
[ -n "$CLI" ] && [ -n "$CHECK" ] && [ -n "$WORK" ] || {
  echo "usage: check_postmortem.sh <t2c_cli> <t2c_json_check> <workdir>" >&2
  exit 2
}
mkdir -p "$WORK"
cd "$WORK"
rm -rf pm_segv pm_stall cli_out segv.log stall.log soak.log live.prom

# ---- leg 1: forced SIGSEGV -> signal bundle ----
set +e
"$CLI" --model resnet20 --width 0.25 --epochs 1 --threads 4 --out cli_out \
       --postmortem-dir pm_segv --selftest-crash segv > segv.log 2>&1
RC=$?
set -e
[ "$RC" -gt 128 ] || {
  echo "segv selftest did not die by signal (rc=$RC); log follows" >&2
  cat segv.log >&2
  exit 1
}
SEGV_BUNDLE=$(ls pm_segv/postmortem.*.json 2>/dev/null | head -n 1)
[ -n "$SEGV_BUNDLE" ] || {
  echo "segv selftest left no bundle under pm_segv/" >&2
  cat segv.log >&2
  exit 1
}
"$CHECK" --postmortem "$SEGV_BUNDLE"
grep -q '"kind":"signal"' "$SEGV_BUNDLE" || {
  echo "$SEGV_BUNDLE is not a signal bundle" >&2
  exit 1
}

# ---- leg 2: forced watchdog stall -> stall bundle ----
set +e
"$CLI" --model resnet20 --width 0.25 --epochs 1 --threads 4 --out cli_out \
       --postmortem-dir pm_stall --stall-ms 300 --stall-fatal \
       --selftest-crash stall > stall.log 2>&1
RC=$?
set -e
[ "$RC" -gt 128 ] || {
  echo "stall selftest did not abort (rc=$RC); log follows" >&2
  cat stall.log >&2
  exit 1
}
STALL_BUNDLE=$(ls pm_stall/postmortem.*.json 2>/dev/null | head -n 1)
[ -n "$STALL_BUNDLE" ] || {
  echo "stall selftest left no bundle under pm_stall/" >&2
  cat stall.log >&2
  exit 1
}
"$CHECK" --postmortem "$STALL_BUNDLE"
grep -q '"kind":"stall"' "$STALL_BUNDLE" || {
  echo "$STALL_BUNDLE is not a stall bundle" >&2
  exit 1
}

# ---- leg 3: mid-soak exemplars resolving to request detail ----
"$CLI" --model resnet20 --width 0.25 --epochs 1 --threads 4 --out cli_out \
       --serve-obs 0 --loop 300000 > soak.log 2>&1 &
CLI_PID=$!
PORT=""
i=0
while [ "$i" -lt 6000 ]; do
  PORT=$(sed -n 's/^obs: serving \/metrics on port \([0-9][0-9]*\)$/\1/p' \
         soak.log 2>/dev/null | head -n 1)
  [ -n "$PORT" ] && break
  kill -0 "$CLI_PID" 2>/dev/null || break
  sleep 0.05
  i=$((i + 1))
done
[ -n "$PORT" ] || {
  echo "no exporter port in soak.log; log follows" >&2
  cat soak.log >&2
  exit 1
}
i=0
while [ "$i" -lt 6000 ]; do
  grep -q '^soak: [0-9]' soak.log 2>/dev/null && break
  kill -0 "$CLI_PID" 2>/dev/null || break
  sleep 0.05
  i=$((i + 1))
done
sleep 1

"$CHECK" --fetch "$PORT:/metrics" > live.prom || {
  kill -0 "$CLI_PID" 2>/dev/null ||
    echo "scrape failed after t2c_cli exited: the soak ended first" >&2
  exit 1
}
"$CHECK" --prom live.prom
grep -q 't2c_tele_latency_ms_bucket{.*} [0-9][0-9]* # {req="' live.prom || {
  echo "live.prom carries no OpenMetrics exemplar on a latency bucket" >&2
  exit 1
}

# The reservoir churns while the soak runs: pull a fresh slowest-request
# id and resolve it immediately, retrying a few times before failing.
RESOLVED=""
for try in 1 2 3 4 5; do
  ID=$("$CHECK" --fetch "$PORT:/exemplars" |
       sed -n 's/.*"requests":\[{"id":\([0-9][0-9]*\).*/\1/p')
  [ -n "$ID" ] || continue
  if "$CHECK" --fetch "$PORT:/requests/$ID" > request.json 2>/dev/null; then
    RESOLVED=yes
    break
  fi
done
[ -n "$RESOLVED" ] || {
  echo "no /exemplars id resolved on /requests/<id>" >&2
  exit 1
}
grep -q '"trail":\[{' request.json || {
  echo "/requests/$ID detail carries no per-op trail" >&2
  cat request.json >&2
  exit 1
}

kill "$CLI_PID" 2>/dev/null || true
wait "$CLI_PID" 2>/dev/null || true
echo "postmortem gate ok: $SEGV_BUNDLE, $STALL_BUNDLE," \
     "exemplar request $ID resolved"
