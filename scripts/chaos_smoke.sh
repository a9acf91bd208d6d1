#!/usr/bin/env bash
# Chaos smoke: kill worker endpoint processes mid-run and require the
# engine to detect the death, respawn the world, restore every worker
# from the last completed checkpoint, and land on the exact same answer
# a fault-free run produces.
#
#   GRAPE_BIN_DIR=build scripts/chaos_smoke.sh
#
# Two phases:
#
# 1. Deterministic differential — quickstart's 4-process tcp world with
#    --chaos-kill-rank: the run SIGKILLs a worker endpoint
#    from a superstep boundary (the whole query takes milliseconds, so
#    only an in-process kill lands mid-superstep reliably), recovers,
#    and every printed distance must be identical to an unharmed run.
#
# 2. External SIGKILL — a grape_cli SSSP sized to run for a few seconds
#    on a tcp world, with this script delivering a real `kill -9` to a
#    forked endpoint found via pgrep -P (scoped to OUR children — never
#    pkill by name). The kill lands half-way through the fault-free
#    golden run's measured wall time, so it falls mid-run however fast
#    the host is. It can still race the run's tail, so this phase
#    retries; each success demands a clean exit, at least one recovery,
#    and an answer + comm counters identical to the fault-free golden.
#
# Writes the total observed recovery count to $CHAOS_RECOVERIES_FILE
# (default: inside this run's scratch dir, removed on exit) so CI can
# point it somewhere durable and archive it — never into the source tree.
set -uo pipefail

cd "$(dirname "$0")/.."
BIN_DIR="${GRAPE_BIN_DIR:-build}"
for bin in quickstart grape_cli; do
  if [[ ! -x "$BIN_DIR/$bin" ]]; then
    echo "error: $BIN_DIR/$bin not found; build first" >&2
    exit 1
  fi
done
WORK_DIR="$(mktemp -d /tmp/grape_chaos_XXXXXX)"
trap 'rm -rf "$WORK_DIR"' EXIT
RECOVERIES_FILE="${CHAOS_RECOVERIES_FILE:-$WORK_DIR/chaos_recoveries.txt}"
total_recoveries=0

recoveries_in() {
  local n
  n=$(grep -o 'recoveries=[0-9]*' "$1" | head -1 | cut -d= -f2)
  echo "${n:-0}"
}

echo "== phase 1: quickstart chaos differential =="
"$BIN_DIR/quickstart" --transport=tcp --compute=remote \
  --ckpt-every=1 > "$WORK_DIR/qs_golden.out" 2>&1 || {
    echo "FAIL: fault-free quickstart (tcp) failed" >&2
    cat "$WORK_DIR/qs_golden.out" >&2
    exit 1
  }
if ! "$BIN_DIR/quickstart" --transport=tcp --compute=remote \
    --ckpt-every=1 --chaos-kill-rank=2 > "$WORK_DIR/qs_chaos.out" 2>&1
then
  echo "FAIL: quickstart (tcp) did not survive the worker kill" >&2
  cat "$WORK_DIR/qs_chaos.out" >&2
  exit 1
fi
rec=$(recoveries_in "$WORK_DIR/qs_chaos.out")
if [[ "$rec" -lt 1 ]]; then
  echo "FAIL: quickstart (tcp) reported no recovery" >&2
  cat "$WORK_DIR/qs_chaos.out" >&2
  exit 1
fi
if ! diff <(grep ' -> ' "$WORK_DIR/qs_golden.out") \
          <(grep ' -> ' "$WORK_DIR/qs_chaos.out"); then
  echo "FAIL: quickstart (tcp) distances diverged after recovery" >&2
  exit 1
fi
total_recoveries=$((total_recoveries + rec))
echo "quickstart tcp OK: rank-2 endpoint killed, recovered" \
     "(${rec}x), distances identical"

echo "== phase 2: external SIGKILL on a live tcp run =="
ARGS=(--graph=grid --rows=200 --cols=200 --workers=3 --transport=tcp
      --load=distributed --ckpt-every=5 sssp source=0)
ATTEMPTS="${GRAPE_CHAOS_ATTEMPTS:-3}"

golden_start_ns=$(date +%s%N)
if ! "$BIN_DIR/grape_cli" "${ARGS[@]}" > "$WORK_DIR/golden.out" 2>&1; then
  echo "FAIL: fault-free grape_cli run failed:" >&2
  cat "$WORK_DIR/golden.out" >&2
  exit 1
fi
golden_ms=$(( ($(date +%s%N) - golden_start_ns) / 1000000 ))
KILL_AFTER_SECONDS=$(awk -v ms="$golden_ms" 'BEGIN { printf "%.3f", ms / 2000 }')
grep '^answer' "$WORK_DIR/golden.out"
echo "fault-free run took ${golden_ms} ms; killing after ${KILL_AFTER_SECONDS} s"
# The bit-identity gate: answer plus the msgs/bytes/supersteps counters
# (times stripped — wall clock is the one thing recovery may change).
signature() {
  { grep '^answer' "$1"
    grep -o 'supersteps=[0-9]*' "$1" | head -1
    grep -o 'msgs=[0-9]* bytes=[0-9]*' "$1"; } > "$1.sig"
  echo "$1.sig"
}

ok=0
for attempt in $(seq 1 "$ATTEMPTS"); do
  echo "-- chaos attempt $attempt/$ATTEMPTS"
  "$BIN_DIR/grape_cli" "${ARGS[@]}" > "$WORK_DIR/chaos.out" 2>&1 &
  pid=$!
  victim=""
  for _ in $(seq 1 100); do
    victim=$(pgrep -P "$pid" | head -1 || true)
    [[ -n "$victim" ]] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  sleep "$KILL_AFTER_SECONDS"
  if [[ -n "$victim" ]] && kill -KILL "$victim" 2>/dev/null; then
    echo "killed endpoint pid $victim"
  else
    echo "no endpoint left to kill (run already finished?)"
  fi
  rc=0
  wait "$pid" || rc=$?
  rec=$(recoveries_in "$WORK_DIR/chaos.out")
  echo "exit=$rc recoveries=$rec"
  if [[ "$rc" -eq 0 && "$rec" -ge 1 ]]; then
    if ! diff "$(signature "$WORK_DIR/golden.out")" \
              "$(signature "$WORK_DIR/chaos.out")"; then
      echo "FAIL: recovered run diverged from the fault-free golden" >&2
      exit 1
    fi
    grep '^engine' "$WORK_DIR/chaos.out"
    total_recoveries=$((total_recoveries + rec))
    ok=1
    break
  fi
  echo "attempt inconclusive (kill raced the run); retrying"
  tail -3 "$WORK_DIR/chaos.out"
done
if [[ "$ok" -ne 1 ]]; then
  echo "FAIL: no external-kill attempt produced a clean recovered run" >&2
  cat "$WORK_DIR/chaos.out" >&2
  exit 1
fi

echo "$total_recoveries" > "$RECOVERIES_FILE"
echo "chaos smoke OK: $total_recoveries recoveries across both phases," \
     "all answers identical to fault-free goldens"
