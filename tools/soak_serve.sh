#!/usr/bin/env bash
# Crash-recovery soak for the serve daemon: stream a trace through
# `wlc_analyze serve` with several concurrent clients, SIGKILL the daemon
# mid-stream, restart it on the same state dir, and require every client to
# finish with curves byte-identical to both (a) a clean daemon run and
# (b) the offline batch extraction of the same trace. This is the
# out-of-process twin of ServeServer.GracefulDrainSnapshotsAndRestartResumes-
# BitIdentically — the in-process test can only stop the reactor politely;
# only a real kill -9 exercises torn-write protection (atomic snapshot
# rename) and the resume protocol across a genuine process death.
#
# --chaos layers the partial-failure space on top: every daemon incarnation
# runs under a seeded WLC_FAULT_SPEC plan (EINTR storms + short reads/writes
# + delayed fsync — the recoverable kinds; the retry loops must make them
# invisible to correctness), and after the kill rounds one *live migration*
# runs: daemon A restarts with --drain-to naming a fresh daemon B, clients
# stream against the failover list "A,B", A is TERM'd mid-stream, hands its
# sessions to B over Migrate frames, and the clients must finish on B with
# curves still byte-identical to batch.
#
# Drain completion is detected by a sentinel, not a sleep: the daemon
# appends a {"opcode":"drain","outcome":"complete"} record as the *last*
# line of its request log when a graceful drain (including migration) has
# fully flushed. Comparing outputs before that record exists would race the
# migrated daemon's final snapshot writes.
#
# Usage: tools/soak_serve.sh [--tsan] [--chaos] [--rounds N] [--events N]
#                            [--compact-eps E] [--compact-rel R]
#   --tsan    build with ThreadSanitizer (own build tree, build-tsan)
#   --chaos   seeded syscall fault plans on every daemon + a live migration
#   --rounds  kill/restart cycles per soak (default 2)
#   --events  trace length (default 20000)
#   --compact-eps / --compact-rel
#             passed through to every daemon incarnation: snapshots then
#             carry the compact PWL tier, so the kill -9 resume assertion
#             (curves bit-identical to batch and to a clean run) also proves
#             that tier adoption/recompute on recovery never perturbs the
#             served gamma curves. Client output stays dense either way —
#             the tier is a serving-layer annex, which is exactly why its
#             presence must be invisible in these cmp checks.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build"
san_flags=()
rounds=2
events=20000
chaos=0
compact_flags=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --tsan)   build="$repo/build-tsan"; san_flags=(-DWLC_SANITIZE_THREAD=ON); shift ;;
    --chaos)  chaos=1; shift ;;
    --rounds) rounds="$2"; shift 2 ;;
    --events) events="$2"; shift 2 ;;
    --compact-eps) compact_flags+=(--compact-eps "$2"); shift 2 ;;
    --compact-rel) compact_flags+=(--compact-rel "$2"); shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

cmake -B "$build" -S "$repo" "${san_flags[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$build" -j "$(nproc)" --target wlc_analyze >/dev/null
bin="$build/tools/wlc_analyze"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

work="$(mktemp -d "${TMPDIR:-/tmp}/wlc_soak.XXXXXX")"
sock="$work/daemon.sock"
state="$work/state"
sock_b="$work/daemon-b.sock"
state_b="$work/state-b"
daemon_pid=""
daemon_b_pid=""
client_pids=()
cleanup() {
  [[ -n "$daemon_pid" ]] && kill -9 "$daemon_pid" 2>/dev/null || true
  [[ -n "$daemon_b_pid" ]] && kill -9 "$daemon_b_pid" 2>/dev/null || true
  for p in "${client_pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== soak workspace: $work (rounds=$rounds, events=$events, chaos=$chaos)"

python3 - "$work/trace.csv" "$events" <<'PY'
import random, sys
path, n = sys.argv[1], int(sys.argv[2])
random.seed(4242)
t = 0.0
with open(path, "w") as f:
    f.write("time,type,demand\n")
    for _ in range(n):
        t += random.uniform(1e-5, 1e-3)
        f.write(f"{t:.9f},0,{random.randint(1, 50_000)}\n")
PY

# Seeded fault plan for one daemon incarnation. Only the kinds the retry
# loops fully absorb: eintr (write_all/read_exact/open_retry loop),
# short (the same loops resume at the cut), and a small fsync delay.
# enospc/emfile are exercised by the unit tests, not here — the soak
# asserts *success*, so its plans must be recoverable by construction.
fault_spec_for_round() {  # $1 = round number
  echo "seed=$((4242 + $1));read:eintr,p=0.05;read:short,p=0.1;write:eintr,p=0.05;write:short,p=0.1;open:eintr,p=0.2;fsync:delay,p=0.1,ms=2"
}

daemon_fault_spec=""  # set per round in chaos mode; daemon-only (not clients)

start_daemon() {  # extra serve flags in "$@" (e.g. --drain-to for migration)
  WLC_FAULT_SPEC="$daemon_fault_spec" \
  "$bin" serve --listen "unix:$sock" --state-dir "$state" \
    --max-sessions 16 --snapshot-every 256 --snapshot-interval 1 \
    --request-log "$work/requests.jsonl" --watchdog-ms 5000 \
    ${compact_flags[@]+"${compact_flags[@]}"} "$@" \
    >>"$work/daemon.log" 2>&1 &
  daemon_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "$sock" ]] && return 0
    kill -0 "$daemon_pid" 2>/dev/null || { cat "$work/daemon.log" >&2; exit 1; }
    sleep 0.05
  done
  echo "daemon never created $sock" >&2; exit 1
}

start_daemon_b() {  # the migration peer: own socket, state dir, request log
  "$bin" serve --listen "unix:$sock_b" --state-dir "$state_b" \
    --max-sessions 16 --snapshot-every 256 --snapshot-interval 1 \
    --request-log "$work/requests-b.jsonl" --watchdog-ms 5000 \
    ${compact_flags[@]+"${compact_flags[@]}"} \
    >>"$work/daemon-b.log" 2>&1 &
  daemon_b_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "$sock_b" ]] && return 0
    kill -0 "$daemon_b_pid" 2>/dev/null || { cat "$work/daemon-b.log" >&2; exit 1; }
    sleep 0.05
  done
  echo "peer daemon never created $sock_b" >&2; exit 1
}

run_clients() {  # $1 = output prefix tag, $2 = throttle-ms, $3 = connect spec
  local connect="${3:-unix:$sock}"
  client_pids=()
  for i in 1 2 3; do
    "$bin" serve-client "$work/trace.csv" --connect "$connect" \
      --session "soak-$i" --tenant "tenant-$i" --chunk 128 \
      --throttle-ms "$2" --retry-for 60 --out "$work/$1-$i" \
      >"$work/$1-$i.log" 2>&1 &
    client_pids+=($!)
  done
}

# The request log's torn-write contract: one write(2) per record on an
# O_APPEND fd means a kill -9 may truncate the *stream* but never a *line* —
# the file must end in a newline and every line must be complete JSON.
check_request_log() {  # $1 = log path (default daemon A's)
  local log="${1:-$work/requests.jsonl}"
  [[ -f "$log" ]] || return 0
  python3 - "$log" <<'PY'
import json, sys
data = open(sys.argv[1], "rb").read()
if data and not data.endswith(b"\n"):
    sys.exit(f"torn request-log tail (no final newline): {data[-80:]!r}")
for i, line in enumerate(data.splitlines(), 1):
    if not line:
        continue
    try:
        json.loads(line)
    except ValueError:
        sys.exit(f"torn request-log record at line {i}: {line[:120]!r}")
PY
}

# Block until the daemon's graceful drain has fully flushed: the reactor
# appends a {"opcode":"drain","outcome":"complete"} record as the last act
# of a drain (after migration hand-offs and the final snapshot_all). This
# replaces fixed sleeps — a loaded or sanitized daemon can take arbitrarily
# long to flush, and comparing outputs before the sentinel would race it.
wait_drain_sentinel() {  # $1 = request log path
  local log="$1"
  for _ in $(seq 1 200); do
    if [[ -f "$log" ]] && grep -q '"opcode":"drain"' "$log" \
        && grep -q '"outcome":"complete"' "$log"; then
      return 0
    fi
    sleep 0.05
  done
  echo "drain sentinel never appeared in $log" >&2
  return 1
}

# After a graceful drain the state dir holds finished snapshots only: no
# temp file of a write still in flight (each restart also deletes the ones
# a kill -9 left behind) and nothing quarantined as .corrupt.
check_state_dir() {  # $1 = state dir
  local stray
  stray="$(find "$1" -type f ! -name '*.wlcs' 2>/dev/null || true)"
  if [[ -n "$stray" ]]; then
    echo "files other than *.wlcs left in $1 after the drain:" >&2
    echo "$stray" >&2
    return 1
  fi
}

stop_daemon_gracefully() {  # $1 = pid, $2 = request log; clears nothing
  kill -TERM "$1"
  wait "$1" || { echo "graceful drain exited non-zero" >&2; exit 1; }
  wait_drain_sentinel "$2" || exit 1
}

wait_clients() {  # $1 = tag
  local rc=0 p i=1
  for p in "${client_pids[@]}"; do
    if ! wait "$p"; then
      echo "client $1-$i failed:" >&2
      cat "$work/$1-$i.log" >&2
      rc=1
    fi
    i=$((i + 1))
  done
  client_pids=()
  return "$rc"
}

# --- reference 1: offline batch extraction ----------------------------------
"$bin" extract "$work/trace.csv" --out "$work/batch" >/dev/null

# --- reference 2: clean daemon run (no kill, no faults) ---------------------
start_daemon
run_clients clean 0
wait_clients clean
stop_daemon_gracefully "$daemon_pid" "$work/requests.jsonl"
daemon_pid=""
for i in 1 2 3; do
  cmp "$work/batch.gamma.csv" "$work/clean-$i.gamma.csv" \
    || { echo "clean daemon curves differ from batch (client $i)" >&2; exit 1; }
done
rm -rf "$state"
: > "$work/requests.jsonl"  # fresh log so later sentinel greps see only their own drain
echo "== clean daemon run matches batch extraction"

# --- the soak: SIGKILL mid-stream, restart, clients resume ------------------
[[ "$chaos" == 1 ]] && daemon_fault_spec="$(fault_spec_for_round 0)"
start_daemon
run_clients soak 2  # throttled so the kill lands mid-stream
for round in $(seq 1 "$rounds"); do
  sleep 1
  echo "== round $round: kill -9 daemon ($daemon_pid)"
  kill -9 "$daemon_pid"
  wait "$daemon_pid" 2>/dev/null || true
  check_request_log \
    || { echo "FAIL: request log torn by kill -9 (round $round)" >&2; exit 1; }
  sleep 0.3  # clients notice the dead socket and enter their retry window
  [[ "$chaos" == 1 ]] && daemon_fault_spec="$(fault_spec_for_round "$round")"
  start_daemon
  grep -q "recovered" "$work/daemon.log" \
    || echo "   (note: no sessions recovered this round — kill may have landed before first snapshot)"
done
wait_clients soak

for i in 1 2 3; do
  cmp "$work/batch.gamma.csv" "$work/soak-$i.gamma.csv" \
    || { echo "FAIL: post-crash curves differ from batch (client $i)" >&2; exit 1; }
  cmp "$work/clean-$i.gamma.csv" "$work/soak-$i.gamma.csv" \
    || { echo "FAIL: post-crash curves differ from clean run (client $i)" >&2; exit 1; }
done

stop_daemon_gracefully "$daemon_pid" "$work/requests.jsonl"
daemon_pid=""
check_request_log \
  || { echo "FAIL: request log torn after final drain" >&2; exit 1; }
check_state_dir "$state" \
  || { echo "FAIL: stray files in the state dir after the final drain" >&2; exit 1; }
[[ -s "$work/requests.jsonl" ]] \
  || { echo "FAIL: request log is empty after the soak" >&2; exit 1; }

# --- chaos only: live migration (drain A --drain-to B, clients fail over) ---
if [[ "$chaos" == 1 ]]; then
  echo "== chaos: live migration round (A drains to B mid-stream)"
  rm -rf "$state" "$state_b"
  : > "$work/requests.jsonl"
  daemon_fault_spec="$(fault_spec_for_round 77)"
  start_daemon --drain-to "unix:$sock_b"
  start_daemon_b
  run_clients mig 2 "unix:$sock,unix:$sock_b"
  sleep 1  # let the streams get past Open so the drain lands mid-stream
  echo "== chaos: TERM daemon A ($daemon_pid), sessions migrate to B"
  stop_daemon_gracefully "$daemon_pid" "$work/requests.jsonl"
  daemon_pid=""
  grep -q "migrated to unix:$sock_b" "$work/daemon.log" \
    || echo "   (note: no sessions migrated — drain may have landed between sessions)"
  wait_clients mig
  for i in 1 2 3; do
    cmp "$work/batch.gamma.csv" "$work/mig-$i.gamma.csv" \
      || { echo "FAIL: post-migration curves differ from batch (client $i)" >&2; exit 1; }
  done
  stop_daemon_gracefully "$daemon_b_pid" "$work/requests-b.jsonl"
  daemon_b_pid=""
  check_request_log "$work/requests-b.jsonl" \
    || { echo "FAIL: peer request log torn after migration" >&2; exit 1; }
  check_state_dir "$state" && check_state_dir "$state_b" \
    || { echo "FAIL: stray files in a state dir after the migration drain" >&2; exit 1; }
  echo "== migration round: curves bit-identical to batch after live hand-off"
fi

if [[ "$chaos" == 1 ]]; then
  echo "PASS: $rounds kill -9 rounds under seeded fault plans + 1 live migration, 3 concurrent clients, curves bit-identical to batch and clean runs, request logs whole-line JSONL throughout"
else
  echo "PASS: $rounds kill -9 rounds, 3 concurrent clients, curves bit-identical to batch and clean runs, request log whole-line JSONL throughout"
fi
