# shellcheck shell=bash
# Primitives of scripts/smoke.sh, sourced after it sets VARIANT: the
# skserver/skclient build, one address plan, the PID table with its
# kill-all EXIT trap, and the operations every leg is made of — boot a
# topology, kill, restart, expect a read, check that digests converge,
# verify a ledger, run a burst, check the clean-run metrics.
#
# SMOKE_LOG_DIR, when set, receives the node logs and burst ledgers,
# one directory per leg (CI uploads it on failure); unset, a throwaway
# tempdir is used.

BIN="$(mktemp -d)"
LOG_ROOT="${SMOKE_LOG_DIR:-$(mktemp -d)}"
DATA_ROOT="$(mktemp -d)"

# SecureKeeper replicas must share one storage key (the key server's
# released key) or they would replicate mutually undecryptable state.
KEYFLAGS=()
if [ "${VARIANT:?smoke_lib: set VARIANT before sourcing}" = securekeeper ]; then
  KEYFLAGS=(-storage-key "00112233445566778899aabbccddeeff")
fi

# Node ids 1..5: mesh at BASE+i, clients at BASE+10+i, metrics at
# BASE+20+i. Every leg uses the same ports and frees them when it ends.
BASE=24180
MESH=() CADDR=() MADDR=()
for i in 1 2 3 4 5; do
  MESH[$i]="127.0.0.1:$((BASE + i))"
  CADDR[$i]="127.0.0.1:$((BASE + 10 + i))"
  MADDR[$i]="127.0.0.1:$((BASE + 20 + i))"
done
declare -A PIDS=()

cleanup() {
  local rc=$? pid
  for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  [ "$rc" = 0 ] || tail -n 20 "${LOGS:-$LOG_ROOT}"/node*.log 2>/dev/null || true
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

smoke_build() {
  echo "== build"
  go build -o "$BIN/skserver" ./cmd/skserver
  go build -o "$BIN/skclient" ./cmd/skclient
}

skc() { "$BIN/skclient" -variant "$VARIANT" "$@"; }

# addrs IDS — the comma-separated client addresses of the node ids IDS.
addrs() {
  local i s=""
  for i in $1; do s="${s:+$s,}${CADDR[$i]}"; done
  echo "$s"
}

# without IDS ID... — IDS with the given ids left out.
without() {
  local i s=""
  for i in $1; do [[ " ${*:2} " == *" $i "* ]] || s="${s:+$s }$i"; done
  echo "$s"
}

# topo VOTERS [OBSERVER] — the topology spec of the voter ids VOTERS,
# plus OBSERVER as a non-voting observer. Every process gets the full
# spec: voters check an observer's claimed role against it.
topo() {
  local i s=""
  for i in $1; do s="${s:+$s;}$i@${MESH[$i]}"; done
  [ -z "${2:-}" ] || s="$s;$2@${MESH[$2]}:observer"
  echo "$s"
}

# start_node ID [TOPO] — launch one skserver process. TOPO defaults to
# the leg's $TOPO; pass an explicit spec for members whose view of the
# ensemble differs (a reconfig joiner). DURABLE=1 adds -data-dir and a
# snapshot every 10 commits, so that a durable leg's restarts recover
# from snapshots and the log behind them, not from the log alone.
start_node() {
  local i="$1" extra=()
  [ "$DURABLE" = 0 ] || extra=(-data-dir "$DATA/node$i" -snapshot-every 10)
  "$BIN/skserver" -variant "$VARIANT" -id "$i" -topology "${2:-$TOPO}" \
    ${KEYFLAGS[@]+"${KEYFLAGS[@]}"} ${extra[@]+"${extra[@]}"} \
    -metrics-addr "${MADDR[$i]}" -listen "${CADDR[$i]}" >>"$LOGS/node$i.log" 2>&1 &
  PIDS[$i]=$!
  echo "== node $i started (pid ${PIDS[$i]}, clients ${CADDR[$i]}, durable=$DURABLE)"
}

# boot TOPO ID... — set the leg's topology, start the nodes, and wait
# for a leader.
boot() {
  TOPO="$1"
  shift
  local i
  for i in "$@"; do start_node "$i"; done
  wait_leader
}

# kill_node ID... — SIGKILL the nodes and wait until they are gone
# (delivery is async; a fixed settle sleep is either slow or a flake).
kill_node() {
  local i pids=()
  for i in "$@"; do
    pids+=("${PIDS[$i]}")
    kill -9 "${PIDS[$i]}" 2>/dev/null || true
    unset "PIDS[$i]"
  done
  for _ in $(seq 1 100); do
    for i in ${pids[@]+"${pids[@]}"}; do kill -0 "$i" 2>/dev/null && { sleep 0.1; continue 2; }; done
    return 0
  done
  fail "processes still alive after SIGKILL: ${pids[*]}"
}

# wait_port_free HOST:PORT... — bounded wait until nothing accepts on
# the addresses (a killed node's listener can linger briefly; a restart
# on the same port must not race it).
wait_port_free() {
  local addr
  for _ in $(seq 1 100); do
    for addr in "$@"; do
      (exec 3<>"/dev/tcp/${addr%%:*}/${addr##*:}") 2>/dev/null && { sleep 0.1; continue 2; }
    done
    return 0
  done
  fail "ports still busy: $*"
}

# restart ID [TOPO] — start a killed node again once its ports are free.
restart() {
  wait_port_free "${MESH[$1]}" "${CADDR[$1]}" "${MADDR[$1]}"
  start_node "$@"
}

# teardown — SIGKILL the leg's nodes and wait until every port is free
# for the next leg.
teardown() {
  local i all=()
  kill_node "${!PIDS[@]}"
  for i in 1 2 3 4 5; do all+=("${MESH[$i]}" "${CADDR[$i]}" "${MADDR[$i]}"); done
  wait_port_free "${all[@]}"
}

# node_role prints "role=... leader=... ... ensemble=..." from node
# $1's machine-readable stat op (skclient info) instead of log greps.
node_role() { skc -timeout 2s -addr "${CADDR[$1]}" info 2>/dev/null; }

# has_role ID ROLE — node ID reports ROLE (OBSERVING, REMOVED, ...).
has_role() { [[ "$(node_role "$1")" == "role=$2"* ]]; }

# leader_id prints the id of the running voter (of $VOTERS) currently
# reporting LEADING through the stat op.
leader_id() {
  local i
  for i in $VOTERS; do
    [ -n "${PIDS[$i]:-}" ] || continue
    if has_role "$i" LEADING; then
      echo "$i"
      return 0
    fi
  done
  return 1
}

wait_leader() {
  for _ in $(seq 1 300); do
    if leader_id >/dev/null; then return 0; fi
    sleep 0.1
  done
  fail "no leader elected"
}

# retry CMD... until success (ensemble may be mid-election).
retry() {
  for _ in $(seq 1 100); do
    if "$@" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: retries exhausted: $*" >&2
  return 1
}

# reads ID PATH WANT — node ID serves WANT... at PATH. No sync barrier:
# it must answer while the ensemble has no leader.
reads() { [[ "$(skc -timeout 2s -addr "${CADDR[$1]}" get "$2")" == "$3"* ]]; }
synced_reads() { skc -addr "${CADDR[$1]}" sync "$2" && reads "$@"; }

# expect IDS PATH WANT — after a sync barrier, every node of IDS reads
# WANT... at PATH.
expect() {
  local i got
  for i in $1; do
    retry skc -addr "${CADDR[$i]}" sync "$2"
    got=$(skc -addr "${CADDR[$i]}" get "$2")
    [[ "$got" == "$3"* ]] || fail "node $i read $2 = '$got', want $3"
  done
}

# converge IDS — after a sync barrier on each, every node of IDS
# reports one deterministic recursive tree digest.
converge() {
  local i d first=""
  for i in $1; do
    retry skc -addr "${CADDR[$i]}" sync /
    d=$(skc -addr "${CADDR[$i]}" digest / | awk '/^digest /{print $2, $3}')
    first="${first:-$d}"
    [ "$d" = "$first" ] || fail "node $i digest $d != $first (nodes $1)"
  done
  echo "== digests converged on nodes $1 ($first)"
}

# acked_paths LEDGER — the paths of acknowledged writes (may be empty).
acked_paths() { awk '/^ACK /{print $2}' "$1"; }

# verify_ledger IDS — every write the burst ledger $LEDGER acknowledged
# exists on every node of IDS.
verify_ledger() {
  local i
  for i in $1; do
    retry skc -addr "${CADDR[$i]}" sync /
    acked_paths "$LEDGER" | skc -addr "${CADDR[$i]}" verify >/dev/null \
      || fail "node $i lost acknowledged writes of $LEDGER"
  done
}

# burst_start NAME IDS COUNT — COUNT creates under /NAME through the
# nodes IDS, in the background, with their ledger in $LEDGER. burst
# redials by itself, so no retry wrapper (which would also swallow the
# ledger). A leg that kills a node mid-burst sets MARK to the ledger's
# length at the kill.
burst_start() {
  LEDGER="$LOGS/ledger-$1.txt" MARK=""
  : >"$LEDGER"
  skc -timeout 240s -addr "$(addrs "$2")" burst "/$1" "$3" 32 >"$LEDGER" &
  BURST=$!
}

# burst_at N — wait until the burst's ledger has N lines, or it ended:
# a random N puts a kill at a random point inside the burst.
burst_at() {
  while [ "$(wc -l <"$LEDGER")" -lt "$1" ] && kill -0 "$BURST" 2>/dev/null; do sleep 0.01; done
}

# burst_end MIN [quorum] — the burst must end cleanly with at least MIN
# acknowledged writes in $ACKED. With quorum (a quorum stayed up all
# along) it must not have aborted, and must have acknowledged writes
# after MARK.
burst_end() {
  local n
  wait "$BURST" || fail "burst client crashed ($LEDGER)"
  ACKED=$(acked_paths "$LEDGER" | wc -l)
  echo "== $(tail -n 1 "$LEDGER") ($LEDGER)"
  [ "$ACKED" -ge "$1" ] || fail "burst acked $ACKED writes, want >= $1 ($LEDGER)"
  [ "${2:-}" = quorum ] || return 0
  ! grep -q '^BURST aborting' "$LEDGER" || fail "burst aborted with a quorum up ($LEDGER)"
  [ -n "$MARK" ] || return 0
  n=$(tail -n +"$((MARK + 1))" "$LEDGER" | grep -c '^ACK ') || fail "no write acknowledged after the kill ($LEDGER)"
  echo "== $n writes acknowledged after the kill"
}

# snapshotted IDS — every node of IDS has a snapshot in its data dir.
snapshotted() {
  local i
  for i in $1; do
    compgen -G "$DATA/node$i/snapshot.*" >/dev/null || fail "node $i has no snapshot in $DATA/node$i"
  done
  echo "== nodes $1 each hold a snapshot"
}

# metric ID NAME — scrape node ID's /metrics and sum the family's
# samples across label sets; fails, printing 0, when the family is
# absent. %.0f, not %d: mawk's %d clamps at 2^31-1 and a zxid carries
# the epoch in its high bits.
metric() {
  curl -sf --max-time 5 "http://${MADDR[$1]}/metrics" | awk -v name="$2" '
    index($1, name) == 1 { s += $NF; found = 1 }
    END { printf "%.0f\n", s; exit !found }'
}

# clean_metrics IDS — a healthy ensemble never sheds a peer-mesh
# message (an outbox hit capacity and silently dropped) and never counts
# a corrupt storage record (the WAL/snapshot codecs quietly eating
# state). Only durable nodes have the storage family.
clean_metrics() {
  local i n
  for i in $1; do
    n=$(metric "$i" zabnet_outbox_shed_total) || fail "node $i exposes no zabnet_outbox_shed_total"
    [ "$n" = 0 ] || fail "node $i shed $n outbox messages on a clean run"
    n=$(metric "$i" storage_corrupt_records_total) || [ "$DURABLE" = 0 ] \
      || fail "node $i exposes no storage_corrupt_records_total"
    [ "$n" = 0 ] || fail "node $i counted $n corrupt storage records on a clean run"
  done
  echo "== metrics clean on nodes $1: zero outbox sheds, zero corrupt records"
}
