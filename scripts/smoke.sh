#!/usr/bin/env bash
# End-to-end smoke of the real binaries, one skserver process per
# replica over the zabnet TCP peer mesh, driven with skclient:
#
#   scripts/smoke.sh <vanilla|securekeeper> <leg>...
#
# Each leg boots its own ensemble, runs its flow, and frees its ports
# before the next leg starts. The legs:
#
#   failover  traffic, an atomic cas, a non-voting observer joining,
#             a leader SIGKILL, a rolling restart of every voter and a
#             SIGSTOP partition of a follower
#   durable   the failover flow on data dirs, then the whole voting
#             ensemble SIGKILLed and restarted from disk: from the
#             latest snapshot and the log after it
#   crash     three times each: (A) one random voter SIGKILLed at a
#             random point of a write burst, (B) the whole ensemble,
#             once every node holds a snapshot; no acknowledged write
#             may be lost
#   metrics   /metrics, /metrics.json, mntr and /debug/pprof/ after a
#             write burst on 3 durable voters and an observer
#   reconfig  3→5→3 voters through `skclient reconfig`, with a leader
#             SIGKILL at 5, under write bursts
#   chaos     the skchaos recipe scenarios under seeded fault schedules
#
# A soak run is a shell loop over a leg:
#   for n in $(seq 20); do scripts/smoke.sh vanilla crash || break; done
set -euo pipefail

cd "$(dirname "$0")/.."

LEGS="failover durable crash metrics reconfig chaos"
usage() {
  echo "usage: $0 <vanilla|securekeeper> <leg>... (legs: $LEGS)" >&2
  exit 2
}
[ $# -ge 2 ] || usage
VARIANT="$1"
shift
[[ "$VARIANT" == vanilla || "$VARIANT" == securekeeper ]] || usage
for leg in "$@"; do [[ " $LEGS " == *" $leg "* ]] || usage; done

# shellcheck source=scripts/smoke_lib.sh
source scripts/smoke_lib.sh

leg_failover() {
  boot "$(topo "1 2 3" 4)" 1 2 3
  local leader follower i out
  leader=$(leader_id)
  echo "== client traffic across all replicas (leader is node $leader)"
  retry skc -addr "${CADDR[1]}" create /smoke v1
  expect "1 2 3" /smoke v1
  retry skc -addr "$(addrs "1 2 3")" set /smoke v2

  echo "== atomic multi (cas) traffic"
  retry skc -addr "${CADDR[1]}" create /multi m1
  # /multi was just created at version 0: the Check+Set multi commits...
  retry skc -addr "$(addrs "1 2 3")" cas /multi 0 m2
  # ...and a stale-version cas must abort with a BADVERSION per-op
  # result (any other failure — e.g. a transiently unreachable node —
  # would mask a regression, so assert the reason).
  if out=$(skc -addr "${CADDR[1]}" cas /multi 0 m3 2>&1); then fail "stale-version cas succeeded"; fi
  grep -q BADVERSION <<<"$out" || fail "stale cas failed for the wrong reason: $out"
  expect 1 /multi m2

  echo "== observer leg: node 4 joins as a non-voting observer"
  start_node 4
  retry has_role 4 OBSERVING
  # Snapshot-sync: state written before the observer existed.
  expect 4 /smoke v2
  # Write forwarding: a create through the observer lands on the voters.
  retry skc -addr "${CADDR[4]}" create /obs o1
  expect 1 /obs o1
  converge "4 $leader"
  # Checked BEFORE any SIGKILL.
  clean_metrics "1 2 3 4"

  echo "== SIGKILL leader (node $leader)"
  kill_node "$leader"
  echo "== observer keeps serving reads while the leader is down"
  retry reads 4 /smoke v2
  wait_leader
  [ "$(leader_id)" != "$leader" ] || fail "dead node $leader still leader"
  echo "== post-failover traffic; the observer re-adopts the new leader"
  retry skc -addr "$(addrs "$(without "1 2 3" "$leader")")" set /smoke v3
  retry has_role 4 OBSERVING
  expect "$(without "1 2 3" "$leader") 4" /smoke v3
  restart "$leader"
  expect "$leader" /smoke v3

  echo "== rolling restart: bounce every voter in turn under traffic"
  for i in 1 2 3; do
    kill_node "$i"
    # The other two keep a quorum: the write lands while node $i is
    # down, and the restarted node must catch up to it.
    retry skc -addr "$(addrs "1 2 3")" set /smoke "roll$i"
    restart "$i"
    wait_leader
    expect "$i" /smoke "roll$i"
  done

  echo "== partition: SIGSTOP a follower, commit around it, SIGCONT"
  wait_leader
  follower=$(without "1 2 3" "$(leader_id)")
  follower="${follower%% *}"
  kill -STOP "${PIDS[$follower]}"
  retry skc -addr "$(addrs "$(without "1 2 3" "$follower")")" create /part p1
  retry skc -addr "$(addrs "$(without "1 2 3" "$follower")")" set /smoke part1
  kill -CONT "${PIDS[$follower]}"
  # It must catch up without a restart.
  expect "$follower" /part p1
  wait_leader
  converge "$follower $(leader_id)"
}

leg_durable() {
  DURABLE=1
  leg_failover
  echo "== restart-from-disk: SIGKILL the WHOLE voting ensemble, restart"
  # No live voter is left to sync from: what the restarted ensemble
  # serves can only have come from disk. The observer stays up and must
  # re-adopt the recovered leader.
  snapshotted "1 2 3 4"
  kill_node 1 2 3
  for i in 1 2 3; do restart "$i"; done
  wait_leader
  expect "1 2 3" /smoke part1
  expect "1 2 3" /multi m2
  retry skc -addr "$(addrs "1 2 3")" set /smoke v4
  retry has_role 4 OBSERVING
  retry synced_reads 4 /smoke v4
}

leg_crash() {
  DURABLE=1
  boot "$(topo "1 2 3")" 1 2 3
  local k i victim
  for k in 1 2 3; do
    burst_start "crashA$k" "1 2 3" 800
    burst_at $((RANDOM % 600 + 100))
    victim=$((RANDOM % 3 + 1))
    echo "== [A$k] SIGKILL node $victim mid-burst"
    kill_node "$victim"
    MARK=$(wc -l <"$LEDGER")
    # The survivors kept a quorum: the burst keeps landing writes.
    burst_end 1 quorum
    restart "$victim"
    wait_leader
    # Recovery loses no acknowledged write, and resurrects nothing the
    # ensemble did not agree on.
    verify_ledger "$victim"
    converge "$victim $((victim % 3 + 1))"
  done
  for k in 1 2 3; do
    burst_start "crashB$k" "1 2 3" 800
    burst_at $((RANDOM % 600 + 100))
    snapshotted "1 2 3"
    echo "== [B$k] SIGKILL the whole ensemble mid-burst"
    kill_node 1 2 3
    burst_end 0
    for i in 1 2 3; do restart "$i"; done
    wait_leader
    # Everything below can only have come from the logs and snapshots.
    verify_ledger "1 2 3"
    converge "1 2 3"
  done
}

# zxids_converged LEADER — every node's committed-zxid gauge equals the
# leader's, which covers the burst. The leader's is re-read each time:
# a sync barrier is itself a commit.
zxids_converged() {
  local lz i
  lz=$(metric "$1" zab_committed_zxid) && [ "$lz" -ge "$ACKED" ] || return 1
  for i in 1 2 3 4; do [ "$(metric "$i" zab_committed_zxid)" = "$lz" ] || return 1; done
}

leg_metrics() {
  # The group-commit fsync stage only exists with a WAL.
  DURABLE=1
  boot "$(topo "1 2 3" 4)" 1 2 3 4
  retry has_role 4 OBSERVING
  local leader i n sum want fam kind dir what out
  leader=$(leader_id)
  # Aimed at the leader, so its session layer times every write.
  burst_start metrics "$leader" 200
  burst_end 200

  echo "== every process serves /metrics and /metrics.json"
  local wants=('^# HELP ' '^# TYPE ' '^zab_committed_zxid ' '^zab_leader_committed_zxid ' '^server_uptime_seconds '
    '^server_sessions ' '^server_submit_to_commit_seconds_count' '^zabnet_outbox_shed_total' '^storage_corrupt_records_total')
  if [ "$VARIANT" = securekeeper ]; then
    wants+=('^enclave_ecalls_total{')
    for kind in entry counter; do for dir in enc dec; do for what in hits misses evictions; do
      wants+=("^skcrypto_path_cache_${what}_total{enclave=\"$kind\",dir=\"$dir\"} ")
    done; done; done
  fi
  for i in 1 2 3 4; do
    # To files: grep -q closing a pipe early would fail curl under pipefail.
    curl -sf --max-time 5 -o "$LOGS/metrics$i.txt" "http://${MADDR[$i]}/metrics"
    curl -sf --max-time 5 -o "$LOGS/metrics$i.json" "http://${MADDR[$i]}/metrics.json"
    for want in "${wants[@]}"; do
      grep -q "$want" "$LOGS/metrics$i.txt" || fail "node $i /metrics is missing $want"
    done
    grep -q '"zab_committed_zxid"' "$LOGS/metrics$i.json" || fail "node $i /metrics.json did not render"
  done

  echo "== leader pipeline histograms saw the burst"
  n=$(metric "$leader" server_submit_to_commit_seconds_count)
  [ "$n" -ge "$ACKED" ] || fail "leader submit-to-commit count $n < $ACKED acked writes"
  n=$(metric "$leader" storage_fsync_seconds_count)
  [ "$n" -gt 0 ] || fail "leader recorded no group-commit fsyncs despite the durable burst"
  # The flush rule's holds, one series per way a hold ended.
  for want in requests bound; do
    n=$(metric "$leader" "storage_flush_hold_seconds_count{ended=\"$want\"}") \
      || fail "leader /metrics has no storage_flush_hold_seconds{ended=\"$want\"} series"
    echo "== leader: $n flush holds ended=$want"
  done
  for fam in zabnet_frames_per_write server_frames_per_release_write server_frames_per_request_read \
    $([ "$VARIANT" = vanilla ] || echo enclave_msgs_per_ecall); do
    n=$(metric "$leader" "${fam}_count") || fail "leader /metrics has no $fam histogram"
    sum=$(metric "$leader" "${fam}_sum")
    [ "$n" -gt 0 ] && [ "$sum" -ge "$n" ] || fail "leader $fam recorded $sum frames in $n calls after the burst"
    echo "== leader: $fam = $sum frames in $n calls"
  done

  echo "== committed-zxid gauges converge on the leader's"
  for i in 1 2 3 4; do retry skc -addr "${CADDR[$i]}" sync /; done
  retry zxids_converged "$leader"

  echo "== mntr renders from a voter and from the observer"
  wants=(sk_role sk_zxid sk_uptime_seconds sk_commit_lag zab_committed_zxid server_uptime_seconds
    zabnet_frames_per_write_count server_frames_per_release_write_count server_frames_per_request_read_count
    storage_flush_hold_seconds_requests_count storage_flush_hold_seconds_bound_count)
  [ "$VARIANT" = vanilla ] || wants+=(enclave_msgs_per_ecall_ec_request_count skcrypto_path_cache_hits_total_entry_enc
    skcrypto_path_cache_misses_total_entry_enc skcrypto_path_cache_evictions_total_counter_dec)
  for i in "$leader" 4; do
    out=$(skc -addr "${CADDR[$i]}" mntr)
    for want in "${wants[@]}"; do grep -q "^$want" <<<"$out" || fail "node $i mntr is missing $want"; done
  done
  grep -q '^sk_role	OBSERVING' <<<"$out" || fail "observer mntr does not report OBSERVING"

  clean_metrics "1 2 3 4"
  echo "== the admin listener serves runtime profiles"
  curl -sf --max-time 5 -o "$LOGS/pprof_index.html" "http://${MADDR[$leader]}/debug/pprof/"
  curl -sf --max-time 5 -o "$LOGS/heap.pprof" "http://${MADDR[$leader]}/debug/pprof/heap"
  [ -s "$LOGS/heap.pprof" ] || fail "leader /debug/pprof/heap is empty"
}

# wait_ensemble WANT — every voter's stat op reports exactly the
# ensemble WANT: the atomic quorum switch reached all of them.
ensemble_is() { [[ "$(node_role "$1")" == *"ensemble=\"$2\""* ]]; }
wait_ensemble() {
  local i
  for i in $VOTERS; do
    retry ensemble_is "$i" "$1" || fail "node $i never reported ensemble \"$1\" (has: $(node_role "$i"))"
  done
}

# grow_node N — add N as an observer, boot it against the incumbents,
# wait for snapshot-sync, promote it to voter.
grow_node() {
  echo "== grow: reconfig add $1, boot, promote"
  retry skc -addr "$(addrs "$VOTERS")" reconfig add "$1" "${MESH[$1]}"
  # Its own topology: the voters plus itself as observer. The voters
  # learned its address from the committed reconfig.
  start_node "$1" "$(topo "$VOTERS" "$1")"
  retry has_role "$1" OBSERVING
  # The promote gate refuses until the leader has snapshot-synced the
  # joiner, so retrying IS the admission protocol.
  retry skc -addr "$(addrs "$VOTERS")" reconfig promote "$1"
  retry has_role "$1" FOLLOWING
  VOTERS="$VOTERS $1"
}

leg_reconfig() {
  boot "$(topo "1 2 3")" 1 2 3
  retry skc -addr "$(addrs "$VOTERS")" create /seed s1
  local l v victims
  echo "== leg 1: grow 3→5 under a write burst"
  burst_start grow "$VOTERS" 1200
  grow_node 4
  grow_node 5
  burst_end 1 quorum
  verify_ledger "$VOTERS"
  converge "$VOTERS"
  wait_ensemble "voters=1,2,3,4,5 observers="

  echo "== leg 2: SIGKILL failover on the 5-voter quorum"
  burst_start failover "$VOTERS" 800
  burst_at $((RANDOM % 600 + 100))
  wait_leader
  l=$(leader_id)
  kill_node "$l"
  MARK=$(wc -l <"$LEDGER")
  wait_leader
  [ "$(leader_id)" != "$l" ] || fail "dead node $l still leader"
  burst_end 1 quorum
  # All five are voters now: no :observer suffix.
  restart "$l" "$(topo "$VOTERS")"
  verify_ledger "$VOTERS"
  converge "$VOTERS"

  echo "== leg 3: shrink 5→3 under a write burst"
  wait_leader
  victims=$(without "5 4 3 2" "$(leader_id)" | cut -d' ' -f1,2)
  # Aimed at the members that survive: a removed replica refusing the
  # burst's writes is its contract, not the burst's failure.
  burst_start shrink "$(without "$VOTERS" $victims)" 800
  for v in $victims; do
    VOTERS=$(without "$VOTERS" "$v")
    retry skc -addr "$(addrs "$VOTERS")" reconfig remove "$v"
    # It parks read-only instead of campaigning: role REMOVED, a loud
    # log line, writes refused, reads served from the frozen tree.
    retry has_role "$v" REMOVED
    grep -q "REMOVED FROM ENSEMBLE" "$LOGS/node$v.log" || fail "removed node $v never logged its removal"
    ! skc -timeout 2s -addr "${CADDR[$v]}" create "/from-removed-$v" x >/dev/null 2>&1 \
      || fail "removed node $v accepted a write"
    skc -timeout 2s -addr "${CADDR[$v]}" get /seed >/dev/null || fail "removed node $v stopped serving reads"
  done
  # Digests only after the burst: members are digested one after
  # another, and a commit between two digests would make them differ.
  burst_end 1 quorum
  verify_ledger "$VOTERS"
  converge "$VOTERS"
  wait_ensemble "voters=${VOTERS// /,} observers="
}

leg_chaos() {
  go build -o "$BIN/skchaos" ./cmd/skchaos
  # A violation prints the offending history and the replay command.
  local chaos=("$BIN/skchaos" -seed 1 -duration 4s)
  if [ "$VARIANT" = vanilla ]; then
    "${chaos[@]}" -scenario all 2>&1 | tee "$LOGS/all.log"
    # Durable replicas add fsync stalls to the schedule.
    "${chaos[@]}" -scenario lock -datadir "$DATA/chaos" 2>&1 | tee "$LOGS/lock-durable.log"
  else
    "${chaos[@]}" -scenario lock -variant securekeeper 2>&1 | tee "$LOGS/lock-securekeeper.log"
  fi
}

smoke_build
for leg in "$@"; do
  echo "=== leg $leg ($VARIANT)"
  LOGS="$LOG_ROOT/$VARIANT-$leg" DATA="$DATA_ROOT/$leg" DURABLE=0 VOTERS="1 2 3" START=$SECONDS
  mkdir -p "$LOGS" "$DATA"
  "leg_$leg"
  teardown
  echo "=== leg $leg passed in $((SECONDS - START))s"
done
echo "PASS: $VARIANT: $*"
