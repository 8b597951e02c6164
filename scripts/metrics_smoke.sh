#!/usr/bin/env bash
# Ensemble metrics smoke: build skserver/skclient, launch 3 voters plus
# 1 non-voting observer over the zabnet TCP peer mesh with the admin
# metrics listener enabled on every process, drive a client write
# burst, and then validate the observability surface end to end:
#
#   1. every process serves Prometheus text on /metrics (HELP/TYPE
#      present, core families registered) and a JSON dump on
#      /metrics.json;
#   2. the commit pipeline actually recorded the burst: the leader's
#      per-stage histograms have non-zero counts, its committed-zxid
#      gauge covers the acknowledged writes, the flush rule's hold
#      histogram renders both of its series (ended="requests" and
#      ended="bound"), and the batch factors of
#      the mesh link writers, the session writers and the session
#      readers (zabnet_frames_per_write, server_frames_per_release_write,
#      server_frames_per_request_read) are exposed with count > 0 and
#      sum >= count;
#   3. the replication gauges agree: after a sync barrier, every
#      voter's and the observer's zab_committed_zxid converges on the
#      leader's (diffing the leader's committed zxid against each
#      replica's own gauge);
#   4. skclient mntr renders the ZooKeeper-style KV dump from a voter
#      AND from the observer;
#   5. clean-run invariants hold: zero zabnet outbox sheds, zero
#      corrupt storage records.
#
#   6. the admin listener serves the runtime profiles under
#      /debug/pprof/.
#
# SMOKE_VARIANT=securekeeper additionally asserts the enclave ecall
# counters, the messages-per-crossing histogram
# (enclave_msgs_per_ecall, sum >= count) and the path-chunk cache
# counters (skcrypto_path_cache_{hits,misses,evictions}_total per
# enclave kind and direction) are exposed (the vanilla variant has no
# enclave boundary).
set -euo pipefail

cd "$(dirname "$0")/.."

VARIANT="${SMOKE_VARIANT:-vanilla}"
BASE="${SMOKE_PORT_BASE:-28480}"
# Durable nodes: the group-commit fsync stage only exists with a WAL,
# and this smoke asserts its histogram fills during the burst.
DURABLE=1

# shellcheck source=scripts/smoke_lib.sh
source scripts/smoke_lib.sh

smoke_addrs 4
TOPO=""
for i in 1 2 3 4; do
  TOPO="${TOPO:+$TOPO;}$i@${MESH[$i]}"
done
TOPO="$TOPO:observer"

smoke_build

scrape() { curl -sf --max-time 5 "http://$1/metrics"; }

for i in 1 2 3 4; do start_node "$i"; done
wait_leader
LEADER=$(leader_id)
echo "== leader is node $LEADER"
observer_observing() { [[ "$(node_role 4)" == role=OBSERVING* ]]; }
retry observer_observing

ALL_ADDRS="${CADDR[1]},${CADDR[2]},${CADDR[3]}"

echo "== client write burst through the voting ensemble"
LEDGER="$LOGS/ledger.txt"
# Aimed at the leader so its session layer times every write of the
# burst (a follower session would forward, and the leader-side
# submit-to-commit count could legitimately trail the ledger). burst
# manages its own redial, so no retry wrapper (which would also swallow
# the ACK ledger on stdout).
skc -timeout 120s -addr "${CADDR[$LEADER]}" burst /metrics-smoke 200 64 >"$LEDGER"
ACKED=$(grep -c '^ACK ' "$LEDGER" || true)
echo "== burst done: $ACKED acknowledged writes"
[ "$ACKED" -ge 200 ] || { echo "FAIL: burst acked $ACKED of 200 writes" >&2; exit 1; }

echo "== every process serves the Prometheus text exposition"
for i in 1 2 3 4; do
  scrape "${MADDR[$i]}" >"$LOGS/metrics$i.txt"
  for want in '^# HELP ' '^# TYPE ' '^zab_committed_zxid ' '^zab_leader_committed_zxid ' \
    '^server_uptime_seconds ' '^server_sessions ' '^server_submit_to_commit_seconds_count'; do
    grep -q "$want" "$LOGS/metrics$i.txt" \
      || { echo "FAIL: node $i /metrics is missing $want" >&2; exit 1; }
  done
  if [ "$VARIANT" = securekeeper ]; then
    grep -q '^enclave_ecalls_total{' "$LOGS/metrics$i.txt" \
      || { echo "FAIL: node $i exposes no enclave ecall counters" >&2; exit 1; }
    for kind in entry counter; do
      for dir in enc dec; do
        for what in hits misses evictions; do
          grep -q "^skcrypto_path_cache_${what}_total{enclave=\"$kind\",dir=\"$dir\"} " "$LOGS/metrics$i.txt" \
            || { echo "FAIL: node $i exposes no skcrypto_path_cache_${what}_total for $kind/$dir" >&2; exit 1; }
        done
      done
    done
  fi
  # The JSON debug dump renders the same snapshot. (Fetched to a file:
  # piping into grep -q would close the pipe early and, under
  # pipefail, turn curl's SIGPIPE into a spurious failure.)
  curl -sf --max-time 5 -o "$LOGS/metrics$i.json" "http://${MADDR[$i]}/metrics.json"
  grep -q '"zab_committed_zxid"' "$LOGS/metrics$i.json" \
    || { echo "FAIL: node $i /metrics.json did not render" >&2; exit 1; }
done

echo "== leader pipeline histograms saw the burst"
SUBMITS=$(metric_value "${MADDR[$LEADER]}" server_submit_to_commit_seconds_count)
[ "$SUBMITS" -ge "$ACKED" ] \
  || { echo "FAIL: leader submit-to-commit count $SUBMITS < $ACKED acked writes" >&2; exit 1; }
FSYNCS=$(metric_value "${MADDR[$LEADER]}" storage_fsync_seconds_count)
[ "$FSYNCS" -gt 0 ] \
  || { echo "FAIL: leader recorded no group-commit fsyncs despite the durable burst" >&2; exit 1; }
echo "== leader: submit_to_commit count=$SUBMITS, fsync count=$FSYNCS"
# The flush rule's holds, one series per way a hold ended: the share
# that ran to its bound is the bound count over both.
for ended in requests bound; do
  holds=$(metric_value "${MADDR[$LEADER]}" "storage_flush_hold_seconds_count{ended=\"$ended\"}") \
    || { echo "FAIL: leader /metrics has no storage_flush_hold_seconds{ended=\"$ended\"} series" >&2; exit 1; }
  echo "== leader: $holds flush holds ended=$ended"
done

echo "== batch factors of the burst-taking readers and writers are exposed and saw the burst"
FAMILIES="zabnet_frames_per_write server_frames_per_release_write server_frames_per_request_read"
if [ "$VARIANT" = securekeeper ]; then FAMILIES="$FAMILIES enclave_msgs_per_ecall"; fi
for fam in $FAMILIES; do
  writes=$(metric_value "${MADDR[$LEADER]}" "${fam}_count") \
    || { echo "FAIL: leader /metrics has no $fam histogram" >&2; exit 1; }
  frames=$(metric_value "${MADDR[$LEADER]}" "${fam}_sum")
  [ "$writes" -gt 0 ] && [ "$frames" -ge "$writes" ] \
    || { echo "FAIL: leader $fam recorded $frames frames in $writes calls after the burst" >&2; exit 1; }
  echo "== leader: $fam = $frames frames in $writes calls"
done

echo "== committed-zxid gauges converge on the leader's"
for i in 1 2 3 4; do retry skc -addr "${CADDR[$i]}" sync /; done
# Re-capture the leader's gauge inside the predicate: a sync barrier is
# itself a commit, so the bound moves until the last barrier lands.
zxids_converged() {
  local lz z i
  lz=$(metric_value "${MADDR[$LEADER]}" zab_committed_zxid) || return 1
  [ "$lz" -ge "$ACKED" ] || return 1
  for i in 1 2 3 4; do
    z=$(metric_value "${MADDR[$i]}" zab_committed_zxid) || return 1
    [ "$z" = "$lz" ] || return 1
  done
}
retry zxids_converged
echo "== all 4 committed-zxid gauges agree at $(metric_value "${MADDR[$LEADER]}" zab_committed_zxid)"

echo "== mntr renders from a voter and from the observer"
for i in "$LEADER" 4; do
  out=$(skc -addr "${CADDR[$i]}" mntr)
  for key in sk_role sk_zxid sk_uptime_seconds sk_commit_lag zab_committed_zxid server_uptime_seconds \
    zabnet_frames_per_write_count server_frames_per_release_write_count \
    server_frames_per_request_read_count storage_flush_hold_seconds_requests_count \
    storage_flush_hold_seconds_bound_count; do
    grep -q "^$key" <<<"$out" \
      || { echo "FAIL: node $i mntr is missing $key" >&2; exit 1; }
  done
  if [ "$VARIANT" = securekeeper ]; then
    for key in enclave_msgs_per_ecall_ec_request_count skcrypto_path_cache_hits_total_entry_enc \
      skcrypto_path_cache_misses_total_entry_enc skcrypto_path_cache_evictions_total_counter_dec; do
      grep -q "^$key" <<<"$out" \
        || { echo "FAIL: node $i mntr is missing $key" >&2; exit 1; }
    done
  fi
done
grep -q '^sk_role	OBSERVING' <<<"$(skc -addr "${CADDR[4]}" mntr)" \
  || { echo "FAIL: observer mntr does not report OBSERVING" >&2; exit 1; }

echo "== clean-run invariants: no sheds, no corrupt records"
for i in 1 2 3 4; do
  shed=$(metric_value "${MADDR[$i]}" zabnet_outbox_shed_total)
  corrupt=$(metric_value "${MADDR[$i]}" storage_corrupt_records_total)
  [ "$shed" = 0 ] || { echo "FAIL: node $i shed $shed outbox messages" >&2; exit 1; }
  [ "$corrupt" = 0 ] || { echo "FAIL: node $i counted $corrupt corrupt records" >&2; exit 1; }
done

echo "== the admin listener serves runtime profiles"
curl -sf --max-time 5 -o "$LOGS/pprof_index.html" "http://${MADDR[$LEADER]}/debug/pprof/"
curl -sf --max-time 5 -o "$LOGS/heap.pprof" "http://${MADDR[$LEADER]}/debug/pprof/heap"
[ -s "$LOGS/heap.pprof" ] || { echo "FAIL: leader /debug/pprof/heap is empty" >&2; exit 1; }

echo "PASS: metrics smoke green (4 processes scraped, gauges converged, mntr rendered)"
