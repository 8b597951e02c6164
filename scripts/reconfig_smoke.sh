#!/usr/bin/env bash
# Dynamic-membership smoke: build skserver/skclient, launch a 3-voter
# ensemble over the zabnet TCP peer mesh, then reshape it live through
# the reconfig admin op — the same `skclient reconfig` an operator
# would use — while client write bursts ride through every transition:
#
#   1. grow 3→5: each joiner is `reconfig add`-ed as an observer, boots
#      against the incumbents, snapshot-syncs, and is `reconfig
#      promote`-d to voter (the promote gate refuses until the leader
#      has synced it, so the script retries into the gate);
#   2. SIGKILL failover at 5 voters: the leader dies mid-burst, the
#      remaining 4 re-elect on the larger quorum, and the killed voter
#      restarts and resyncs;
#   3. shrink 5→3: two non-leader voters are `reconfig remove`-d; each
#      must park read-only (role=REMOVED, loud log line, writes
#      refused, reads still served) instead of campaigning.
#
# After EVERY leg, once its burst has finished, the script
# digest-verifies the members against each other and replays the
# burst's acknowledged-write ledger with `skclient verify`: zero acked
# writes may be lost across any membership change.
# SMOKE_VARIANT=securekeeper runs the identical flow over the attested,
# encrypted mesh.
set -euo pipefail

cd "$(dirname "$0")/.."

VARIANT="${SMOKE_VARIANT:-vanilla}"
BASE="${SMOKE_PORT_BASE:-29080}"

# shellcheck source=scripts/smoke_lib.sh
source scripts/smoke_lib.sh

smoke_addrs 5
TOPO=""
for i in 1 2 3; do
  TOPO="${TOPO:+$TOPO;}$i@${MESH[$i]}"
done

# MEMBERS — the live, non-removed voter ids, kept sorted; VOTERS (the
# lib's leader probe list) tracks it through every transition.
MEMBERS="1 2 3"
VOTERS="$MEMBERS"

member_addrs() {
  local i s=""
  for i in $MEMBERS; do s="${s:+$s,}${CADDR[$i]}"; done
  echo "$s"
}

drop_member() {
  local v="$1" i new=""
  for i in $MEMBERS; do [ "$i" = "$v" ] || new="${new:+$new }$i"; done
  MEMBERS="$new"
  VOTERS="$MEMBERS"
}

# digests_converge — sync every member and assert one common tree
# digest across the current membership.
digests_converge() {
  local first="" d i
  for i in $MEMBERS; do
    retry skc -addr "${CADDR[$i]}" sync /
    d=$(tree_digest "${CADDR[$i]}")
    if [ -z "$first" ]; then
      first="$d"
    elif [ "$d" != "$first" ]; then
      echo "FAIL: node $i digest $d != $first" >&2
      return 1
    fi
  done
  echo "== digests converged across members $MEMBERS ($first)"
}

# verify_ledger LEDGER — every acknowledged write in the burst ledger
# must exist on every current member: membership changes may not eat
# acked state.
verify_ledger() {
  local l="$1" i
  for i in $MEMBERS; do
    retry skc -addr "${CADDR[$i]}" sync /
    acked_paths "$l" | skc -addr "${CADDR[$i]}" verify >/dev/null \
      || { echo "FAIL: node $i lost acknowledged writes from $(basename "$l")" >&2; return 1; }
  done
  echo "== ledger $(basename "$l") intact on members $MEMBERS"
}

# wait_ensemble WANT ID... — every listed node's stat op must report
# the exact post-reconfig ensemble string (the atomic quorum switch
# must have reached all of them, not just the leader).
wait_ensemble() {
  local want="$1" i
  shift
  ensemble_is() { [[ "$(node_role "$1")" == *"ensemble=\"$want\""* ]]; }
  for i in "$@"; do
    retry ensemble_is "$i" \
      || { echo "FAIL: node $i never reported ensemble \"$want\" (has: $(node_role "$i"))" >&2; return 1; }
  done
  echo "== nodes $* agree on ensemble \"$want\""
}

# grow_node N — add N as an observer, boot it against the incumbents,
# wait for snapshot-sync, promote it to voter.
grow_node() {
  local n="$1" topo="" i
  echo "== grow: reconfig add $n, boot, promote"
  retry skc -addr "$(member_addrs)" reconfig add "$n" "${MESH[$n]}"
  # The joiner's own topology: current voters plus itself as observer.
  # Incumbents already learned its address from the committed reconfig.
  for i in $MEMBERS; do topo="${topo:+$topo;}$i@${MESH[$i]}"; done
  topo="$topo;$n@${MESH[$n]}:observer"
  start_node "$n" "$topo"
  joiner_observing() { [[ "$(node_role "$n")" == role=OBSERVING* ]]; }
  retry joiner_observing
  # The promote gate refuses until the leader has snapshot-synced the
  # joiner (it must not count toward quorum before it holds the state),
  # so retrying IS the admission protocol.
  retry skc -addr "$(member_addrs)" reconfig promote "$n"
  joiner_following() { [[ "$(node_role "$n")" == role=FOLLOWING* ]]; }
  retry joiner_following
  MEMBERS="$MEMBERS $n"
  VOTERS="$MEMBERS"
  echo "== node $n promoted to voter (members: $MEMBERS)"
}

smoke_build
for i in 1 2 3; do start_node "$i"; done
wait_leader
echo "== leader is node $(leader_id)"
retry skc -addr "$(member_addrs)" create /seed s1

echo "== leg 1: grow 3→5 under a write burst"
LEDGER1="$LOGS/ledger-grow.txt"
skc -timeout 240s -addr "$(member_addrs)" burst /grow 1200 32 >"$LEDGER1" &
BURST1=$!
grow_node 4
grow_node 5
wait "$BURST1" || { echo "FAIL: grow burst client crashed" >&2; exit 1; }
ACKED1=$(acked_paths "$LEDGER1" | wc -l)
[ "$ACKED1" -gt 0 ] || { echo "FAIL: grow burst acked nothing" >&2; exit 1; }
echo "== grow burst done: $ACKED1 acked writes rode through the growth"
verify_ledger "$LEDGER1"
digests_converge
wait_ensemble "voters=1,2,3,4,5 observers=" 1 2 3 4 5

echo "== leg 2: SIGKILL failover on the 5-voter quorum"
LEDGER2="$LOGS/ledger-failover.txt"
skc -timeout 240s -addr "$(member_addrs)" burst /failover 800 32 >"$LEDGER2" &
BURST2=$!
sleep "0.$((RANDOM % 5 + 1))"
L=$(leader_id) || { wait_leader; L=$(leader_id); }
LPID="${PIDS[$L]}"
echo "== SIGKILL leader node $L mid-burst"
kill -9 "$LPID"
unset "PIDS[$L]"
wait_dead "$LPID"
wait_leader
NEW_LEADER=$(leader_id)
[ "$NEW_LEADER" != "$L" ] || { echo "FAIL: dead node still leader" >&2; exit 1; }
echo "== re-elected leader is node $NEW_LEADER (4 of 5 voters up)"
wait "$BURST2" || { echo "FAIL: failover burst client crashed" >&2; exit 1; }
ACKED2=$(acked_paths "$LEDGER2" | wc -l)
[ "$ACKED2" -gt 0 ] || { echo "FAIL: failover burst acked nothing" >&2; exit 1; }
echo "== failover burst done: $ACKED2 acked writes"
# Restart the killed voter (all five are voters now — no :observer
# suffix) and let it resync before the membership checks.
wait_port_free "${MESH[$L]}" "${CADDR[$L]}" "${MADDR[$L]}"
RESTART_TOPO=""
for i in $MEMBERS; do RESTART_TOPO="${RESTART_TOPO:+$RESTART_TOPO;}$i@${MESH[$i]}"; done
start_node "$L" "$RESTART_TOPO"
retry skc -addr "${CADDR[$L]}" sync /
verify_ledger "$LEDGER2"
digests_converge

echo "== leg 3: shrink 5→3 under a write burst"
wait_leader
L2=$(leader_id)
VICTIMS=()
for cand in 5 4 3 2; do
  [ "${#VICTIMS[@]}" = 2 ] && break
  [ "$cand" = "$L2" ] && continue
  VICTIMS+=("$cand")
done
# Aim the burst at the members that will survive the shrink: a session
# parked on a removed replica would have its writes refused, which is
# the removed node's contract, not the burst's.
SURVIVOR_ADDRS=""
for i in $MEMBERS; do
  [ "$i" = "${VICTIMS[0]}" ] || [ "$i" = "${VICTIMS[1]}" ] && continue
  SURVIVOR_ADDRS="${SURVIVOR_ADDRS:+$SURVIVOR_ADDRS,}${CADDR[$i]}"
done
LEDGER3="$LOGS/ledger-shrink.txt"
skc -timeout 240s -addr "$SURVIVOR_ADDRS" burst /shrink 800 32 >"$LEDGER3" &
BURST3=$!
for v in "${VICTIMS[@]}"; do
  drop_member "$v"
  echo "== reconfig remove $v (members left: $MEMBERS)"
  retry skc -addr "$(member_addrs)" reconfig remove "$v"
  # The removed replica must park read-only instead of campaigning:
  # role latches to REMOVED, the server logs loudly, writes are
  # refused, reads keep serving from the frozen tree.
  removed_parked() { [[ "$(node_role "$v")" == role=REMOVED* ]]; }
  retry removed_parked
  grep -q "REMOVED FROM ENSEMBLE" "$LOGS/node$v.log" \
    || { echo "FAIL: removed node $v never logged its removal" >&2; exit 1; }
  if skc -timeout 2s -addr "${CADDR[$v]}" create "/from-removed-$v" x >/dev/null 2>&1; then
    echo "FAIL: removed node $v accepted a write" >&2
    exit 1
  fi
  skc -timeout 2s -addr "${CADDR[$v]}" get /seed >/dev/null \
    || { echo "FAIL: removed node $v stopped serving reads" >&2; exit 1; }
  echo "== node $v parked: REMOVED, loud log, writes refused, reads served"
done
# Digests are compared only once the burst is over: members are synced
# and digested one after another, so a write that commits between two
# members' digests would make them differ while both are correct.
wait "$BURST3" || { echo "FAIL: shrink burst client crashed" >&2; exit 1; }
ACKED3=$(acked_paths "$LEDGER3" | wc -l)
[ "$ACKED3" -gt 0 ] || { echo "FAIL: shrink burst acked nothing" >&2; exit 1; }
echo "== shrink burst done: $ACKED3 acked writes"
verify_ledger "$LEDGER3"
digests_converge
WANT="voters=$(echo "$MEMBERS" | tr ' ' ',') observers="
# shellcheck disable=SC2086
wait_ensemble "$WANT" $MEMBERS

echo "PASS: reconfig smoke green (3→5→3 with failover at 5; $((ACKED1 + ACKED2 + ACKED3)) acked writes, none lost)"
