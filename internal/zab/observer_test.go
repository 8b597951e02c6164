package zab

import (
	"testing"
	"time"
)

// waitRole blocks until the peer reports the role (and, if leader >= 0,
// that leader).
func (h *harness) waitRole(id PeerID, role Role, leader PeerID, timeout time.Duration) {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		p := h.peers[id]
		if p.Role() == role && (leader < 0 || p.Leader() == leader) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	h.t.Fatalf("peer %d: role=%v leader=%d, want role=%v leader=%d",
		id, h.peers[id].Role(), h.peers[id].Leader(), role, leader)
}

func TestObserverTailsCommittedStream(t *testing.T) {
	h := newObserverHarness(t, 3, 1)
	obs := h.obs[0]
	leader := h.leader(5 * time.Second)

	// Write until the dedicated observer stream carries commits: the
	// first writes can land before the observer finishes its initial
	// sync (those reach it via diff), but once synced every run streams.
	n := 0
	deadline := time.Now().Add(5 * time.Second)
	for leader.StatsSnapshot().ObserverFrames == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader streamed no OBSERVERCOMMIT frames")
		}
		h.submit(leader, createTxn(n), Origin{Peer: leader.ID()})
		n++
	}

	// The observer converges with the voters — same count, same digest.
	h.waitCommitted(n, h.ids, 5*time.Second)
	digest := h.trees[h.voters[0]].Digest()
	if h.trees[obs].Digest() != digest {
		t.Fatal("observer tree diverged from voters")
	}
	h.waitRole(obs, RoleObserving, leader.ID(), 5*time.Second)
	if f := h.peers[obs].StatsSnapshot().ObserverFrames; f == 0 {
		t.Fatal("observer received no OBSERVERCOMMIT frames")
	}
}

func TestObserverNeverVotesOrEntersQuorum(t *testing.T) {
	h := newObserverHarness(t, 3, 1)
	obs := h.obs[0]
	leader := h.leader(5 * time.Second)

	h.submit(leader, createTxn(0), Origin{Peer: leader.ID()})
	h.waitCommitted(1, h.ids, 5*time.Second)

	// Quorum math is derived from voters alone.
	if got, want := leader.quorum(), 2; got != want {
		t.Fatalf("quorum = %d, want %d (observers must not widen it)", got, want)
	}

	// The observer held no election and never left OBSERVING.
	op := h.peers[obs]
	if e := op.StatsSnapshot().Elections; e != 0 {
		t.Fatalf("observer ran %d elections, want 0", e)
	}
	if r := op.Role(); r != RoleObserving {
		t.Fatalf("observer role = %v, want OBSERVING", r)
	}

	// White-box after stopping the loop (safe: no concurrent access):
	// the observer's row carries obsSynced and nothing a quorum reads.
	leader.Stop()
	row := leader.member(obs)
	if row.synced {
		t.Fatal("observer entered the leader's synced (quorum) set")
	}
	if !row.obsSynced {
		t.Fatal("observer missing from the leader's obsSynced set")
	}
	if row.vote != (vote{}) {
		t.Fatal("observer vote entered the leader's tally")
	}
	if row.voter {
		t.Fatal("observer classified as voter")
	}
}

func TestObserverDoesNotKeepDeadEnsembleAlive(t *testing.T) {
	// 2 voters + 1 observer: quorum is 2, so losing one voter kills the
	// ensemble no matter how alive the observer is. If observers counted
	// anywhere, the leader would wrongly stay active.
	h := newObserverHarness(t, 2, 1)
	leader := h.leader(5 * time.Second)
	h.submit(leader, createTxn(0), Origin{Peer: leader.ID()})
	h.waitCommitted(1, h.ids, 5*time.Second)

	var deadVoter PeerID
	for _, id := range h.voters {
		if id != leader.ID() {
			deadVoter = id
		}
	}
	h.net.SetDown(deadVoter, true)
	h.peers[deadVoter].Stop()

	// The leader must abdicate (no voter quorum) and the observer must
	// detach (leader -1), not elect.
	h.waitRole(leader.ID(), RoleLooking, -1, 5*time.Second)
	h.waitRole(h.obs[0], RoleObserving, -1, 5*time.Second)
	if e := h.peers[h.obs[0]].StatsSnapshot().Elections; e != 0 {
		t.Fatalf("observer ran %d elections after quorum loss, want 0", e)
	}
}

func TestObserverCrashDoesNotBlockCommitsOrElect(t *testing.T) {
	h := newObserverHarness(t, 3, 1)
	obs := h.obs[0]
	leader := h.leader(5 * time.Second)
	h.submit(leader, createTxn(0), Origin{Peer: leader.ID()})
	h.waitCommitted(1, h.ids, 5*time.Second)
	electionsBefore := leader.StatsSnapshot().Elections

	// Crash the observer.
	h.net.SetDown(obs, true)
	h.peers[obs].Stop()

	// Commits keep flowing and the leader never re-elects.
	for i := 1; i <= 20; i++ {
		h.submit(leader, createTxn(i), Origin{Peer: leader.ID()})
	}
	h.waitCommitted(21, h.voters, 5*time.Second)
	if leader.Role() != RoleLeading {
		t.Fatal("leader lost leadership after observer crash")
	}
	if e := leader.StatsSnapshot().Elections; e != electionsBefore {
		t.Fatalf("observer crash triggered elections: %d -> %d", electionsBefore, e)
	}
}

func TestLateObserverSnapshotSyncsThenTails(t *testing.T) {
	// Voters run and commit history the log no longer covers cheaply;
	// then the observer joins cold and must converge (snapshot or diff),
	// then keep tailing live commits.
	h := newObserverHarness(t, 3, 1)
	obs := h.obs[0]
	h.net.SetDown(obs, true) // keep the observer dark while history accrues

	leader := h.leader(5 * time.Second)
	const n = 40
	for i := 0; i < n; i++ {
		h.submit(leader, createTxn(i), Origin{Peer: leader.ID()})
	}
	h.waitCommitted(n, h.voters, 5*time.Second)

	h.net.SetDown(obs, false)
	h.waitCommitted(n, []PeerID{obs}, 5*time.Second)

	// Live tail after the catch-up sync.
	for i := n; i < n+10; i++ {
		h.submit(leader, createTxn(i), Origin{Peer: leader.ID()})
	}
	h.waitCommitted(n+10, h.ids, 5*time.Second)
	if h.trees[obs].Digest() != h.trees[h.voters[0]].Digest() {
		t.Fatal("late observer diverged")
	}
}

func TestObserverAdoptsNewLeaderAfterFailover(t *testing.T) {
	h := newObserverHarness(t, 3, 1)
	obs := h.obs[0]
	old := h.leader(5 * time.Second)
	h.submit(old, createTxn(0), Origin{Peer: old.ID()})
	h.waitCommitted(1, h.ids, 5*time.Second)

	h.net.SetDown(old.ID(), true)
	old.Stop()

	// A new leader emerges among the surviving voters; the observer
	// re-attaches to it and resumes the stream.
	deadline := time.Now().Add(10 * time.Second)
	var newLeader *Peer
	for newLeader == nil && time.Now().Before(deadline) {
		for _, id := range h.voters {
			if id != old.ID() && h.peers[id].Role() == RoleLeading {
				newLeader = h.peers[id]
			}
		}
		time.Sleep(time.Millisecond)
	}
	if newLeader == nil {
		t.Fatal("no re-election after leader crash")
	}
	h.waitRole(obs, RoleObserving, newLeader.ID(), 10*time.Second)

	h.submit(newLeader, createTxn(1), Origin{Peer: newLeader.ID()})
	live := []PeerID{obs}
	h.waitCommitted(2, live, 10*time.Second)
	if h.trees[obs].Digest() != h.trees[newLeader.ID()].Digest() {
		t.Fatal("observer diverged after failover")
	}
}
