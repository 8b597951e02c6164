package zab

import (
	"strings"
	"testing"
	"time"

	"securekeeper/internal/ztree"
)

func TestReconfigChangeCodecRoundTrip(t *testing.T) {
	cases := []ReconfigChange{
		{Action: ReconfigAdd, ID: 4, Addr: "127.0.0.1:9004"},
		{Action: ReconfigRemove, ID: 2},
		{Action: ReconfigPromote, ID: 7},
	}
	for _, want := range cases {
		got, err := DecodeReconfigChange(want.Encode())
		if err != nil {
			t.Fatalf("%v: decode: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestReconfigChangeDecodeRejectsGarbage(t *testing.T) {
	bad := ReconfigChange{Action: 99, ID: 4}
	if _, err := DecodeReconfigChange(bad.Encode()); err == nil {
		t.Fatal("bad action accepted")
	}
	zero := ReconfigChange{Action: ReconfigAdd, ID: 0}
	if _, err := DecodeReconfigChange(zero.Encode()); err == nil {
		t.Fatal("zero id accepted")
	}
	if _, err := DecodeReconfigChange([]byte{0x01}); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestMembershipCodecRoundTrip(t *testing.T) {
	c := newCore(Config{ID: 1, Peers: []PeerID{3, 1, 2}, Transport: discardTransport{}})
	c.addMember(1, "a:1", true)
	c.addMember(5, "e:5", false)
	c.addMember(4, "gone", false)
	c.member(4).removeAt = 1 // removed, its link not yet torn down: no member
	members, err := decodeMembership(encodeMembership(c.members))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := []member{
		{id: 1, addr: "a:1", voter: true}, {id: 2, voter: true}, {id: 3, voter: true},
		{id: 5, addr: "e:5"},
	}
	if len(members) != len(want) {
		t.Fatalf("got %d members, want %d", len(members), len(want))
	}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("member %d: got %+v want %+v", i, members[i], want[i])
		}
	}
	if _, err := decodeMembership([]byte{0x7f, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("hostile member count accepted")
	}
}

// submitReconfig pushes a membership change through the leader like the
// server layer would: validate, then commit it as a TxnReconfig.
func (h *harness) submitReconfig(leader *Peer, ch ReconfigChange) {
	h.t.Helper()
	if err := leader.ValidateReconfig(ch); err != nil {
		h.t.Fatalf("validate %s %d: %v", ch.Action, ch.ID, err)
	}
	h.submit(leader, ztree.Txn{Type: ztree.TxnReconfig, Data: ch.Encode()}, Origin{})
}

// waitVoters blocks until the peer's published membership lists exactly
// the given voters.
func (h *harness) waitVoters(p *Peer, want []PeerID, timeout time.Duration) {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		voters, _ := p.Membership()
		if len(voters) == len(want) {
			match := true
			for i := range want {
				if voters[i] != want[i] {
					match = false
				}
			}
			if match {
				return
			}
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("peer %d voters = %v, want %v", p.ID(), voters, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitRole(t *testing.T, p *Peer, want Role, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for p.Role() != want {
		if time.Now().After(deadline) {
			t.Fatalf("peer %d role = %s, want %s", p.ID(), p.Role(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReconfigGrowsQuorumAtCommit walks the full join protocol — add as
// observer, snapshot-sync, promote — and then proves the quorum switched
// to the four-voter ensemble: the promoted voter counts toward quorum,
// and a pair that was a quorum of the old three-voter ensemble no longer
// sustains a leader.
func TestReconfigGrowsQuorumAtCommit(t *testing.T) {
	h := newHarness(t, 3)
	leader := h.leader(5 * time.Second)

	// Grow: add 4 as an observer, boot it, wait for its sync.
	h.submitReconfig(leader, ReconfigChange{Action: ReconfigAdd, ID: 4})
	h.waitCommitted(1, h.voters, 5*time.Second)
	h.obs = append(h.obs, 4)
	h.startPeer(4)
	deadline := time.Now().Add(5 * time.Second)
	for leader.ValidateReconfig(ReconfigChange{Action: ReconfigPromote, ID: 4}) != nil {
		if time.Now().After(deadline) {
			t.Fatal("observer 4 never became promotable")
		}
		time.Sleep(time.Millisecond)
	}
	h.submitReconfig(leader, ReconfigChange{Action: ReconfigPromote, ID: 4})

	all := []PeerID{1, 2, 3, 4}
	h.waitCommitted(2, all, 5*time.Second)
	for _, id := range all {
		h.waitVoters(h.peers[id], all, 5*time.Second)
	}
	waitRole(t, h.peers[4], RoleFollowing, 5*time.Second)

	// The promoted voter counts: with one original follower down, the
	// remaining three of four voters still form a quorum (3 >= 3) and
	// writes keep committing. Were 4 still an observer, only two voters
	// would remain and the leader would abdicate.
	var downA PeerID
	for _, id := range []PeerID{1, 2, 3} {
		if id != leader.ID() {
			downA = id
			break
		}
	}
	h.net.SetDown(downA, true)
	live := make([]PeerID, 0, 3)
	for _, id := range all {
		if id != downA {
			live = append(live, id)
		}
	}
	h.submit(leader, createTxn(0), Origin{Peer: leader.ID(), Session: 1, Xid: 1})
	h.waitCommitted(3, live, 5*time.Second)

	// The quorum grew: downing a second voter leaves two alive — a
	// quorum of the OLD three-voter ensemble, but not of the new
	// four-voter one. The leader must abdicate.
	var downB PeerID
	for _, id := range []PeerID{1, 2, 3, 4} {
		if id != leader.ID() && id != downA {
			downB = id
			break
		}
	}
	h.net.SetDown(downB, true)
	deadline = time.Now().Add(5 * time.Second)
	for leader.Role() == RoleLeading {
		if time.Now().After(deadline) {
			t.Fatalf("leader %d still leading with 2 of 4 voters alive", leader.ID())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJoinerNotCountedBeforeSync: an added-but-unsynced observer must be
// rejected for promotion — an empty replica may never widen a quorum it
// cannot yet help form — and becomes promotable only after its sync
// completes.
func TestJoinerNotCountedBeforeSync(t *testing.T) {
	h := newHarness(t, 3)
	leader := h.leader(5 * time.Second)

	// Promote of a total stranger is rejected outright.
	err := leader.ValidateReconfig(ReconfigChange{Action: ReconfigPromote, ID: 9})
	if err == nil {
		t.Fatal("promote of non-member accepted")
	}

	h.submitReconfig(leader, ReconfigChange{Action: ReconfigAdd, ID: 4})
	h.waitCommitted(1, h.voters, 5*time.Second)

	// Member, but never booted: no sync, no promotion.
	err = leader.ValidateReconfig(ReconfigChange{Action: ReconfigPromote, ID: 4})
	if err == nil {
		t.Fatal("promote of unsynced joiner accepted")
	}
	if !strings.Contains(err.Error(), "sync") {
		t.Fatalf("want sync-gate error, got: %v", err)
	}

	// Meanwhile the add must not have disturbed the voter quorum.
	h.submit(leader, createTxn(0), Origin{Peer: leader.ID(), Session: 1, Xid: 1})
	h.waitCommitted(2, h.voters, 5*time.Second)

	// Boot the joiner; once its snapshot sync lands, promote validates.
	h.obs = append(h.obs, 4)
	h.startPeer(4)
	deadline := time.Now().Add(5 * time.Second)
	for leader.ValidateReconfig(ReconfigChange{Action: ReconfigPromote, ID: 4}) != nil {
		if time.Now().After(deadline) {
			t.Fatal("synced observer never became promotable")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRemovedVoterAckDoesNotCount: a reconfig delivered in the middle
// of a commit run changes who counts for the proposal after it. With
// voters {1,2,3,4}, remove(4) at z1 and a create at z2 that only voter 4
// acknowledged, committing z1 shrinks the quorum to two of {1,2,3} — and
// z2 is then held by the leader alone among them. Counting the removed
// voter's ACK would commit a write that {2,3} could elect without.
func TestRemovedVoterAckDoesNotCount(t *testing.T) {
	var delivered []ztree.TxnType
	remove := ReconfigChange{Action: ReconfigRemove, ID: 4}
	p := leaderFixture(t, []PeerID{1, 2, 3, 4},
		func(c Committed) { delivered = append(delivered, c.Txn.Type) },
		ztree.Txn{Type: ztree.TxnReconfig, Data: remove.Encode()}, createTxn(0))
	z1, z2 := MakeZxid(p.epoch, 1), MakeZxid(p.epoch, 2)

	p.handleAck(1, Message{Kind: KindAck, From: 4, Zxid: z2})
	p.handleAck(1, Message{Kind: KindAck, From: 2, Zxid: z1})
	if len(delivered) != 1 || delivered[0] != ztree.TxnReconfig {
		t.Fatalf("delivered %v, want only the reconfig: the create is acknowledged by the removed voter alone", delivered)
	}
	if p.isVoter(4) || p.quorum() != 2 {
		t.Fatalf("after remove(4): voter(4) = %v, quorum = %d, want false and 2", p.isVoter(4), p.quorum())
	}

	p.handleAck(1, Message{Kind: KindAck, From: 3, Zxid: z2})
	if len(delivered) != 2 || delivered[1] != ztree.TxnCreate {
		t.Fatalf("delivered %v after a current voter acknowledged the create, want it committed", delivered)
	}
}

// TestRemoveShrinksEnsembleAndParksReplica: a removed follower stops
// participating (role REMOVED, no campaigning) and the survivors commit
// under the shrunken quorum.
func TestRemoveShrinksEnsembleAndParksReplica(t *testing.T) {
	h := newHarness(t, 3)
	leader := h.leader(5 * time.Second)

	var victim PeerID
	for _, id := range h.voters {
		if id != leader.ID() {
			victim = id
			break
		}
	}
	if err := leader.ValidateReconfig(ReconfigChange{Action: ReconfigRemove, ID: leader.ID()}); err == nil {
		t.Fatal("removing the current leader accepted")
	}
	h.submitReconfig(leader, ReconfigChange{Action: ReconfigRemove, ID: victim})

	waitRole(t, h.peers[victim], RoleRemoved, 5*time.Second)
	rest := make([]PeerID, 0, 2)
	for _, id := range h.voters {
		if id != victim {
			rest = append(rest, id)
		}
	}
	h.waitVoters(leader, rest, 5*time.Second)

	// The survivors form the whole ensemble now; writes still commit.
	h.submit(leader, createTxn(0), Origin{Peer: leader.ID(), Session: 1, Xid: 1})
	h.waitCommitted(2, rest, 5*time.Second)

	// The parked replica must refuse new work.
	if err := h.peers[victim].Submit(createTxn(1), Origin{}); err == nil {
		t.Fatal("removed replica accepted a submit")
	}
	// And must stay parked: no campaign ever disturbs the leader.
	time.Sleep(5 * h.peers[victim].env.ElectionTimeout)
	if h.peers[victim].Role() != RoleRemoved {
		t.Fatalf("removed replica left RoleRemoved: %s", h.peers[victim].Role())
	}
	if leader.Role() != RoleLeading {
		t.Fatalf("leader destabilized by removed replica: %s", leader.Role())
	}
}

// TestRemovedReplicaToldOnCampaign: a replica that was down when its
// removal committed restarts with stale membership and campaigns; the
// leader answers REMOVED and the ghost parks instead of campaigning
// forever.
func TestRemovedReplicaToldOnCampaign(t *testing.T) {
	h := newHarness(t, 3)
	leader := h.leader(5 * time.Second)

	var victim PeerID
	for _, id := range h.voters {
		if id != leader.ID() {
			victim = id
			break
		}
	}
	h.net.SetDown(victim, true)
	h.submitReconfig(leader, ReconfigChange{Action: ReconfigRemove, ID: victim})
	rest := make([]PeerID, 0, 2)
	for _, id := range h.voters {
		if id != victim {
			rest = append(rest, id)
		}
	}
	h.waitCommitted(1, rest, 5*time.Second)

	// The victim never saw the removal; it heals with stale membership,
	// campaigns, and must be told off by the leader.
	h.net.Flush(victim)
	h.net.SetDown(victim, false)
	waitRole(t, h.peers[victim], RoleRemoved, 10*time.Second)
	if leader.Role() != RoleLeading {
		t.Fatalf("leader destabilized by removed campaigner: %s", leader.Role())
	}
}
