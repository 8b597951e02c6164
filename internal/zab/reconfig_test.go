package zab

import (
	"slices"
	"strings"
	"testing"

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

// join boots peer id under the membership the leader has now.
func (s *sim) join(l *simPeer, id PeerID) *simPeer {
	voters, observers := l.core.Membership()
	p := s.addPeer(id, voters, observers)
	s.boot(p)
	return p
}

// TestReconfigGrowsQuorumAtCommit walks the full join protocol — add as
// observer, snapshot-sync, promote — and then proves the quorum switched
// to the four-voter ensemble: the promoted voter counts toward quorum,
// and a pair that was a quorum of the old three-voter ensemble no longer
// sustains a leader.
func TestReconfigGrowsQuorumAtCommit(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		l := s.elect(10)
		// Grow: add 4 as an observer, boot it, wait for its sync.
		s.reconfig(l, ReconfigChange{Action: ReconfigAdd, ID: 4})
		s.awaitDelivered(1, 4, 1, 2, 3)
		four := s.join(l, 4)
		promote := ReconfigChange{Action: ReconfigPromote, ID: 4}
		s.await("observer 4 to become promotable", 10, func() bool { return l.core.ValidateReconfig(promote) == nil })
		s.reconfig(l, promote)
		s.awaitDelivered(2, 4, s.ids()...)
		for _, p := range s.peers {
			if voters, _ := p.core.Membership(); len(voters) != 4 {
				s.failf("peer %d voters = %v, want all four", p.id, voters)
			}
		}
		s.await("the promoted voter to follow", 4, func() bool { return four.core.Role() == RoleFollowing && four.core.leaderSynced })

		// The promoted voter counts: with one original follower down, the
		// remaining three of four voters still form a quorum and writes
		// keep committing. Were 4 still an observer, only two voters
		// would remain and the leader would abdicate.
		var downA, downB *simPeer
		for _, p := range s.others(l) {
			if p != four && downA == nil {
				downA = p
			} else if p != four {
				downB = p
			}
		}
		s.crash(downA)
		s.write(l, 1)
		s.awaitDelivered(3, 4, l.id, downB.id, four.id)

		// The quorum grew: downing a second voter leaves two alive — a
		// quorum of the OLD three-voter ensemble, but not of the new
		// four-voter one. The leader must abdicate.
		s.crash(downB)
		s.await("the leader to abdicate with 2 of 4 voters alive", failover, func() bool { return l.core.Role() != RoleLeading })
	})
}

// TestJoinerNotCountedBeforeSync: an added-but-unsynced observer must be
// rejected for promotion — an empty replica may never widen a quorum it
// cannot yet help form — and becomes promotable only after its sync
// completes.
func TestJoinerNotCountedBeforeSync(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		l := s.elect(10)
		// Promote of a total stranger is rejected outright.
		if l.core.ValidateReconfig(ReconfigChange{Action: ReconfigPromote, ID: 9}) == nil {
			s.failf("promote of non-member accepted")
		}
		s.reconfig(l, ReconfigChange{Action: ReconfigAdd, ID: 4})
		s.awaitDelivered(1, 4, 1, 2, 3)

		// Member, but never booted: no sync, no promotion.
		promote := ReconfigChange{Action: ReconfigPromote, ID: 4}
		if err := l.core.ValidateReconfig(promote); err == nil || !strings.Contains(err.Error(), "sync") {
			s.failf("promote of unsynced joiner: %v, want the sync-gate error", err)
		}
		// Meanwhile the add must not have disturbed the voter quorum.
		s.write(l, 1)
		s.awaitDelivered(2, 4, 1, 2, 3)

		// Boot the joiner; once its snapshot sync lands, promote validates.
		s.join(l, 4)
		s.await("the synced observer to become promotable", 10, func() bool { return l.core.ValidateReconfig(promote) == nil })
	})
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
	schedule(t, 3, 0, func(s *sim) {
		l := s.elect(10)
		victim, other := s.others(l)[0], s.others(l)[1]
		if l.core.ValidateReconfig(ReconfigChange{Action: ReconfigRemove, ID: l.id}) == nil {
			s.failf("removing the current leader accepted")
		}
		s.reconfig(l, ReconfigChange{Action: ReconfigRemove, ID: victim.id})
		s.await("the victim to park", 4, func() bool { return victim.core.Role() == RoleRemoved })
		if voters, _ := l.core.Membership(); len(voters) != 2 || slices.Contains(voters, victim.id) {
			s.failf("leader's voters = %v after removing %d", voters, victim.id)
		}

		// The survivors form the whole ensemble now; writes still commit.
		s.write(l, 1)
		s.awaitDelivered(2, 4, l.id, other.id)

		// The parked replica must refuse new work, and stay parked: no
		// campaign ever disturbs the leader.
		if victim.core.propose(s.now, ztree.Txn{Type: ztree.TxnSetData, Path: "/k"}, Origin{}) == nil {
			s.failf("removed replica accepted a submit")
		}
		votes := len(s.voteSent)
		s.idle(5 * simElection / simTick)
		if victim.core.Role() != RoleRemoved || l.core.Role() != RoleLeading || len(s.voteSent) != votes {
			s.failf("after five election timeouts: victim %s, leader %s, %d votes sent", victim.core.Role(), l.core.Role(), len(s.voteSent)-votes)
		}
	})
}

// TestRemovedReplicaToldOnCampaign: a replica that was cut off when its
// removal committed campaigns with stale membership; the leader answers
// REMOVED and the ghost parks instead of campaigning forever.
func TestRemovedReplicaToldOnCampaign(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		l := s.elect(10)
		victim, other := s.others(l)[0], s.others(l)[1]
		s.isolate(victim, true)
		s.reconfig(l, ReconfigChange{Action: ReconfigRemove, ID: victim.id})
		s.awaitDelivered(1, 4, l.id, other.id)

		// The victim never saw the removal; it heals, times out on a
		// leader that no longer pings it, campaigns, and is told off.
		s.isolate(victim, false)
		s.await("the ghost to be told it was removed", failover, func() bool { return victim.core.Role() == RoleRemoved })
		if l.core.Role() != RoleLeading {
			s.failf("leader destabilized by the removed campaigner: %s", l.core.Role())
		}
	})
}
