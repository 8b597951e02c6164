package zab

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

// harness runs an ensemble of real peers — goroutines, tickers, the
// in-process network — for what only the driver does: start and stop,
// the submit rendezvous, batching under contention. Everything about
// the protocol itself is a schedule (schedule_test.go).
type harness struct {
	t     *testing.T
	net   *Network
	ids   []PeerID
	peers map[PeerID]*Peer

	mu        sync.Mutex
	delivered map[PeerID][]int64 // zxids in delivery order
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	h := &harness{t: t, net: NewNetwork(), peers: make(map[PeerID]*Peer, n), delivered: make(map[PeerID][]int64, n)}
	for i := 1; i <= n; i++ {
		h.ids = append(h.ids, PeerID(i))
	}
	for _, id := range h.ids {
		id := id
		tree := ztree.New()
		h.peers[id] = NewPeer(Config{
			ID:        id,
			Peers:     h.ids,
			Transport: h.net.Endpoint(id),
			Deliver: func(c Committed) {
				tree.Apply(&c.Txn)
				h.mu.Lock()
				h.delivered[id] = append(h.delivered[id], c.Txn.Zxid)
				h.mu.Unlock()
			},
			Snapshot:        tree.Snapshot,
			Restore:         tree.Restore,
			TickInterval:    5 * time.Millisecond,
			ElectionTimeout: 80 * time.Millisecond,
		})
		h.peers[id].Start()
	}
	t.Cleanup(func() {
		for _, p := range h.peers {
			p.Stop()
		}
		h.net.Close()
	})
	return h
}

// eventually polls cond; real peers run on a real clock.
func (h *harness) eventually(what string, cond func() bool) {
	h.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			h.t.Fatalf("timeout waiting for %s", what)
		}
	}
}

// leader waits for a leader every other peer follows.
func (h *harness) leader() *Peer {
	h.t.Helper()
	var l *Peer
	h.eventually("a settled ensemble", func() bool {
		followers := 0
		for _, p := range h.peers {
			switch {
			case p.Role() == RoleLeading:
				l = p
			case p.Role() == RoleFollowing:
				followers++
			}
		}
		return l != nil && followers == len(h.peers)-1
	})
	return l
}

// waitCommitted blocks until every peer has delivered n txns.
func (h *harness) waitCommitted(n int) {
	h.t.Helper()
	h.eventually(fmt.Sprintf("%d commits", n), func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		for _, id := range h.ids {
			if len(h.delivered[id]) < n {
				return false
			}
		}
		return true
	})
}

// submit retries until the leader accepts the transaction: it reports
// RoleLeading before a quorum of followers has synced, and refuses
// submissions until then. A refused submission was never stamped with
// a zxid, so retrying cannot duplicate it.
func (h *harness) submit(p *Peer, txn ztree.Txn, origin Origin) {
	h.t.Helper()
	var err error
	h.eventually("the leader to accept a submission", func() bool {
		err = p.Submit(txn, origin)
		return err == nil
	})
}

func createTxn(i int) ztree.Txn {
	return ztree.Txn{Type: ztree.TxnCreate, Path: fmt.Sprintf("/n%05d", i), Data: []byte("d")}
}

// sameLog fails unless every listed peer delivered exactly the n
// transactions of the total order (which the simulator has compared
// position by position, after every event).
func (s *sim) sameLog(n int, ids ...PeerID) {
	for _, id := range ids {
		if p := s.peer(id); len(p.applied) != n || len(s.truth) != n {
			s.failf("peer %d delivered %d txns, the order has %d, want %d", id, len(p.applied), len(s.truth), n)
		}
		s.fits(s.peer(id))
	}
}

func TestElectionConverges(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		l := s.elect(10)
		for _, p := range s.others(l) {
			if p.core.Role() != RoleFollowing || p.core.Leader() != l.id {
				s.failf("peer %d is %s of %d, want FOLLOWING of %d", p.id, p.core.Role(), p.core.Leader(), l.id)
			}
		}
	})
}

func TestCommitReachesAllReplicas(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		l := s.elect(10)
		for i := 0; i < 50; i++ {
			s.write(l, 1)
			s.idle(1)
		}
		s.awaitDelivered(50, 4, s.ids()...)
		s.sameLog(50, s.ids()...)
	})
}

func TestCommitOrderIsIdenticalEverywhere(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		l := s.elect(10)
		for i := 0; i < 25; i++ {
			s.write(l, 4) // bursts: several records a frame
			s.idle(1)
		}
		s.awaitDelivered(100, 4, s.ids()...)
		s.sameLog(100, s.ids()...)
		for i := 1; i < len(s.truth); i++ {
			if s.truth[i].zxid <= s.truth[i-1].zxid {
				s.failf("zxid not increasing: %#x then %#x", s.truth[i-1].zxid, s.truth[i].zxid)
			}
		}
	})
}

func TestSubmitOnFollowerFails(t *testing.T) {
	h := newHarness(t, 3)
	leader := h.leader()
	for _, p := range h.peers {
		if p != leader {
			if err := p.Submit(createTxn(0), Origin{}); !errors.Is(err, ErrNotLeader) {
				t.Fatalf("follower Submit: %v, want ErrNotLeader", err)
			}
		}
	}
}

func TestLeaderFailureTriggersReelection(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		old := s.elect(10)
		s.write(old, 10)
		s.awaitDelivered(10, 4, s.ids()...)
		s.crash(old)

		// A new leader emerges among the remaining two; the new regime
		// keeps committing and history is preserved.
		next := s.elect(failover)
		s.write(next, 1)
		var live []PeerID
		for _, p := range s.others(old) {
			live = append(live, p.id)
		}
		s.awaitDelivered(11, 4, live...)
		s.sameLog(11, live...)
	})
}

func TestFollowerRejoinsAfterPartition(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		l := s.elect(10)
		victim := s.others(l)[0]
		// Partition one follower; commit traffic it misses entirely, more
		// of it than the leader's log keeps for a diff.
		s.isolate(victim, true)
		for i := 0; i < 30; i++ {
			s.write(l, 1)
			s.idle(1)
		}
		s.awaitDelivered(30, 4, l.id, s.others(victim)[0].id, s.others(victim)[1].id)
		// Heal; the follower re-syncs and converges.
		s.isolate(victim, false)
		s.awaitDelivered(30, failover, victim.id)
		s.sameLog(30, s.ids()...)
	})
}

func TestSingleNodeEnsemble(t *testing.T) {
	h := newHarness(t, 1)
	leader := h.leader()
	for i := 0; i < 20; i++ {
		if err := leader.Submit(createTxn(i), Origin{Peer: leader.ID()}); err != nil {
			t.Fatal(err)
		}
	}
	h.waitCommitted(20)
}

// TestSubmitAfterStop: a stopped peer answers, it does not hang.
func TestSubmitAfterStop(t *testing.T) {
	h := newHarness(t, 1)
	leader := h.leader()
	leader.Stop()
	if err := leader.Submit(createTxn(0), Origin{}); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit after Stop: %v, want ErrStopped", err)
	}
	leader.Stop() // and stopping twice is fine
}

func TestFiveNodeEnsemble(t *testing.T) {
	schedule(t, 5, 0, func(s *sim) {
		l := s.elect(10)
		s.write(l, 20)
		s.awaitDelivered(20, 4, s.ids()...)
		s.sameLog(20, s.ids()...)
	})
}

// TestNoVoteStormAtRest: an idle ensemble exchanges heartbeats and
// nothing else (the vote-reply regression produced millions of messages
// per second here).
func TestNoVoteStormAtRest(t *testing.T) {
	schedule(t, 3, 0, func(s *sim) {
		s.elect(10)
		before := make(map[PeerID]Stats)
		for _, p := range s.peers {
			before[p.id] = p.core.StatsSnapshot()
		}
		votes := len(s.voteSent)
		s.idle(60)
		for _, p := range s.peers {
			if st := p.core.StatsSnapshot(); st.Elections != before[p.id].Elections || st.Resyncs != before[p.id].Resyncs {
				s.failf("peer %d at rest: %d elections, %d resyncs", p.id, st.Elections-before[p.id].Elections, st.Resyncs-before[p.id].Resyncs)
			}
		}
		if len(s.voteSent) != votes {
			s.failf("%d votes sent at rest", len(s.voteSent)-votes)
		}
	})
}

// TestOriginCorrelationDelivered: every replica delivers a transaction
// with the origin its proposer gave it, so the owning replica can
// complete the pending client call.
func TestOriginCorrelationDelivered(t *testing.T) {
	schedule(t, 3, 1, func(s *sim) {
		l := s.elect(10)
		seen := 0
		s.onDeliver = func(p *simPeer, c Committed) {
			if want := (Origin{Peer: l.id, Session: int64(l.inc)}); c.Origin != want {
				s.failf("peer %d delivered origin %+v, want %+v", p.id, c.Origin, want)
			}
			seen++
		}
		s.write(l, 3)
		s.awaitDelivered(3, 4, s.ids()...)
		if seen != 3*len(s.peers) {
			s.failf("%d deliveries seen, want %d", seen, 3*len(s.peers))
		}
	})
}

func TestSendApp(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	got := make(chan []byte, 1)
	var peers [2]*Peer
	for i := range peers {
		peers[i] = NewPeer(Config{ID: PeerID(i + 1), Peers: []PeerID{1, 2}, Transport: net.Endpoint(PeerID(i + 1)),
			Deliver: func(Committed) {}, OnApp: func(from PeerID, payload []byte) { got <- append([]byte{byte(from)}, payload...) }})
		peers[i].Start()
		defer peers[i].Stop()
	}
	if err := peers[0].SendApp(2, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg) != "\x01payload" {
			t.Fatalf("OnApp got %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("application payload never arrived")
	}
	net.SetDown(2, true)
	if err := peers[0].SendApp(2, []byte("payload")); err == nil {
		t.Fatal("SendApp to downed peer must error")
	}
}

// TestTickReadsTheMailboxFirst: the driver handles what is already
// queued before a tick judges silence. select picks at random among
// ready cases, so after a scheduling stall a follower could otherwise
// time out a leader whose pings sit unread in its own mailbox.
func TestTickReadsTheMailboxFirst(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	leader := net.Endpoint(1)
	p := NewPeer(Config{ID: 2, Peers: []PeerID{1, 2, 3}, Transport: net.Endpoint(2), Deliver: func(Committed) {}})
	recv := p.env.Transport.Receive()
	p.follow(obs.Now(), 1)
	p.leaderSynced = true
	elections := p.StatsSnapshot().Elections

	p.heard = obs.Now() - int64(time.Hour) // the leader has been silent for ever —
	_ = leader.Send(2, Message{Kind: KindPing})
	p.onTick(recv) // — except for the ping in the mailbox
	if p.Role() != RoleFollowing || p.StatsSnapshot().Elections != elections {
		t.Fatalf("a tick with the leader's ping queued: role %s, %d elections", p.Role(), p.StatsSnapshot().Elections-elections)
	}

	p.heard = obs.Now() - int64(time.Hour)
	p.onTick(recv) // nothing queued: now it is silence
	if p.Role() != RoleLooking {
		t.Fatalf("a tick after an hour of silence: role %s, want LOOKING", p.Role())
	}
}

func TestZxidHelpers(t *testing.T) {
	z := MakeZxid(3, 77)
	if EpochOf(z) != 3 || CounterOf(z) != 77 {
		t.Fatalf("zxid helpers: epoch=%d counter=%d", EpochOf(z), CounterOf(z))
	}
}

func TestRoleAndKindStrings(t *testing.T) {
	for _, r := range []Role{RoleLooking, RoleFollowing, RoleLeading, Role(9)} {
		if r.String() == "" {
			t.Errorf("empty role string for %d", r)
		}
	}
	for k := KindVote; k <= KindApp; k++ {
		if k.String() == "" {
			t.Errorf("empty kind string for %d", k)
		}
	}
}

func TestWireErrCodeUnused(t *testing.T) {
	// zab is independent of the client protocol: committed txns carry
	// wire error codes only as opaque payload.
	txn := ztree.Txn{Type: ztree.TxnError, Err: wire.ErrBadVersion}
	if txn.Err != wire.ErrBadVersion {
		t.Fatal("txn must carry the code")
	}
}

// leaderFixture returns an unstarted, activated leader (peer 1, every
// other voter synced) over a capture transport, with n proposals
// submitted and flushed, so ACK handling can be driven synchronously.
func leaderFixture(t *testing.T, voters []PeerID, deliver func(Committed), txns ...ztree.Txn) *Peer {
	t.Helper()
	p := NewPeer(Config{ID: 1, Peers: voters, Transport: newCaptureTransport(), Deliver: deliver})
	p.becomeLeader(1)
	for i := range p.members {
		p.members[i].synced = true
	}
	for i, txn := range txns {
		if err := p.propose(1, txn, Origin{}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.flushProposals()
	return p
}

// TestQuorumAtAnyEnsembleSize: the quorum count has no size the code
// was written for. With 21 voters a proposal needs the leader and ten
// followers; ten ACKs that include a duplicate are not ten followers.
func TestQuorumAtAnyEnsembleSize(t *testing.T) {
	voters := make([]PeerID, 21)
	for i := range voters {
		voters[i] = PeerID(i + 1)
	}
	delivered := 0
	p := leaderFixture(t, voters, func(Committed) { delivered++ }, createTxn(1))
	z := MakeZxid(p.epoch, 1)
	// Ten ACKs, one of them a duplicate: the leader and nine followers.
	for _, from := range []PeerID{2, 3, 4, 5, 6, 2, 7, 8, 9, 10} {
		p.handleAck(1, Message{Kind: KindAck, From: from, Zxid: z})
	}
	if delivered != 0 {
		t.Fatal("committed on the leader and 9 distinct followers; quorum of 21 is 11")
	}
	p.handleAck(1, Message{Kind: KindAck, From: 11, Zxid: z})
	if delivered != 1 {
		t.Fatalf("delivered = %d after the leader and 10 followers acknowledged, want 1", delivered)
	}
}
