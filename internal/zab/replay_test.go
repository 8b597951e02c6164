package zab

import "testing"

// TestNewLeaderAckReplaysOutstanding: a follower that (re)syncs while
// the leader holds uncommitted proposals must receive them again. Sync
// transfers only committed history and PROPOSE frames go to
// already-synced followers exactly once, so without the replay a
// proposal whose only recipient shed it is held by no live follower —
// it can never reach quorum, and in-order commit head-of-line-blocks
// everything behind it.
func TestNewLeaderAckReplaysOutstanding(t *testing.T) {
	tr := newCaptureTransport()
	p := NewPeer(Config{ID: 1, Peers: []PeerID{1, 2, 3}, Transport: tr})
	// Unstarted: drive the loop-owned state directly. Peer 1 is an
	// activated leader (self + peer 3 synced) with two proposals whose
	// PROPOSE fan-out has already happened.
	p.becomeLeader(1)
	p.member(3).synced = true
	for i := 1; i <= 2; i++ {
		if err := p.propose(1, createTxn(i), Origin{}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.flushProposals()
	before := len(tr.byKind(KindProposeBatch))

	// Peer 2 completes sync. Its diff covered only committed history
	// (here: nothing), so the ack must trigger an outstanding replay.
	p.handleNewLeaderAck(1, Message{Kind: KindNewLeaderAck, From: 2})

	batches := tr.byKind(KindProposeBatch)
	if len(batches) != before+1 {
		t.Fatalf("ProposeBatch frames after NewLeaderAck = %d, want %d", len(batches), before+1)
	}
	replay := batches[len(batches)-1]
	if replay.From != 2 { // captureTransport stamps the destination in From
		t.Fatalf("replay sent to peer %d, want 2", replay.From)
	}
	if len(replay.Batch) != 2 {
		t.Fatalf("replay carried %d records, want 2", len(replay.Batch))
	}
	for i, rec := range replay.Batch {
		if want := MakeZxid(p.epoch, int64(i+1)); rec.Txn.Zxid != want {
			t.Fatalf("replay[%d].Zxid = %#x, want %#x", i, rec.Txn.Zxid, want)
		}
	}

	// A follower with nothing outstanding must not be sent an empty frame.
	p.outstanding = nil
	p.handleNewLeaderAck(1, Message{Kind: KindNewLeaderAck, From: 3})
	if got := len(tr.byKind(KindProposeBatch)); got != before+1 {
		t.Fatalf("empty outstanding produced a replay frame (%d frames)", got)
	}
}

// TestVotesAdvertiseCommittedFrontier: elections must compare durable
// history, not lastZxid. lastZxid counts buffered-but-uncommitted
// proposals (discarded on every role change) and the bare epoch marker
// a leader stamps at activation — voting with it lets a peer with stale
// committed state outbid peers holding real history, and each failed
// reign inflates its marker further so it keeps winning elections it
// cannot serve.
func TestVotesAdvertiseCommittedFrontier(t *testing.T) {
	committed := MakeZxid(3, 4)

	tr := newCaptureTransport()
	p := NewPeer(Config{ID: 1, Peers: []PeerID{1, 2, 3}, Transport: tr})
	p.lastZxid = MakeZxid(7, 0) // phantom activation marker from a dead reign
	p.lastCommit.Store(committed)
	p.startElection(1)
	votes := tr.byKind(KindVote)
	if len(votes) != 2 {
		t.Fatalf("startElection broadcast %d votes, want 2", len(votes))
	}
	for _, v := range votes {
		if v.VoteZxid != committed {
			t.Fatalf("broadcast VoteZxid = %#x, want committed frontier %#x", v.VoteZxid, committed)
		}
	}

	// The leader answering a stray vote follows the same rule. (Followers
	// answer nothing: see TestSurvivorsDoNotResurrectDeadLeader.)
	tr2 := newCaptureTransport()
	p2 := NewPeer(Config{ID: 2, Peers: []PeerID{1, 2, 3}, Transport: tr2})
	p2.lastZxid = MakeZxid(7, 0)
	p2.lastCommit.Store(committed)
	p2.setRole(RoleLeading, 2)
	p2.handleVote(1, Message{Kind: KindVote, From: 1, Epoch: 9, VoteFor: 1, VoteZxid: 0})
	replies := tr2.byKind(KindVote)
	if len(replies) != 1 || !replies[0].VoteReply {
		t.Fatalf("leader replies = %+v, want one VoteReply", replies)
	}
	if replies[0].VoteZxid != committed {
		t.Fatalf("reply VoteZxid = %#x, want committed frontier %#x", replies[0].VoteZxid, committed)
	}
}
