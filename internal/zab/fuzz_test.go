package zab

import (
	"testing"

	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

// FuzzCoreAnyMessage feeds one arbitrary, wirecodec-decodable message
// to a core in each role — leading, following, observing, looking — of
// a settled simulated ensemble, claiming any sender, and lets the world
// run on. Nothing may panic. And unless the message claims to come from
// the leader itself (the mesh stamps From with the link's handshaken
// identity; what a leader tells its followers is history by
// definition), every invariant of the simulator must still hold: a
// stranger, an observer or a follower cannot talk a core out of them.
func FuzzCoreAnyMessage(f *testing.F) {
	rec := ProposalRecord{Txn: ztree.Txn{Zxid: MakeZxid(1, 3), Type: ztree.TxnSetData, Path: "/k"}}
	for _, m := range []Message{
		{Kind: KindVote, Epoch: 9, Zxid: 4, VoteFor: 2, VoteZxid: MakeZxid(7, 1)},
		{Kind: KindVote, Epoch: 1, VoteFor: 9, VoteReply: true},
		{Kind: KindFollowerInfo, Zxid: MakeZxid(1, 1)},
		{Kind: KindSyncSnap, Epoch: 3, Zxid: MakeZxid(3, 0), Snapshot: &ztree.Snapshot{}},
		{Kind: KindSyncDiff, Epoch: 1, Zxid: MakeZxid(1, 3), Diff: []ProposalRecord{rec}},
		{Kind: KindNewLeaderAck, Zxid: MakeZxid(1, 2)},
		{Kind: KindProposeBatch, Epoch: 1, Zxid: MakeZxid(1, 2), Batch: []ProposalRecord{rec}},
		{Kind: KindAck, Zxid: MakeZxid(9, 9)},
		{Kind: KindCommit, Zxid: MakeZxid(9, 9)},
		{Kind: KindPing, Epoch: 9, Zxid: MakeZxid(9, 9)},
		{Kind: KindPong, Epoch: 1, Zxid: MakeZxid(1, 2)},
		{Kind: KindApp, App: []byte("x")},
		{Kind: KindObserverInfo},
		{Kind: KindObserverCommit, Epoch: 2, Zxid: MakeZxid(2, 1), Batch: []ProposalRecord{rec}},
		{Kind: KindRemoved},
	} {
		for from := int8(0); from <= 5; from++ {
			f.Add(wire.Marshal(&m), from)
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte, from int8) {
		var msg Message
		if wire.Unmarshal(frame, &msg) != nil {
			return
		}
		msg.From = PeerID(from)
		s := newSim(1, 3, 1)
		fromLeader := false
		defer func() {
			if r := recover(); r != nil {
				if _, invariant := r.(simFailure); !invariant || !fromLeader {
					t.Fatalf("%v after %+v\n%s", r, msg, s.dump())
				}
			}
		}()
		l := s.elect(10)
		s.write(l, 2)
		s.awaitDelivered(2, 4, s.ids()...)
		fromLeader = msg.From == l.id
		looking := s.others(l)[0]
		s.crash(looking) // back at once, LOOKING: the fourth role
		s.boot(looking)
		for _, p := range s.peers {
			s.record("fuzz", p.id, msg, 0, 0)
			s.enter(p).handle(s.now, msg)
			s.check()
		}
		s.idle(2 * simElection / simTick)
		if next := s.leaderNow(); next != nil {
			_ = s.propose(next, ztree.Txn{Type: ztree.TxnSetData, Path: "/k"})
			s.flush(next)
			s.idle(4)
		}
	})
}
