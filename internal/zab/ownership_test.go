package zab

import (
	"fmt"
	"testing"

	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

// discardTransport drops what a peer sends, without a trace.
type discardTransport struct{ box chan Message }

func (discardTransport) Send(PeerID, Message) error { return nil }
func (d discardTransport) Receive() <-chan Message  { return d.box }
func (discardTransport) Close() error               { return nil }

// TestCommitLogRing wraps the committed-history ring three times, with
// an epoch change on the way so zxids are not contiguous, and asks for
// a diff from every frontier: each retained zxid yields exactly the
// records after it, the base yields all of them, and anything older —
// starting with the record trimmed last — or not a point of this
// history falls back to a snapshot, as before the ring.
func TestCommitLogRing(t *testing.T) {
	const limit = 8
	p := NewPeer(Config{ID: 1, Peers: []PeerID{1, 2, 3}, Transport: discardTransport{}, MaxLogEntries: limit,
		Deliver: func(Committed) {}})
	p.epoch = 2
	var zxids []int64
	for i := 1; i <= 3*limit+3; i++ {
		epoch, counter := int64(1), int64(i)
		if i > limit+2 { // the second reign starts mid-ring
			epoch, counter = 2, int64(i-limit-2)
		}
		z := MakeZxid(epoch, counter)
		zxids = append(zxids, z)
		p.deliver(1, Committed{Txn: ztree.Txn{Zxid: z, Type: ztree.TxnSync}, Origin: Origin{Xid: int32(i)}})

		held := zxids[max(0, len(zxids)-limit):]
		base := int64(0)
		if len(zxids) > limit {
			base = zxids[len(zxids)-limit-1]
		}
		if p.log.n != len(held) || p.log.base != base {
			t.Fatalf("after %d deliveries: %d records from base %#x, want %d from %#x", i, p.log.n, p.log.base, len(held), base)
		}
		for k := -1; k < len(held); k++ {
			from := base
			if k >= 0 {
				from = held[k]
			}
			diff, ok := p.diffSince(from)
			if !ok || len(diff) != len(held)-k-1 {
				t.Fatalf("after %d deliveries: diffSince(%#x) = %d records, ok=%v; want %d", i, from, len(diff), ok, len(held)-k-1)
			}
			for j, rec := range diff {
				if want := held[k+1+j]; rec.Txn.Zxid != want || int(rec.Origin.Xid) != len(zxids)-len(held)+k+1+j+1 {
					t.Fatalf("diffSince(%#x)[%d] = zxid %#x xid %d, want zxid %#x", from, j, rec.Txn.Zxid, rec.Origin.Xid, want)
				}
			}
		}
		if len(zxids) > limit+1 {
			trimmed := zxids[len(zxids)-limit-2] // the record before the base
			if _, ok := p.diffSince(trimmed); ok {
				t.Fatalf("after %d deliveries: diffSince(%#x) served a frontier the ring no longer reaches", i, trimmed)
			}
		}
		if _, ok := p.diffSince(held[len(held)-1] + 1); ok && len(held) > 0 {
			// A zxid past the newest record is no point of this history
			// unless it is the newest itself.
			t.Fatalf("after %d deliveries: diffSince served a zxid that was never committed", i)
		}
	}
	if _, ok := p.diffSince(MakeZxid(1, 1<<20)); ok {
		t.Fatal("diffSince served a zxid from the gap between two reigns")
	}

	// A snapshot install empties the ring and moves the base.
	p.followTarget = 2
	p.setRole(RoleFollowing, 2)
	p.handleSync(1, Message{Kind: KindSyncSnap, From: 2, Epoch: 2, Zxid: MakeZxid(2, 500)})
	if diff, ok := p.diffSince(MakeZxid(2, 500)); !ok || len(diff) != 0 || p.log.n != 0 {
		t.Fatalf("after a snapshot install: %d records, diff %v ok=%v", p.log.n, diff, ok)
	}
	for i := range p.log.recs {
		if p.log.recs[i].Txn.Zxid != 0 {
			t.Fatalf("slot %d still holds zxid %#x after the reset", i, p.log.recs[i].Txn.Zxid)
		}
	}
	p.deliver(1, Committed{Txn: ztree.Txn{Zxid: MakeZxid(2, 501), Type: ztree.TxnSync}})
	if diff, ok := p.diffSince(MakeZxid(2, 500)); !ok || len(diff) != 1 {
		t.Fatalf("first delivery after a reset: diff %v ok=%v", diff, ok)
	}
}

// TestMinRecordWireLen pins the constant deserializeRecords bounds its
// allocation with to the encoder.
func TestMinRecordWireLen(t *testing.T) {
	if got := len(wire.Marshal(&ProposalRecord{})); got != minRecordWireLen {
		t.Fatalf("an empty proposal record encodes to %d bytes, minRecordWireLen says %d", got, minRecordWireLen)
	}
}

// applyingFollower is an unstarted peer following peer 1, applying what
// it commits to a tree that already holds keys, and frames PROPOSE
// frames of batch sets each — every frame's commit bound covers the
// frame itself, so handling it buffers, acknowledges, commits and
// applies its records.
func applyingFollower(tb testing.TB, keys, frames, batch int) (*Peer, *ztree.Tree, [][]byte) {
	tb.Helper()
	tree := ztree.New()
	tree.Apply(&ztree.Txn{Zxid: 1, Type: ztree.TxnCreate, Path: "/k"})
	paths := make([]string, keys)
	for i := range paths {
		paths[i] = fmt.Sprintf("/k/key-%06d", i)
		tree.Apply(&ztree.Txn{Zxid: int64(2 + i), Type: ztree.TxnCreate, Path: paths[i]})
	}
	p := NewPeer(Config{ID: 2, Peers: []PeerID{1, 2, 3}, Transport: discardTransport{},
		Deliver: func(c Committed) {
			if res := tree.Apply(&c.Txn); res.Err != wire.ErrOK {
				tb.Errorf("apply %#x: %v", c.Txn.Zxid, res.Err)
			}
		}})
	p.followTarget, p.leaderSynced = 1, true
	p.setRole(RoleFollowing, 1)

	payload := make([]byte, 1024)
	encoded := make([][]byte, frames)
	zxid := int64(0)
	for f := range encoded {
		recs := make([]ProposalRecord, batch)
		for i := range recs {
			zxid++
			recs[i] = ProposalRecord{
				Txn:    ztree.Txn{Zxid: zxid, Type: ztree.TxnSetData, Path: paths[int(zxid)%keys], Data: payload, Version: -1},
				Origin: Origin{Peer: 1, Session: 7, Xid: int32(zxid)},
			}
		}
		encoded[f] = wire.Marshal(&Message{Kind: KindProposeBatch, Zxid: zxid, Batch: recs})
	}
	return p, tree, encoded
}

// receive is what a mesh link's reader and the peer's loop do with one
// frame between them.
func (p *Peer) receive(tb testing.TB, frame []byte) {
	var msg Message
	var d wire.Decoder
	d.Reset(frame)
	if err := msg.Deserialize(&d); err != nil {
		tb.Fatal(err)
	}
	msg.From = 1
	p.handle(1, msg)
}

// TestFollowerDecodeApplyAllocations pins the ownership rule on a
// follower: of a PROPOSE frame of n sets it keeps each record's own
// Path and Data — copied once, out of the receive chunk, by the decode —
// and the frame's record slice; buffering, acknowledging, committing to
// the ring and applying to the tree allocate nothing more.
func TestFollowerDecodeApplyAllocations(t *testing.T) {
	const runs, batch = 100, 16
	p, tree, frames := applyingFollower(t, 64, runs+1, batch)
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		p.receive(t, frames[next])
		next++
	})
	if want := float64(2*batch + 1); got > want {
		t.Errorf("decode + apply of a %d-record frame: %v allocs, want at most %v", batch, got, want)
	}
	if committed, want := p.LastCommitted(), int64((runs+1)*batch); committed != want {
		t.Fatalf("committed up to %d, want %d", committed, want)
	}
	// The tree, the ring and the decoded record share one array.
	last := p.log.at(p.log.n - 1)
	if stored, _, err := tree.GetDataRef(last.Txn.Path); err != nil || &stored[0] != &last.Txn.Data[0] {
		t.Errorf("tree and commit log hold different copies of %s (err %v)", last.Txn.Path, err)
	}
}

// BenchmarkFollowerDecodeApply is the bench-gate's view of the test
// above, per record: frames of 16 sets of 1 KiB.
func BenchmarkFollowerDecodeApply(b *testing.B) {
	const batch = 16
	frames := (b.N + batch - 1) / batch
	p, _, encoded := applyingFollower(b, 64, frames, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for _, frame := range encoded {
		p.receive(b, frame)
	}
}
