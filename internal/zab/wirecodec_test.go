package zab

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

// sampleMessages covers every protocol kind with all kind-relevant
// fields populated.
func sampleMessages() []Message {
	txn := ztree.Txn{
		Zxid:    MakeZxid(3, 7),
		Type:    ztree.TxnCreate,
		Path:    "/a/b",
		Data:    []byte("payload"),
		Version: 2,
		Session: 0x1234,
	}
	txn2 := txn
	txn2.Zxid = MakeZxid(3, 8)
	txn2.Path = "/a/c"
	origin := Origin{Peer: 2, Session: 99, Xid: 41}
	return []Message{
		{Kind: KindVote, Epoch: 5, VoteFor: 3, VoteZxid: MakeZxid(2, 9), VoteReply: true},
		{Kind: KindFollowerInfo, Zxid: MakeZxid(2, 4)},
		{Kind: KindSyncSnap, Epoch: 4, Zxid: MakeZxid(4, 0), Snapshot: &ztree.Snapshot{
			Nodes: []ztree.SnapshotNode{
				{Path: "/", Stat: wire.Stat{Czxid: 1}},
				{Path: "/x", Data: []byte("v"), Stat: wire.Stat{Czxid: 2, DataLength: 1}},
			},
		}},
		{Kind: KindSyncSnap, Epoch: 4, Zxid: MakeZxid(4, 0)}, // nil snapshot
		{Kind: KindSyncDiff, Epoch: 4, Zxid: MakeZxid(3, 8), Diff: []ProposalRecord{
			{Txn: txn, Origin: origin},
			{Txn: txn2, Origin: origin},
		}},
		{Kind: KindNewLeaderAck, Zxid: MakeZxid(3, 8)},
		{Kind: KindProposeBatch, Epoch: 3, Zxid: MakeZxid(3, 6), Batch: []ProposalRecord{
			{Txn: txn, Origin: origin},
			{Txn: txn2, Origin: origin},
		}},
		{Kind: KindAck, Zxid: MakeZxid(3, 7)},
		{Kind: KindCommit, Zxid: MakeZxid(3, 7)},
		{Kind: KindPing, Epoch: 3, Zxid: MakeZxid(3, 7)},
		{Kind: KindPong, Zxid: MakeZxid(3, 7)},
		{Kind: KindApp, App: []byte("tunneled request")},
		{Kind: KindObserverInfo, Zxid: MakeZxid(2, 4)},
		{Kind: KindObserverCommit, Epoch: 3, Zxid: MakeZxid(3, 8), Batch: []ProposalRecord{{Txn: txn, Origin: origin}}},
		{Kind: KindRemoved, Epoch: 3},
	}
}

func TestMessageWireRoundTripAllKinds(t *testing.T) {
	for _, msg := range sampleMessages() {
		msg := msg
		t.Run(msg.Kind.String(), func(t *testing.T) {
			buf := wire.Marshal(&msg)
			var got Message
			if err := wire.Unmarshal(buf, &got); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(msg, got) {
				t.Fatalf("round trip mismatch:\n sent %+v\n got  %+v", msg, got)
			}
		})
	}
}

// TestMessageWireTruncated feeds every prefix of every kind's encoding
// to the decoder: all must fail cleanly, as a short buffer (to parse as
// a shorter valid frame is NOT acceptable — Unmarshal enforces full
// consumption), and a byte behind the encoding is refused too.
func TestMessageWireTruncated(t *testing.T) {
	for _, msg := range sampleMessages() {
		msg := msg
		t.Run(msg.Kind.String(), func(t *testing.T) {
			buf := wire.Marshal(&msg)
			for n := 0; n < len(buf); n++ {
				var got Message
				if err := wire.Unmarshal(buf[:n], &got); !errors.Is(err, wire.ErrShortBuffer) {
					t.Fatalf("truncated frame (%d/%d bytes): err = %v, want ErrShortBuffer", n, len(buf), err)
				}
			}
			var got Message
			if err := wire.Unmarshal(append(buf, 0), &got); err == nil || errors.Is(err, wire.ErrShortBuffer) {
				t.Fatalf("a byte behind the frame: err = %v", err)
			}
		})
	}
	// A count that claims the most its kind takes, over a body that is
	// not there: refused at the first record, nothing reserved on the
	// claim's word.
	for name, claim := range map[string]struct {
		kind  Kind
		count int32
	}{
		"batch":    {KindProposeBatch, maxBatchRecords},
		"diff":     {KindSyncDiff, maxDiffRecords},
		"snapshot": {KindSyncSnap, wire.MaxVectorLen},
	} {
		t.Run("claim/"+name, func(t *testing.T) {
			e := wire.NewEncoder(32)
			(&Message{Kind: claim.kind}).Serialize(e)
			buf := e.Bytes()[:20] // the header
			if claim.kind == KindSyncSnap {
				buf = append(buf, 1) // a snapshot follows
			}
			buf = binary.BigEndian.AppendUint32(buf, uint32(claim.count))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var got Message
			err := wire.Unmarshal(buf, &got)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, wire.ErrShortBuffer) {
				t.Fatalf("err = %v, want ErrShortBuffer", err)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
				t.Fatalf("a %d-byte frame made the decoder allocate %d bytes", len(buf), grown)
			}
		})
	}
}

func TestMessageWireAdversarial(t *testing.T) {
	encode := func(build func(e *wire.Encoder)) []byte {
		e := wire.NewEncoder(64)
		build(e)
		return append([]byte(nil), e.Bytes()...)
	}
	cases := map[string][]byte{
		"unknown kind": encode(func(e *wire.Encoder) {
			e.WriteInt32(999)
			e.WriteInt64(0)
			e.WriteInt64(0)
		}),
		"negative batch count": encode(func(e *wire.Encoder) {
			e.WriteInt32(int32(KindProposeBatch))
			e.WriteInt64(1)
			e.WriteInt64(0)
			e.WriteInt32(-2)
		}),
		"huge batch count": encode(func(e *wire.Encoder) {
			e.WriteInt32(int32(KindProposeBatch))
			e.WriteInt64(1)
			e.WriteInt64(0)
			e.WriteInt32(1 << 30)
		}),
		"batch zxid disorder": encode(func(e *wire.Encoder) {
			e.WriteInt32(int32(KindProposeBatch))
			e.WriteInt64(1)
			e.WriteInt64(0)
			e.WriteInt32(2)
			for _, zxid := range []int64{MakeZxid(1, 5), MakeZxid(1, 4)} {
				rec := ProposalRecord{Txn: ztree.Txn{Zxid: zxid, Type: ztree.TxnSync, Path: "/"}}
				rec.Serialize(e)
			}
		}),
		"diff zxid disorder": encode(func(e *wire.Encoder) {
			e.WriteInt32(int32(KindSyncDiff))
			e.WriteInt64(1)
			e.WriteInt64(0)
			e.WriteInt32(2)
			for _, zxid := range []int64{MakeZxid(1, 5), MakeZxid(1, 5)} {
				rec := ProposalRecord{Txn: ztree.Txn{Zxid: zxid, Type: ztree.TxnSync, Path: "/"}}
				rec.Serialize(e)
			}
		}),
		"app buffer over limit": encode(func(e *wire.Encoder) {
			e.WriteInt32(int32(KindApp))
			e.WriteInt64(0)
			e.WriteInt64(0)
			e.WriteInt32(wire.MaxBufferSize + 1)
		}),
		"trailing garbage": encode(func(e *wire.Encoder) {
			e.WriteInt32(int32(KindAck))
			e.WriteInt64(0)
			e.WriteInt64(7)
			e.WriteInt64(0xdead)
		}),
	}
	for name, buf := range cases {
		name, buf := name, buf
		t.Run(name, func(t *testing.T) {
			var got Message
			if err := wire.Unmarshal(buf, &got); err == nil {
				t.Fatalf("adversarial frame decoded without error: %x", buf)
			}
		})
	}
}

// TestRetiredProposeKindRejected: wire value 6 was the single-record
// PROPOSE that batches subsume. It stays reserved — every later kind
// keeps the number peers of earlier builds know it by — and a frame
// that still carries it is refused like any unknown kind.
func TestRetiredProposeKindRejected(t *testing.T) {
	for kind, want := range map[Kind]int32{
		KindVote: 1, KindFollowerInfo: 2, KindSyncSnap: 3, KindSyncDiff: 4, KindNewLeaderAck: 5,
		KindProposeBatch: 7, KindAck: 8, KindCommit: 9, KindPing: 10, KindPong: 11, KindApp: 12,
		KindObserverInfo: 13, KindObserverCommit: 14, KindRemoved: 15,
	} {
		if int32(kind) != want {
			t.Errorf("%s has wire value %d, want %d", kind, int32(kind), want)
		}
	}
	// The frame a single-record proposer sent: header, txn present, txn,
	// origin.
	e := wire.NewEncoder(64)
	e.WriteInt32(6)
	e.WriteInt64(3)
	e.WriteInt64(0)
	e.WriteBool(true)
	rec := ProposalRecord{Txn: ztree.Txn{Zxid: MakeZxid(3, 7), Type: ztree.TxnSync, Path: "/"}, Origin: Origin{Peer: 2}}
	rec.Serialize(e)
	var got Message
	err := wire.Unmarshal(e.Bytes(), &got)
	if err == nil || !strings.Contains(err.Error(), "unknown message kind 6") {
		t.Fatalf("retired kind 6 decoded with err = %v, want unknown message kind", err)
	}
}

// TestMessageWireRandomBytes throws random garbage at the decoder; the
// only requirement is no panic.
func TestMessageWireRandomBytes(t *testing.T) {
	buf := bytes.Repeat([]byte{0xa5, 0x01, 0xff, 0x00, 0x7f}, 200)
	for n := 0; n <= len(buf); n += 7 {
		var got Message
		_ = wire.Unmarshal(buf[:n], &got)
	}
	// Mutate a valid frame byte-by-byte.
	for _, msg := range sampleMessages() {
		valid := wire.Marshal(&msg)
		for i := range valid {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0xff
			var got Message
			_ = wire.Unmarshal(mut, &got)
		}
	}
}

// FuzzMessageDecode puts arbitrary bytes to the peer protocol's decoder:
// no input may panic it, and what it accepts is what Serialize writes —
// accepted bytes re-encode to themselves (but for a true spelled as a
// byte other than 1: a vote's reply flag, a snapshot's presence flag).
func FuzzMessageDecode(f *testing.F) {
	for _, msg := range sampleMessages() {
		buf := wire.Marshal(&msg)
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
		f.Add(append(buf, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var msg Message
		if err := wire.Unmarshal(data, &msg); err != nil {
			return
		}
		want := bytes.Clone(data)
		switch {
		case msg.Kind == KindVote && msg.VoteReply:
			want[len(want)-1] = 1
		case msg.Kind == KindSyncSnap && msg.Snapshot != nil:
			want[20] = 1
		}
		if re := wire.Marshal(&msg); !bytes.Equal(re, want) {
			t.Fatalf("%s: accepted %x, re-encodes as %x", msg.Kind, data, re)
		}
	})
}
