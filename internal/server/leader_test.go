package server

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/ztree"
)

// checkForwardDecode is the fuzz property of an APP payload: decoding
// must not panic, must grow its result only for records it read, and
// whatever it accepts is exactly what encodeForward produces for the
// records it returned — so nothing with a tail, an unknown or mixed kind
// or a second spelling of a record gets in.
func checkForwardDecode(t *testing.T, data []byte) {
	kind, writes, err := decodeForward(data, nil)
	if cap(writes) > max(1, 2*len(writes)) || cap(writes) > 0 && len(writes) == 0 {
		t.Fatalf("decoding % x grew the result to %d for %d records", data, cap(writes), len(writes))
	}
	scanKind, n, scanErr := walkForward(data, nil)
	if (err == nil) != (scanErr == nil) || err == nil && (scanKind != kind || n != len(writes)) {
		t.Fatalf("scan (%d, %d, %v) disagrees with decode (%d, %d, %v)", scanKind, n, scanErr, kind, len(writes), err)
	}
	if err != nil {
		return
	}
	if kind != fwdRequest && kind != fwdReject {
		t.Fatalf("accepted kind %d", kind)
	}
	if again := encodeForward(kind, writes); !bytes.Equal(again, data) {
		t.Fatalf("accepted % x, which encodes back to % x", data, again)
	}
}

// FuzzDecodeForward feeds the APP decoder what a peer could send with
// one record — a window-1 burst, or one reject.
func FuzzDecodeForward(f *testing.F) {
	origin := zab.Origin{Peer: 2, Session: 2<<48 | 9, Xid: 7}
	body := wire.Marshal(&wire.CreateRequest{Path: "/fwd", Data: []byte("v")})
	request := encodeForward(fwdRequest, []write{{op: wire.OpCreate, origin: origin, body: body}})
	reject := encodeForward(fwdReject, []write{{origin: origin}})
	// kind | peer | session | xid | op | body length | body
	for _, end := range []int{0, 1, 9, 17, 21, 25, 29, len(request)} {
		f.Add(request[:end])
	}
	for _, end := range []int{0, 1, 9, 17, len(reject)} {
		f.Add(reject[:end])
	}
	f.Add(append(bytes.Clone(reject), 0))                                                // trailing byte
	f.Add(append([]byte{3}, reject[1:]...))                                              // unknown kind
	f.Add(encodeForward(fwdRequest, []write{{op: wire.OpCloseSession, origin: origin}})) // nil body
	f.Fuzz(checkForwardDecode)
}

// FuzzForwardBurst feeds the APP decoder payloads of several records:
// a follower's burst, a burst of rejects, and the spellings the encoder
// never produces — records of two kinds, a truncated last record.
func FuzzForwardBurst(f *testing.F) {
	writes := forwardBurst()
	request := encodeForward(fwdRequest, writes)
	reject := encodeForward(fwdReject, writes)
	one := len(encodeForward(fwdRequest, writes[:1]))
	f.Add(request)
	f.Add(reject)
	f.Add(request[:one])
	f.Add(request[:one+1])
	f.Add(request[:len(request)-1])
	f.Add(append(bytes.Clone(request[:one]), reject[:21]...)) // a reject after a request
	f.Add(append(bytes.Clone(reject[:21]), request...))       // a request after a reject
	f.Add(append(bytes.Clone(request), 1))                    // the kind of a next record, no more
	f.Fuzz(checkForwardDecode)
}

// forwardBurst is a burst of three writes of one session.
func forwardBurst() []write {
	origin := zab.Origin{Peer: 3, Session: 3<<48 | 1}
	writes := []write{
		{op: wire.OpCreate, body: wire.Marshal(&wire.CreateRequest{Path: "/a", Data: []byte("x")})},
		{op: wire.OpSetData, body: wire.Marshal(&wire.SetDataRequest{Path: "/a", Data: []byte("y"), Version: -1})},
		{op: wire.OpCloseSession},
	}
	for i := range writes {
		writes[i].origin = origin
		writes[i].origin.Xid = int32(i + 1)
	}
	return writes
}

// TestForwardBurstGoldenBytes pins the APP payload: a burst is its
// writes' records concatenated, each exactly the one-write encoding —
// kind, origin (peer, session, xid), op code, length-prefixed request
// body (-1 for none) — and its rejects are kind and origin alone.
func TestForwardBurstGoldenBytes(t *testing.T) {
	writes := forwardBurst()
	const (
		origin1 = "0000000000000003" + "0003000000000001" + "00000001"
		origin2 = "0000000000000003" + "0003000000000001" + "00000002"
		origin3 = "0000000000000003" + "0003000000000001" + "00000003"
		create  = "01" + origin1 + "00000001" + "0000000f" + "000000022f61" + "0000000178" + "00000000"
		set     = "01" + origin2 + "00000005" + "0000000f" + "000000022f61" + "0000000179" + "ffffffff"
		closing = "01" + origin3 + "fffffff5" + "ffffffff"
	)
	request := encodeForward(fwdRequest, writes)
	if got := hex.EncodeToString(request); got != create+set+closing {
		t.Fatalf("request burst\n got %s\nwant %s", got, create+set+closing)
	}
	for i := range writes {
		one := encodeForward(fwdRequest, writes[i:i+1])
		if !bytes.Contains(request, one) {
			t.Fatalf("record %d is not its one-write encoding % x", i, one)
		}
	}
	reject := "02" + origin1 + "02" + origin2 + "02" + origin3
	if got := hex.EncodeToString(encodeForward(fwdReject, writes)); got != reject {
		t.Fatalf("reject burst\n got %s\nwant %s", got, reject)
	}

	kind, got, err := decodeForward(request, nil)
	if err != nil || kind != fwdRequest || len(got) != len(writes) {
		t.Fatalf("decode = (%d, %d writes, %v)", kind, len(got), err)
	}
	for i, w := range got {
		if w.op != writes[i].op || w.origin != writes[i].origin || !bytes.Equal(w.body, writes[i].body) {
			t.Fatalf("write %d decoded as %+v, want %+v", i, w, writes[i])
		}
	}
}

// TestForwardHopAllocations: the forward hop allocates one object per
// burst, whatever its size — the APP payload — and the leader's worker
// decodes a burst into the writes it keeps from burst to burst without
// allocating.
func TestForwardHopAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pools at random, so allocation counts mean nothing")
	}
	var writes []write
	for range 5 {
		writes = append(writes, forwardBurst()...)
	}
	payload := encodeForward(fwdRequest, writes)
	if n := testing.AllocsPerRun(100, func() { _ = encodeForward(fwdRequest, writes) }); n != 1 {
		t.Errorf("encoding a burst of %d writes allocates %v objects, want 1", len(writes), n)
	}
	scratch := make([]write, 0, len(writes))
	if n := testing.AllocsPerRun(100, func() { _, _, _ = decodeForward(payload, scratch[:0]) }); n != 0 {
		t.Errorf("decoding a burst of %d writes allocates %v objects, want 0", len(writes), n)
	}
}

// seqReplica is a replica with a tree and nothing running, holding the
// node /q: enough to play the zab loop's naming (nameSequential) and
// apply (deliver) by hand, one batch at a time.
func seqReplica(appender SequenceAppender) *Replica {
	r := &Replica{cfg: Config{ID: 1, SeqAppend: appender}, tree: ztree.New(), sessions: map[int64]*session{}, seqHint: map[string]int32{}}
	r.deliver(committed(1, ztree.Txn{Type: ztree.TxnCreate, Path: "/q"}))
	return r
}

// committed is txn at zxid from another replica's session, so deliver
// only applies it.
func committed(zxid int64, txn ztree.Txn) zab.Committed {
	txn.Zxid = zxid
	return zab.Committed{Txn: txn, Origin: zab.Origin{Peer: 2, Session: 2<<48 | 1}}
}

// seqCreate is a sequential create of /q/n-, unnamed, at zxid.
func seqCreate(zxid int64) zab.ProposalRecord {
	return committed(zxid, ztree.Txn{Type: ztree.TxnCreate, Path: "/q/n-", Flags: wire.FlagSequential, Session: 2<<48 | 1})
}

// TestNameSequentialPerBatch plays the zab loop's Prepare on batches of
// the leader's proposals.
func TestNameSequentialPerBatch(t *testing.T) {
	t.Run("batches before any apply take consecutive numbers", func(t *testing.T) {
		r := seqReplica(PlainSequenceAppender)
		first, second := []zab.ProposalRecord{seqCreate(2)}, []zab.ProposalRecord{seqCreate(3), seqCreate(4)}
		r.nameSequential(first)
		r.nameSequential(second) // /q's applied next number is still 0: only the hint gives 1 and 2
		for i, rec := range append(first, second...) {
			if want := wire.AppendSequence("/q/n-", int32(i)); rec.Txn.Path != want {
				t.Errorf("zxid %d named %q, want %q", rec.Txn.Zxid, rec.Txn.Path, want)
			}
		}
	})
	t.Run("a refused name is an error txn at its zxid", func(t *testing.T) {
		r := seqReplica(func(paths []string, seqs []int32, errs []error) {
			PlainSequenceAppender(paths, seqs, errs)
			paths[1], errs[1] = "/q/n-", errors.New("refused")
		})
		batch := []zab.ProposalRecord{seqCreate(2), seqCreate(3), seqCreate(4)}
		r.nameSequential(batch)
		want := ztree.Txn{Type: ztree.TxnError, Err: wire.ErrMarshallingError, ReqOp: wire.OpCreate, Zxid: 3, Session: 2<<48 | 1}
		if got := batch[1].Txn; !reflect.DeepEqual(got, want) {
			t.Errorf("refused create became %+v, want %+v", got, want)
		}
		if batch[0].Txn.Path != "/q/n-0000000000" || batch[2].Txn.Path != "/q/n-0000000002" {
			t.Errorf("its neighbours were named %q and %q", batch[0].Txn.Path, batch[2].Txn.Path)
		}
	})
	t.Run("a multi's sequential sub-op is named", func(t *testing.T) {
		r := seqReplica(PlainSequenceAppender)
		multi := committed(3, ztree.Txn{Type: ztree.TxnMulti, Subs: []ztree.Txn{
			{Type: ztree.TxnSetData, Path: "/q", Version: -1},
			{Type: ztree.TxnCreate, Path: "/q/m-", Flags: wire.FlagSequential},
			{Type: ztree.TxnCreate, Path: "/q/plain"},
		}})
		batch := []zab.ProposalRecord{seqCreate(2), multi}
		r.nameSequential(batch)
		if subs := batch[1].Txn.Subs; subs[1].Path != "/q/m-0000000001" || subs[0].Path != "/q" || subs[2].Path != "/q/plain" {
			t.Errorf("multi's sub-ops are %q, %q, %q; want only the sequential one named, /q/m-0000000001", subs[0].Path, subs[1].Path, subs[2].Path)
		}
	})
}

// TestSequenceHintsDropOnceApplied: the leader's hint under a parent
// lives while a number it handed out there is not yet applied, and no
// longer — a long-lived leader does not keep one for every lock or
// queue root it ever named under.
func TestSequenceHintsDropOnceApplied(t *testing.T) {
	r := seqReplica(PlainSequenceAppender)
	first, second := []zab.ProposalRecord{seqCreate(2)}, []zab.ProposalRecord{seqCreate(3)}
	r.nameSequential(first)
	r.nameSequential(second)
	r.deliver(first[0])
	if len(r.seqHint) != 1 {
		t.Fatalf("hints %v with /q/n-0000000001 named and not applied, want /q's", r.seqHint)
	}
	r.deliver(second[0])
	if len(r.seqHint) != 0 {
		t.Fatalf("hints %v after every named create applied, want none", r.seqHint)
	}
	if kids, err := r.tree.GetChildren("/q", nil); err != nil || len(kids) != 2 {
		t.Fatalf("/q has children %v (%v), want the two named", kids, err)
	}
}
