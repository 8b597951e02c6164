package server

import (
	"bytes"
	"encoding/hex"
	"testing"

	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
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
