package enclave

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
)

// TestEntryRewritesRequestInEverySlotSize runs the trusted request
// transformation on CREATE and SET messages in slots of every size from
// no headroom at all to what the untrusted wrapper grants. The rewrite
// happens inside the slot: the payload is staged in the headroom while
// the longer, encrypted path is written over where it lay. Whatever the
// slot size, the outcome must be either ErrBufferOverflow or a message
// that decodes to the encrypted path, the payload — bound to the path —
// and the trailing field; never a panic or a clobbered field.
func TestEntryRewritesRequestInEverySlotSize(t *testing.T) {
	_, entry, _, codec := testSetup(t)
	paths := []string{"/k", "/app/config/primary", "/a/b/c/d/e/f/g/h"}
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("61 bytes is the overhead."), 3), bytes.Repeat([]byte{0xA5}, 1024), bytes.Repeat([]byte{0x5A}, 5000)}
	xid := int32(0)
	for _, path := range paths {
		for _, payload := range payloads {
			for _, op := range []wire.OpCode{wire.OpCreate, wire.OpSetData} {
				var body wire.Record = &wire.SetDataRequest{Path: path, Data: payload, Version: 77}
				if op == wire.OpCreate {
					body = &wire.CreateRequest{Path: path, Data: payload, Flags: wire.FlagSequential}
				}
				xid++
				msg := request(t, xid, op, body)
				fitted := 0
				// Every size near the message, then strides up to the granted slot.
				for size := len(msg); size <= slotCap(len(msg)); size += 1 + (size-len(msg))/64 {
					slot := make([]byte, size, size+8)
					copy(slot, msg)
					entry.mu.Lock()
					n, err := entry.ecRequest(slot[:size:size], len(msg))
					entry.queue = nil
					entry.mu.Unlock()
					if errors.Is(err, sgx.ErrBufferOverflow) {
						if fitted > 0 {
							t.Fatalf("%s %s, %d-byte payload: overflow in a %d-byte slot after a smaller one fitted", op, path, len(payload), size)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s %s, %d-byte payload, %d-byte slot: %v", op, path, len(payload), size, err)
					}
					fitted++
					if !bytes.Equal(slot[size:size+8], make([]byte, 8)) {
						t.Fatalf("%s %s: wrote past a %d-byte slot", op, path, size)
					}
					checkRewritten(t, codec, op, slot[:n], path, payload)
				}
				if fitted == 0 {
					t.Fatalf("%s %s, %d-byte payload: no slot size up to the granted %d fitted", op, path, len(payload), slotCap(len(msg)))
				}
			}
		}
	}
}

// checkRewritten decodes a rewritten CREATE or SET and compares it with
// what the client sent.
func checkRewritten(t *testing.T, codec *skcrypto.Codec, op wire.OpCode, msg []byte, path string, payload []byte) {
	t.Helper()
	var encPath string
	var ct []byte
	switch op {
	case wire.OpCreate:
		var req wire.CreateRequest
		hdr := parseRequest(t, msg, &req)
		if hdr.Op != op || req.Flags != wire.FlagSequential {
			t.Fatalf("rewritten create: header %+v flags %d", hdr, req.Flags)
		}
		encPath, ct = req.Path, req.Data
	case wire.OpSetData:
		var req wire.SetDataRequest
		hdr := parseRequest(t, msg, &req)
		if hdr.Op != op || req.Version != 77 {
			t.Fatalf("rewritten set: header %+v version %d", hdr, req.Version)
		}
		encPath, ct = req.Path, req.Data
	}
	if want, err := codec.EncryptPath(path); err != nil || encPath != want {
		t.Fatalf("rewritten path = %q, want %q (err %v)", encPath, want, err)
	}
	bound := path
	if op == wire.OpCreate { // sequential: read back under the suffixed name
		bound = wire.AppendSequence(path, 3)
	}
	plain, err := codec.DecryptPayload(bound, ct)
	if err != nil || !bytes.Equal(plain, payload) {
		t.Fatalf("%s %s: payload of %d bytes came back as %d bytes, err %v", op, path, len(payload), len(plain), err)
	}
}

// TestEntryRoundTripAllocations pins the §5.1 rule — the trusted side
// rewrites a message in its slot, without an allocator — as object
// counts per request/response pair, the messages made beforehand. What
// remains: the copy of the plaintext path a request leaves in the FIFO
// queue (the copy a response path is decrypted from, for a CREATE) and,
// for the one-message calls only, the caller-owned copy of the result;
// a burst's results stay in the packed buffer the entry keeps, so a
// batch call allocates nothing for them.
func TestEntryRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the ecall buffers are pooled, and the race detector empties pools at random")
	}
	_, entry, _, codec := testSetup(t)
	const path = "/bench/target"
	stored, err := codec.EncryptPayload(path, make([]byte, 1024), false)
	if err != nil {
		t.Fatal(err)
	}
	encPath, err := codec.EncryptPath(path)
	if err != nil {
		t.Fatal(err)
	}
	reply := func(body wire.Record) []byte {
		return wire.MarshalPair(&wire.ReplyHeader{Xid: 1, Zxid: 9, Err: wire.ErrOK}, body)
	}
	cases := []struct {
		name     string
		max      float64
		req, rsp []byte
	}{
		{"get", 3, request(t, 1, wire.OpGetData, &wire.GetDataRequest{Path: path}),
			reply(&wire.GetDataResponse{Data: stored, Stat: wire.Stat{DataLength: int32(len(stored))}})},
		{"set", 3, request(t, 1, wire.OpSetData, &wire.SetDataRequest{Path: path, Data: make([]byte, 1024), Version: -1}),
			reply(&wire.SetDataResponse{Stat: wire.Stat{DataLength: int32(len(stored))}})},
		{"create", 4, request(t, 1, wire.OpCreate, &wire.CreateRequest{Path: path, Data: make([]byte, 1024)}),
			reply(&wire.CreateResponse{Path: encPath})},
		{"delete", 3, request(t, 1, wire.OpDelete, &wire.DeleteRequest{Path: path, Version: -1}), reply(nil)},
	}
	for _, tc := range cases {
		var failed error
		got := testing.AllocsPerRun(200, func() {
			if _, err := entry.ProcessRequest(tc.req); err != nil {
				failed = err
			}
			if _, err := entry.ProcessResponse(tc.rsp); err != nil {
				failed = err
			}
		})
		if failed != nil {
			t.Fatalf("%s: %v", tc.name, failed)
		}
		if got > tc.max {
			t.Errorf("%s round trip: %v allocs, want at most %v", tc.name, got, tc.max)
		}
	}

	// A burst's results are slices of the kept buffer. The queue, which
	// emptied on one slot, grows back by doubling.
	const burst = 16
	reqs, rsps := make([][]byte, burst), make([][]byte, burst)
	for i := range reqs {
		reqs[i] = request(t, int32(i+1), wire.OpSetData, &wire.SetDataRequest{Path: fmt.Sprintf("/bench/k%02d", i), Data: make([]byte, 1024), Version: -1})
		rsps[i] = wire.MarshalPair(&wire.ReplyHeader{Xid: int32(i + 1), Err: wire.ErrOK}, &wire.SetDataResponse{})
	}
	out := make([][]byte, 0, burst)
	got := testing.AllocsPerRun(100, func() {
		if _, err := entry.ProcessRequests(reqs, out[:0]); err != nil {
			t.Fatal(err)
		}
		if _, err := entry.ProcessResponses(rsps, out[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(burst + bits.Len(burst-1)); got > want {
		t.Errorf("burst of %d sets, both ways: %v allocs, want at most %v (a path copy each, the queue's doublings)", burst, got, want)
	}
}

// TestEntryBufferRetentionIsBounded: a 300-message burst gets a packed
// buffer for its one call — its results stay valid for as long as the
// caller holds them — and must not pin that size on the session; an
// ordinary burst keeps its buffer for the next.
func TestEntryBufferRetentionIsBounded(t *testing.T) {
	_, entry, _, codec := testSetup(t)
	const burst = 300
	stored, err := codec.EncryptPayload("/big/key", make([]byte, 1024), false)
	if err != nil {
		t.Fatal(err)
	}
	reqs, rsps := make([][]byte, burst), make([][]byte, burst)
	for i := range reqs {
		xid := int32(i + 1)
		reqs[i] = request(t, xid, wire.OpGetData, &wire.GetDataRequest{Path: "/big/key"})
		rsps[i] = wire.MarshalPair(&wire.ReplyHeader{Xid: xid, Err: wire.ErrOK},
			&wire.GetDataResponse{Data: stored, Stat: wire.Stat{DataLength: int32(len(stored))}})
	}
	if _, err := entry.ProcessRequests(reqs, nil); err != nil {
		t.Fatal(err)
	}
	big, err := entry.ProcessResponses(rsps, nil)
	if err != nil || len(big) != burst {
		t.Fatalf("%d responses, %v", len(big), err)
	}
	if c := cap(entry.responses.buf); c > transport.MaxScratchRetain {
		t.Fatalf("entry retains %d bytes of response buffer after a burst of %d", c, burst)
	}

	// Ordinary bursts next: the second reuses the buffers the first made,
	// and neither touches what the large burst handed out.
	var kept *byte
	for round := 0; round < 2; round++ {
		if _, err := entry.ProcessRequests(reqs[:4], nil); err != nil {
			t.Fatal(err)
		}
		small, err := entry.ProcessResponses(rsps[:4], nil)
		if err != nil {
			t.Fatal(err)
		}
		if cap(entry.requests.buf) == 0 || cap(entry.responses.buf) == 0 {
			t.Fatal("ordinary burst did not keep its buffers for reuse")
		}
		if round == 1 && &entry.responses.buf[0] != kept {
			t.Fatal("ordinary burst did not reuse the response buffer")
		}
		kept = &entry.responses.buf[0]
		for i, msg := range big {
			// The same reply as the first of the small burst, but for the
			// xid in the header's first four bytes.
			if !bytes.Equal(msg[4:], small[0][4:]) {
				t.Fatalf("response %d of the large burst changed under a later call", i)
			}
		}
	}
}

// TestOneMessageCallKeepsBatchResults: ProcessRequest and
// ProcessResponse may be called from anywhere, so they must not
// overwrite what the owner of a direction was handed by its last batch
// call and may still be reading.
func TestOneMessageCallKeepsBatchResults(t *testing.T) {
	_, entry, _, _ := testSetup(t)
	const burst = 4
	reqs, rsps := make([][]byte, burst), make([][]byte, burst)
	for i := range reqs {
		xid := int32(i + 1)
		reqs[i] = request(t, xid, wire.OpSetData, &wire.SetDataRequest{Path: fmt.Sprintf("/keep/k%d", i), Data: bytes.Repeat([]byte{byte(i)}, 256), Version: -1})
		rsps[i] = wire.MarshalPair(&wire.ReplyHeader{Xid: xid, Err: wire.ErrOK}, &wire.SetDataResponse{})
	}
	snapshot := func(msgs [][]byte) [][]byte {
		out := make([][]byte, len(msgs))
		for i, m := range msgs {
			out[i] = bytes.Clone(m)
		}
		return out
	}
	stored, err := entry.ProcessRequests(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantStored := snapshot(stored)
	toClient, err := entry.ProcessResponses(rsps, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantToClient := snapshot(toClient)

	one, err := entry.ProcessRequest(request(t, 9, wire.OpSetData, &wire.SetDataRequest{Path: "/other", Data: bytes.Repeat([]byte{0xff}, 700), Version: -1}))
	if err != nil {
		t.Fatal(err)
	}
	wantOne := bytes.Clone(one)
	if _, err := entry.ProcessResponse(wire.MarshalPair(&wire.ReplyHeader{Xid: 9, Err: wire.ErrOK}, &wire.SetDataResponse{})); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stored, wantStored) || !reflect.DeepEqual(toClient, wantToClient) {
		t.Fatal("a one-message call overwrote the results of the last batch call")
	}
	// And the other way round: its own result is the caller's to keep.
	if _, err := entry.ProcessRequests(reqs, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := entry.ProcessRequest(request(t, 10, wire.OpGetData, &wire.GetDataRequest{Path: "/third"})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, wantOne) {
		t.Fatal("later calls overwrote a one-message result")
	}
}

// TestKeptBufferIsChargedLikeAPooledOne: the crossing is charged for the
// pages of the buffer it is handed. The entry's kept buffer therefore
// has the length the pooled one had — 16 SETs of 1 KB pack into 33 KB,
// which the pool served from its 64 KiB class — so that keeping the
// buffer moves nothing in the cost model.
func TestKeptBufferIsChargedLikeAPooledOne(t *testing.T) {
	rt, entry, _, _ := testSetup(t)
	const burst = 16
	reqs := make([][]byte, burst)
	total := batchHeaderLen
	for i := range reqs {
		reqs[i] = request(t, int32(i+1), wire.OpSetData, &wire.SetDataRequest{Path: fmt.Sprintf("/bench/k%02d", i), Data: make([]byte, 1024), Version: -1})
		total += slotHeaderLen + slotCap(len(reqs[i]))
	}
	pooled := sgx.GetBuf(total)
	pages := (len(pooled.B) + sgx.PageSize - 1) / sgx.PageSize
	pooled.Release()
	if pages != 16 {
		t.Fatalf("a %d-byte burst took %d pages of a pooled buffer, want 16", total, pages)
	}
	// The first burst faults its pages in, later ones find them resident:
	// 22800 and 5288 virtual ns, as with the pooled buffer.
	cost := sgx.DefaultCostModel()
	for round, perPage := range []float64{cost.PageFaultNs, cost.DRAMAccessNs, cost.DRAMAccessNs} {
		before := rt.Meter().VirtualNs()
		if _, err := entry.ProcessRequests(reqs, nil); err != nil {
			t.Fatal(err)
		}
		got := rt.Meter().VirtualNs() - before
		if want := 2*cost.CrossingNs + float64(pages)*perPage; math.Abs(got-want) > 1e-6 {
			t.Fatalf("burst %d charged %.1f virtual ns, want %.1f (two crossings, %d pages)", round, got, want, pages)
		}
	}
}
