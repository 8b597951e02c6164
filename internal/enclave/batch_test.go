package enclave

// Tests of the batch ecalls: a burst through ProcessRequests /
// ProcessResponses must be indistinguishable — outputs, FIFO queue,
// errors — from the same messages through single calls, paying one
// crossing instead of one per message.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/wire"
)

// singly runs msgs through process one call at a time, stopping at the
// first error: the reference a batch call must reproduce.
func singly(process func([]byte) ([]byte, error), msgs [][]byte) ([][]byte, error) {
	var out [][]byte
	for _, m := range msgs {
		o, err := process(m)
		if err != nil {
			return out, err
		}
		out = append(out, o)
	}
	return out, nil
}

func replyHeader(t *testing.T, msg []byte) wire.ReplyHeader {
	t.Helper()
	var hdr wire.ReplyHeader
	if err := hdr.Deserialize(wire.NewDecoder(msg)); err != nil {
		t.Fatal(err)
	}
	return hdr
}

func getReply(t *testing.T, codec *skcrypto.Codec, xid int32, path, value string) []byte {
	t.Helper()
	stored, err := codec.EncryptPayload(path, []byte(value), false)
	if err != nil {
		t.Fatal(err)
	}
	return wire.MarshalPair(&wire.ReplyHeader{Xid: xid, Zxid: int64(xid), Err: wire.ErrOK},
		&wire.GetDataResponse{Data: stored, Stat: wire.Stat{DataLength: int32(len(stored))}})
}

// TestEntryDrainedQueueHoldsNoPaths: the trusted FIFO queue keeps the
// plaintext paths of its pending GETs, in queue order, and no other
// path; an answered request's sub-op list does not stay reachable in
// the queue's array; a drained queue keeps nothing.
func TestEntryDrainedQueueHoldsNoPaths(t *testing.T) {
	_, entry, _, _ := testSetup(t)
	reqs := [][]byte{
		request(t, 1, wire.OpGetData, &wire.GetDataRequest{Path: "/secret/one"}),
		request(t, 2, wire.OpMulti, &wire.MultiRequest{Ops: []wire.MultiOp{{Op: wire.OpDelete, Path: "/secret/two", Version: -1}}}),
		request(t, 3, wire.OpDelete, &wire.DeleteRequest{Path: "/secret/three", Version: -1}),
		request(t, 4, wire.OpGetData, &wire.GetDataRequest{Path: "/secret/four"}),
	}
	if _, err := entry.ProcessRequests(reqs, nil); err != nil {
		t.Fatal(err)
	}
	kept := func() string {
		entry.mu.Lock()
		defer entry.mu.Unlock()
		return string(entry.paths.buf[entry.paths.head:entry.paths.tail])
	}
	if got := kept(); got != "/secret/one/secret/four" {
		t.Fatalf("pending requests keep paths %q, want the two GETs'", got)
	}
	entry.mu.Lock()
	backing := entry.queue.buf // pops do not move the array
	entry.mu.Unlock()

	answer := func(xid int32) {
		t.Helper()
		if _, err := entry.ProcessResponse(wire.MarshalPair(&wire.ReplyHeader{Xid: xid, Err: wire.ErrNoNode}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	answer(1)
	answer(2)
	if got := kept(); got != "/secret/four" {
		t.Errorf("after two answers the queue keeps %q, want the pending GET's path", got)
	}
	entry.mu.Lock()
	for i, p := range backing[:2] {
		if p.subs != nil || p.xid != 0 {
			t.Errorf("answered request %d still in the queue's array: %+v", i+1, p)
		}
	}
	entry.mu.Unlock()

	answer(3)
	answer(4)
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if n, m := entry.queue.len(), entry.paths.len(); n != 0 || m != 0 {
		t.Fatalf("drained queue still holds %d requests and %d path bytes", n, m)
	}
	for i, p := range backing {
		if p.subs != nil || p.pathLen != 0 {
			t.Errorf("the queue's array still holds answered request %d: %+v", i+1, p)
		}
	}
}

// TestEntryQueueStaysWithinItsWindow: the trusted FIFO queue's array is
// bounded by the requests outstanding, not by the requests served. A
// session that takes turns empties the queue every time and stays on
// one slot; a session that always has requests outstanding never
// empties it, and an array a larger window made is left behind once the
// window is smaller. The path slab, which a GET's path is kept in,
// follows the same rule.
func TestEntryQueueStaysWithinItsWindow(t *testing.T) {
	_, entry, _, _ := testSetup(t)
	const pairs = 10000
	const path = "/window/key"
	xid, answered := int32(0), int32(0)
	ask := func() {
		t.Helper()
		xid++
		op := &wire.GetDataRequest{Path: path}
		if _, err := entry.ProcessRequest(request(t, xid, wire.OpGetData, op)); err != nil {
			t.Fatal(err)
		}
	}
	answer := func() {
		t.Helper()
		answered++
		if _, err := entry.ProcessResponse(wire.MarshalPair(&wire.ReplyHeader{Xid: answered, Err: wire.ErrNoNode}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	for _, standing := range []int{0, 1, 16, 300, 1} {
		for entry.PendingDepth() < standing {
			ask()
		}
		for entry.PendingDepth() > standing {
			answer()
		}
		largest, largestPaths := 0, 0
		for i := 0; i < pairs; i++ {
			ask()
			if i >= pairs/2 {
				entry.mu.Lock()
				largest = max(largest, len(entry.queue.buf))
				largestPaths = max(largestPaths, len(entry.paths.buf))
				entry.mu.Unlock()
			}
			answer()
		}
		// Twice the window when the array was made.
		if limit := 2 * (standing + 1); largest > limit {
			t.Errorf("%d requests standing, %d more served one at a time: the queue has room for %d, want at most %d", standing, pairs, largest, limit)
		}
		if limit := 2 * (standing + 1) * len(path); largestPaths > limit {
			t.Errorf("%d requests standing, %d more served one at a time: the path slab has room for %d bytes, want at most %d", standing, pairs, largestPaths, limit)
		}
	}
}

// TestEntryBatchFailureSemantics pins a failing batch to exactly what
// the same messages through single calls do: the slots ahead of the
// failure are processed and returned, the FIFO queue is where single
// calls would have left it, and an integrity failure is not an error
// at all — it rewrites its own slot and nothing else.
func TestEntryBatchFailureSemantics(t *testing.T) {
	get := func(xid int32, path string) []byte {
		return wire.MarshalPair(&wire.RequestHeader{Xid: xid, Op: wire.OpGetData}, &wire.GetDataRequest{Path: path})
	}
	unsupported := wire.MarshalPair(&wire.RequestHeader{Xid: 3, Op: wire.OpCode(0x7fff)}, nil)

	cases := []struct {
		name string
		// reqs are queued first (must succeed); then msgs go through
		// the direction under test.
		reqs      [][]byte
		responses bool
		msgs      func(codec *skcrypto.Codec) [][]byte
		wantDone  int
		wantErr   error // nil: any error; errNone: no error
		wantDepth int
		check     func(t *testing.T, out [][]byte)
	}{
		{
			name:     "request rejected at index 2",
			msgs:     func(*skcrypto.Codec) [][]byte { return [][]byte{get(1, "/a"), get(2, "/b"), unsupported, get(4, "/d")} },
			wantDone: 2, wantDepth: 2,
		},
		{
			name:     "request rejected at index 0",
			msgs:     func(*skcrypto.Codec) [][]byte { return [][]byte{unsupported, get(4, "/d")} },
			wantDone: 0, wantDepth: 0,
		},
		{
			name:      "response breaks FIFO order at index 1",
			reqs:      [][]byte{get(1, "/a"), get(2, "/b"), get(3, "/c")},
			responses: true,
			msgs: func(codec *skcrypto.Codec) [][]byte {
				return [][]byte{getReply(t, codec, 1, "/a", "va"), getReply(t, codec, 3, "/c", "vc"), getReply(t, codec, 2, "/b", "vb")}
			},
			// Single calls pop the queue head before they compare xids.
			wantDone: 1, wantDepth: 1,
		},
		{
			name:      "response without a pending request at index 1",
			reqs:      [][]byte{get(1, "/a")},
			responses: true,
			msgs: func(codec *skcrypto.Codec) [][]byte {
				return [][]byte{getReply(t, codec, 1, "/a", "va"), getReply(t, codec, 2, "/b", "vb")}
			},
			wantDone: 1, wantErr: ErrNoPending, wantDepth: 0,
		},
		{
			name:      "integrity failure rewrites only its slot",
			reqs:      [][]byte{get(1, "/a"), get(2, "/b"), get(3, "/c")},
			responses: true,
			msgs: func(codec *skcrypto.Codec) [][]byte {
				// The store answers /b with /a's payload (§4.3 attack).
				return [][]byte{getReply(t, codec, 1, "/a", "va"), getReply(t, codec, 2, "/a", "swapped"), getReply(t, codec, 3, "/c", "vc")}
			},
			wantDone: 3, wantErr: errNone, wantDepth: 0,
			check: func(t *testing.T, out [][]byte) {
				for i, want := range []wire.ErrCode{wire.ErrOK, wire.ErrIntegrity, wire.ErrOK} {
					if got := replyHeader(t, out[i]).Err; got != want {
						t.Errorf("slot %d: err = %v, want %v", i, got, want)
					}
				}
				if bytes.Contains(out[1], []byte("swapped")) {
					t.Error("integrity reply leaks the swapped payload")
				}
				if !bytes.Contains(out[0], []byte("va")) || !bytes.Contains(out[2], []byte("vc")) {
					t.Error("slots beside the integrity failure did not decrypt")
				}
			},
		},
		{
			// Only a store that lies reports less than the overhead every
			// sealed payload carries; the client must not be told a
			// negative length for it.
			name: "SET reply whose stored length is below the overhead",
			reqs: [][]byte{wire.MarshalPair(&wire.RequestHeader{Xid: 1, Op: wire.OpSetData},
				&wire.SetDataRequest{Path: "/a", Data: []byte("v"), Version: -1})},
			responses: true,
			msgs: func(*skcrypto.Codec) [][]byte {
				return [][]byte{wire.MarshalPair(&wire.ReplyHeader{Xid: 1},
					&wire.SetDataResponse{Stat: wire.Stat{DataLength: int32(skcrypto.PayloadOverhead) - 1}})}
			},
			wantDone: 1, wantErr: errNone, wantDepth: 0,
			check: func(t *testing.T, out [][]byte) {
				var hdr wire.ReplyHeader
				var resp wire.SetDataResponse
				d := wire.NewDecoder(out[0])
				hdr.Deserialize(d)
				if err := d.Finish(resp.Deserialize(d)); err != nil {
					t.Fatal(err)
				}
				if resp.Stat.DataLength < 0 {
					t.Errorf("the client is told a length of %d", resp.Stat.DataLength)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, batched, _, codec := testSetup(t)
			_, single, _, _ := testSetup(t)
			for _, en := range []*Entry{batched, single} {
				if _, err := en.ProcessRequests(tc.reqs, nil); err != nil {
					t.Fatal(err)
				}
			}
			msgs := tc.msgs(codec)
			var out, ref [][]byte
			var err, refErr error
			if tc.responses {
				out, err = batched.ProcessResponses(msgs, nil)
				ref, refErr = singly(single.ProcessResponse, msgs)
			} else {
				out, err = batched.ProcessRequests(msgs, nil)
				ref, refErr = singly(single.ProcessRequest, msgs)
			}
			if len(out) != tc.wantDone || len(ref) != tc.wantDone {
				t.Fatalf("batch finished %d messages, single calls %d, want %d", len(out), len(ref), tc.wantDone)
			}
			for i := range out {
				if !bytes.Equal(out[i], ref[i]) {
					t.Errorf("message %d differs from the single call's", i)
				}
			}
			switch {
			case tc.wantErr == errNone:
				if err != nil || refErr != nil {
					t.Fatalf("errors %v / %v, want none", err, refErr)
				}
			case err == nil || refErr == nil || err.Error() != refErr.Error():
				t.Fatalf("batch error %v, single-call error %v", err, refErr)
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if got, want := batched.PendingDepth(), single.PendingDepth(); got != tc.wantDepth || want != tc.wantDepth {
				t.Fatalf("PendingDepth = %d (single calls: %d), want %d", got, want, tc.wantDepth)
			}
			if tc.check != nil {
				tc.check(t, out)
			}
		})
	}
}

var errNone = errors.New("no error expected")

// exchange is one generated request with the reply the untrusted store
// would give it; a watch event or ping reply has no request.
type exchange struct {
	req, resp []byte
}

// genExchanges builds a seeded mixed stream over every op the entry
// enclave rewrites, with pings, watch events and error replies mixed
// in and exactly one reply whose payload belongs to another znode.
func genExchanges(t *testing.T, rng *rand.Rand, codec *skcrypto.Codec, n int) []exchange {
	t.Helper()
	enc := func(path string) string {
		p, err := codec.EncryptPath(path)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	lastChunk := func(encPath string) string { return encPath[strings.LastIndexByte(encPath, '/')+1:] }
	tamperAt := rng.Intn(n)
	tampered := false
	out := make([]exchange, 0, n)
	for i := 0; len(out) < n; i++ {
		xid := int32(i + 1)
		path := fmt.Sprintf("/prop/dir%d/node%d", rng.Intn(3), rng.Intn(40))
		payload := make([]byte, rng.Intn(300))
		rng.Read(payload)
		ctLen := int32(skcrypto.EncryptedPayloadLen(len(payload)))
		reqHdr := wire.RequestHeader{Xid: xid}
		reply := wire.ReplyHeader{Xid: xid, Zxid: int64(xid), Err: wire.ErrOK}
		var reqBody, respBody wire.Record
		switch kind := rng.Intn(11); kind {
		case 0:
			reqHdr.Op, reqBody = wire.OpGetData, &wire.GetDataRequest{Path: path, Watch: rng.Intn(2) == 0}
			bound := path
			if !tampered && len(out) >= tamperAt {
				bound, tampered = "/prop/elsewhere", true
			}
			stored, err := codec.EncryptPayload(bound, payload, false)
			if err != nil {
				t.Fatal(err)
			}
			respBody = &wire.GetDataResponse{Data: stored, Stat: wire.Stat{DataLength: ctLen}}
		case 1:
			reqHdr.Op, reqBody = wire.OpSetData, &wire.SetDataRequest{Path: path, Data: payload, Version: -1}
			respBody = &wire.SetDataResponse{Stat: wire.Stat{DataLength: ctLen, Version: int32(i)}}
		case 2:
			reqHdr.Op, reqBody = wire.OpCreate, &wire.CreateRequest{Path: path + "-", Data: payload, Flags: wire.FlagSequential}
			created, err := codec.AppendSequenceToPath(enc(path+"-"), int32(i))
			if err != nil {
				t.Fatal(err)
			}
			respBody = &wire.CreateResponse{Path: created}
		case 3:
			reqHdr.Op, reqBody = wire.OpDelete, &wire.DeleteRequest{Path: path, Version: -1}
		case 4:
			reqHdr.Op, reqBody = wire.OpExists, &wire.ExistsRequest{Path: path}
			respBody = &wire.ExistsResponse{Stat: wire.Stat{DataLength: ctLen}}
		case 5:
			reqHdr.Op, reqBody = wire.OpGetChildren, &wire.GetChildrenRequest{Path: "/prop/dir0"}
			respBody = &wire.GetChildrenResponse{Children: []string{
				lastChunk(enc("/prop/dir0/alpha")), lastChunk(enc("/prop/dir0/beta" + fmt.Sprint(i)))}}
		case 6:
			reqHdr.Op, reqBody = wire.OpSync, &wire.SyncRequest{Path: path}
			respBody = &wire.SyncResponse{Path: enc(path)}
		case 7:
			reqHdr.Op, reqBody = wire.OpMulti, &wire.MultiRequest{Ops: []wire.MultiOp{
				{Op: wire.OpCheck, Path: path, Version: 1},
				{Op: wire.OpCreate, Path: path + "/child", Data: payload},
				{Op: wire.OpSetData, Path: path, Data: payload, Version: -1},
			}}
			respBody = &wire.MultiResponse{Results: []wire.MultiOpResult{
				{Op: wire.OpCheck, Stat: wire.Stat{DataLength: ctLen}},
				{Op: wire.OpCreate, Path: enc(path + "/child"), Stat: wire.Stat{DataLength: ctLen}},
				{Op: wire.OpSetData, Stat: wire.Stat{DataLength: ctLen}},
			}}
		case 8:
			// Ping: reserved xid both ways, never queued.
			reqHdr = wire.RequestHeader{Xid: wire.PingXid, Op: wire.OpPing}
			reply = wire.ReplyHeader{Xid: wire.PingXid, Err: wire.ErrOK}
		case 9:
			// A watch event: out of band, no request.
			out = append(out, exchange{resp: wire.MarshalPair(
				&wire.ReplyHeader{Xid: wire.WatcherEventXid, Err: wire.ErrOK},
				&wire.WatcherEvent{Type: wire.EventNodeDataChanged, Path: enc(path)})})
			continue
		case 10:
			// An error reply carries no body whatever the op.
			reqHdr.Op, reqBody = wire.OpGetData, &wire.GetDataRequest{Path: path}
			reply.Err = wire.ErrNoNode
		}
		out = append(out, exchange{req: wire.MarshalPair(&reqHdr, reqBody), resp: wire.MarshalPair(&reply, respBody)})
	}
	return out
}

// canonRequest renders a rewritten request with every payload replaced
// by its decryption: payload encryption draws a random IV, so two
// enclaves given the same request agree on everything but those bytes.
func canonRequest(t *testing.T, codec *skcrypto.Codec, msg []byte) string {
	t.Helper()
	open := func(encPath string, data []byte, sequential bool) []byte {
		t.Helper()
		path, err := codec.DecryptPath(encPath)
		if err != nil {
			t.Fatalf("rewritten path does not decrypt: %v", err)
		}
		if sequential {
			path += "0000000007" // the suffix the binding check strips again
		}
		plain, err := codec.DecryptPayload(path, data)
		if err != nil {
			t.Fatalf("rewritten payload for %s does not decrypt: %v", path, err)
		}
		return plain
	}
	var hdr wire.RequestHeader
	d := wire.NewDecoder(msg)
	if err := hdr.Deserialize(d); err != nil {
		t.Fatal(err)
	}
	var body wire.Record
	switch hdr.Op {
	case wire.OpCreate:
		req := &wire.CreateRequest{}
		if err := req.Deserialize(d); err != nil {
			t.Fatal(err)
		}
		req.Data = open(req.Path, req.Data, req.Flags&wire.FlagSequential != 0)
		body = req
	case wire.OpSetData:
		req := &wire.SetDataRequest{}
		if err := req.Deserialize(d); err != nil {
			t.Fatal(err)
		}
		req.Data = open(req.Path, req.Data, false)
		body = req
	case wire.OpMulti:
		req := &wire.MultiRequest{}
		if err := req.Deserialize(d); err != nil {
			t.Fatal(err)
		}
		for i := range req.Ops {
			if op := &req.Ops[i]; op.Op == wire.OpCreate || op.Op == wire.OpSetData {
				op.Data = open(op.Path, op.Data, false)
			}
		}
		body = req
	default:
		return string(msg)
	}
	return string(wire.MarshalPair(&hdr, body))
}

// TestEntryBatchEquivalence feeds seeded mixed streams through two
// entry enclaves — one a message per call, one split into bursts at
// random boundaries, requests and responses interleaved as a pipelined
// session would — and requires identical outputs (byte-identical on the
// response path, identical up to the random payload IV on the request
// path) and an identical FIFO depth after every step.
func TestEntryBatchEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			_, batched, _, codec := testSetup(t)
			_, single, _, _ := testSetup(t)
			stream := genExchanges(t, rng, codec, 120)

			// Requests go in stream order; a response may go once the
			// request it answers (if any) went.
			var reqs [][]byte
			sent := make([]int, len(stream)) // requests that must precede response i
			for i, ex := range stream {
				if ex.req != nil {
					reqs = append(reqs, ex.req)
				}
				sent[i] = len(reqs)
			}
			ecalls0 := batched.Enclave().EcallCount()
			reqDone, respDone, integrity := 0, 0, 0
			for reqDone < len(reqs) || respDone < len(stream) {
				ready := respDone
				for ready < len(stream) && sent[ready] <= reqDone {
					ready++
				}
				if reqDone < len(reqs) && (ready == respDone || rng.Intn(2) == 0) {
					burst := reqs[reqDone:min(len(reqs), reqDone+1+rng.Intn(6))]
					out, err := batched.ProcessRequests(burst, nil)
					ref, refErr := singly(single.ProcessRequest, burst)
					if err != nil || refErr != nil || len(out) != len(burst) || len(ref) != len(burst) {
						t.Fatalf("requests %d..: %d/%d of %d out, errors %v / %v", reqDone, len(out), len(ref), len(burst), err, refErr)
					}
					for i := range out {
						if canonRequest(t, codec, out[i]) != canonRequest(t, codec, ref[i]) {
							t.Fatalf("request %d rewritten differently in a burst of %d", reqDone+i, len(burst))
						}
					}
					reqDone += len(burst)
				} else {
					burst := make([][]byte, 0, 6)
					for _, ex := range stream[respDone:min(ready, respDone+1+rng.Intn(6))] {
						burst = append(burst, ex.resp)
					}
					out, err := batched.ProcessResponses(burst, nil)
					ref, refErr := singly(single.ProcessResponse, burst)
					if err != nil || refErr != nil || len(out) != len(burst) || len(ref) != len(burst) {
						t.Fatalf("responses %d..: %d/%d of %d out, errors %v / %v", respDone, len(out), len(ref), len(burst), err, refErr)
					}
					for i := range out {
						if !bytes.Equal(out[i], ref[i]) {
							t.Fatalf("response %d rewritten differently in a burst of %d", respDone+i, len(burst))
						}
						if replyHeader(t, out[i]).Err == wire.ErrIntegrity {
							integrity++
						}
					}
					respDone += len(burst)
				}
				if got, want := batched.PendingDepth(), single.PendingDepth(); got != want {
					t.Fatalf("after %d requests and %d responses: PendingDepth %d, single calls %d", reqDone, respDone, got, want)
				}
			}
			if batched.PendingDepth() != 0 {
				t.Fatalf("stream answered in full but %d requests still pending", batched.PendingDepth())
			}
			if integrity > 1 {
				t.Fatalf("%d integrity replies for at most one tampered payload", integrity)
			}
			crossings := batched.Enclave().EcallCount() - ecalls0
			if msgs := int64(len(reqs) + len(stream)); crossings >= msgs {
				t.Fatalf("%d crossings for %d messages: bursts did not share crossings", crossings, msgs)
			}
		})
	}
}

// packSlots is the test's own encoder of the packed ecall buffer.
// sequenceMsg is the message AppendSequence hands ec_sequence: the
// storage-encrypted path of a sequential create and its number.
func sequenceMsg(tb testing.TB, path string, seq int32) []byte {
	codec, err := skcrypto.NewCodec(bytes.Repeat([]byte{7}, skcrypto.KeySize))
	if err != nil {
		tb.Fatal(err)
	}
	encPath, err := codec.EncryptPath(path)
	if err != nil {
		tb.Fatal(err)
	}
	e := wire.AppendTo(nil)
	e.WriteString(encPath)
	e.WriteInt32(seq)
	return e.Bytes()
}

func packSlots(msgs [][]byte, headroom int) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(msgs)))
	for _, m := range msgs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m)+headroom))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m)))
		buf = append(buf, m...)
		buf = append(buf, make([]byte, headroom)...)
	}
	return buf
}

// FuzzEntryBatchUnpack hands the trusted side of all three ecalls — the
// entry enclave's two and the counter enclave's — a hostile packed
// buffer: arbitrary counts, capacities, lengths and trailing bytes. The slot walk must reject what is malformed without panicking
// and without touching a byte at or past msgLen, must never hand the
// transformation a slot outside the buffer or a length outside the
// slot, and may finish no more slots than the buffer's count claims.
func FuzzEntryBatchUnpack(f *testing.F) {
	get := wire.MarshalPair(&wire.RequestHeader{Xid: 1, Op: wire.OpGetData}, &wire.GetDataRequest{Path: "/fuzz/a"})
	set := wire.MarshalPair(&wire.RequestHeader{Xid: 2, Op: wire.OpSetData}, &wire.SetDataRequest{Path: "/fuzz/b", Data: []byte("payload"), Version: -1})
	good := packSlots([][]byte{get, set}, 600)
	f.Add(good)
	f.Add(packSlots([][]byte{sequenceMsg(f, "/fuzz/c-", 7)}, 600))
	f.Add(packSlots(nil, 0))
	f.Add(packSlots([][]byte{get}, 0)) // no headroom: the rewrite overflows its slot
	f.Add(good[:len(good)-1])          // last slot cut short
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                         // count with no slots
	f.Add([]byte{0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // cap beyond the buffer
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 9, 1, 2})       // len beyond its cap
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0})             // second slot header missing
	f.Add([]byte{0, 0})

	// One enclave of each kind serves every input, the entry's FIFO
	// queue emptied in between so that an input behaves the same
	// whatever ran before it.
	rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
	entry, err := NewEntry(rt)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(entry.Close)
	counter, err := NewCounter(rt)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(counter.Close)
	key := bytes.Repeat([]byte{7}, skcrypto.KeySize)
	if err := entry.installKey(key); err != nil {
		f.Fatal(err)
	}
	if err := counter.installKey(key); err != nil {
		f.Fatal(err)
	}
	ecalls := []struct {
		name string
		e    *sgx.Enclave
	}{{EcallRequest, entry.Enclave()}, {EcallResponse, entry.Enclave()}, {EcallSequence, counter.Enclave()}}

	f.Fuzz(func(t *testing.T, packed []byte) {
		// The walk alone, over a slice whose capacity ends at msgLen: a
		// read or write past it panics.
		if len(packed) >= batchHeaderLen {
			walked := append(make([]byte, 0, len(packed)), packed...)
			claimed := binary.BigEndian.Uint32(walked)
			slots := uint32(0)
			done, err := eachSlot(walked[:len(walked):len(walked)], func(slot []byte, used int) (int, error) {
				if used > len(slot) || cap(slot) != len(slot) {
					t.Fatalf("slot of len %d cap %d handed out with %d bytes used", len(slot), cap(slot), used)
				}
				slots++
				return used / 2, nil
			})
			if done > claimed || done != slots || (err == nil && done != claimed) {
				t.Fatalf("finished %d slots (transform ran %d times) of %d claimed, err %v", done, slots, claimed, err)
			}
		}

		// The real ecalls, through the enclave boundary.
		entry.mu.Lock()
		entry.queue, entry.paths = slab[pendingOp]{}, slab[byte]{}
		entry.mu.Unlock()
		for _, ec := range ecalls {
			buf := make([]byte, len(packed)+64)
			copy(buf, packed)
			n, err := ec.e.EcallBatch(ec.name, buf, len(packed), 1)
			if n != 0 && n != len(packed) {
				t.Fatalf("%s returned length %d for a %d-byte packed buffer", ec.name, n, len(packed))
			}
			if n > 0 {
				if done := binary.BigEndian.Uint32(buf); done > binary.BigEndian.Uint32(packed) {
					t.Fatalf("%s reports %d slots finished of %d claimed (err %v)", ec.name, done, binary.BigEndian.Uint32(packed), err)
				}
			}
		}
	})
}
