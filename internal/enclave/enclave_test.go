package enclave

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/wire"
)

// testSetup builds a runtime, key server, and provisioned entry+counter
// enclaves sharing one storage key.
func testSetup(t *testing.T) (*sgx.Runtime, *Entry, *Counter, *skcrypto.Codec) {
	t.Helper()
	rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
	key := bytes.Repeat([]byte{7}, skcrypto.KeySize)
	ks, err := NewKeyServerWithKey(key,
		sgx.MeasureCode(EntryCodeIdentity), sgx.MeasureCode(CounterCodeIdentity))
	if err != nil {
		t.Fatal(err)
	}
	ks.TrustPlatform(rt.QuoteVerificationKey())

	entry, err := NewEntry(rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ProvisionEntry(entry, ks, nil); err != nil {
		t.Fatal(err)
	}
	counter, err := NewCounter(rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ProvisionCounter(counter, ks, nil); err != nil {
		t.Fatal(err)
	}
	codec, err := skcrypto.NewCodec(key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		entry.Close()
		counter.Close()
	})
	return rt, entry, counter, codec
}

func request(t *testing.T, xid int32, op wire.OpCode, body wire.Record) []byte {
	t.Helper()
	return wire.MarshalPair(&wire.RequestHeader{Xid: xid, Op: op}, body)
}

func parseRequest(t *testing.T, msg []byte, body wire.Record) wire.RequestHeader {
	t.Helper()
	d := wire.NewDecoder(msg)
	var hdr wire.RequestHeader
	if err := hdr.Deserialize(d); err != nil {
		t.Fatal(err)
	}
	if body != nil {
		if err := body.Deserialize(d); err != nil {
			t.Fatal(err)
		}
	}
	return hdr
}

func TestEntryEncryptsCreateRequest(t *testing.T) {
	_, entry, _, codec := testSetup(t)
	payload := []byte("secret-value")
	msg := request(t, 1, wire.OpCreate, &wire.CreateRequest{Path: "/app/node", Data: payload})

	out, err := entry.ProcessRequest(msg)
	if err != nil {
		t.Fatal(err)
	}
	var req wire.CreateRequest
	parseRequest(t, out, &req)

	if strings.Contains(req.Path, "app") || strings.Contains(req.Path, "node") {
		t.Fatalf("path not encrypted: %q", req.Path)
	}
	if bytes.Contains(req.Data, payload) {
		t.Fatal("payload not encrypted")
	}
	// The enclave's output decrypts with the shared storage key.
	plainPath, err := codec.DecryptPath(req.Path)
	if err != nil || plainPath != "/app/node" {
		t.Fatalf("decrypt path = %q, %v", plainPath, err)
	}
	got, err := codec.DecryptPayload("/app/node", req.Data)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("decrypt payload = %q, %v", got, err)
	}
}

func TestEntryRequestResponseGetFlow(t *testing.T) {
	_, entry, _, codec := testSetup(t)

	// Request: GET /x.
	msg := request(t, 5, wire.OpGetData, &wire.GetDataRequest{Path: "/x"})
	out, err := entry.ProcessRequest(msg)
	if err != nil {
		t.Fatal(err)
	}
	var req wire.GetDataRequest
	parseRequest(t, out, &req)

	// Simulate the untrusted store answering with ciphertext.
	stored, err := codec.EncryptPayload("/x", []byte("plain"), false)
	if err != nil {
		t.Fatal(err)
	}
	resp := wire.MarshalPair(
		&wire.ReplyHeader{Xid: 5, Zxid: 9, Err: wire.ErrOK},
		&wire.GetDataResponse{Data: stored, Stat: wire.Stat{DataLength: int32(len(stored))}},
	)
	plainResp, err := entry.ProcessResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDecoder(plainResp)
	var hdr wire.ReplyHeader
	if err := hdr.Deserialize(d); err != nil {
		t.Fatal(err)
	}
	var body wire.GetDataResponse
	if err := body.Deserialize(d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body.Data, []byte("plain")) {
		t.Fatalf("decrypted payload = %q", body.Data)
	}
	if body.Stat.DataLength != 5 {
		t.Fatalf("DataLength = %d, want plaintext length 5", body.Stat.DataLength)
	}
}

func TestEntryDetectsSwappedPayload(t *testing.T) {
	_, entry, _, codec := testSetup(t)

	msg := request(t, 1, wire.OpGetData, &wire.GetDataRequest{Path: "/admin-credentials"})
	if _, err := entry.ProcessRequest(msg); err != nil {
		t.Fatal(err)
	}
	// The attacker answers with another node's payload (§4.3 attack).
	swapped, _ := codec.EncryptPayload("/user-credentials", []byte("user-pw"), false)
	resp := wire.MarshalPair(
		&wire.ReplyHeader{Xid: 1, Err: wire.ErrOK},
		&wire.GetDataResponse{Data: swapped},
	)
	out, err := entry.ProcessResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	var hdr wire.ReplyHeader
	if err := hdr.Deserialize(wire.NewDecoder(out)); err != nil {
		t.Fatal(err)
	}
	if hdr.Err != wire.ErrIntegrity {
		t.Fatalf("reply err = %v, want INTEGRITY", hdr.Err)
	}
}

func TestEntryFIFOMismatchRejected(t *testing.T) {
	_, entry, _, _ := testSetup(t)
	if _, err := entry.ProcessRequest(request(t, 1, wire.OpGetData, &wire.GetDataRequest{Path: "/a"})); err != nil {
		t.Fatal(err)
	}
	// Response for a different xid violates the FIFO guarantee.
	resp := wire.MarshalPair(&wire.ReplyHeader{Xid: 99, Err: wire.ErrOK}, &wire.GetDataResponse{})
	if _, err := entry.ProcessResponse(resp); err == nil {
		t.Fatal("xid mismatch must be rejected")
	}
}

func TestEntryResponseWithoutRequest(t *testing.T) {
	_, entry, _, _ := testSetup(t)
	resp := wire.MarshalPair(&wire.ReplyHeader{Xid: 1, Err: wire.ErrOK}, &wire.GetDataResponse{})
	if _, err := entry.ProcessResponse(resp); !errors.Is(err, ErrNoPending) {
		t.Fatalf("err = %v, want ErrNoPending", err)
	}
}

func TestEntryLsFlow(t *testing.T) {
	_, entry, _, codec := testSetup(t)

	msg := request(t, 2, wire.OpGetChildren, &wire.GetChildrenRequest{Path: "/parent"})
	out, err := entry.ProcessRequest(msg)
	if err != nil {
		t.Fatal(err)
	}
	var req wire.GetChildrenRequest
	parseRequest(t, out, &req)

	// The store returns encrypted child names (single chunks).
	encA, _ := codec.EncryptPath("/parent/alpha")
	encB, _ := codec.EncryptPath("/parent/beta")
	chunkOf := func(p string) string { parts := strings.Split(p, "/"); return parts[len(parts)-1] }
	resp := wire.MarshalPair(
		&wire.ReplyHeader{Xid: 2, Err: wire.ErrOK},
		&wire.GetChildrenResponse{Children: []string{chunkOf(encA), chunkOf(encB)}},
	)
	plainResp, err := entry.ProcessResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDecoder(plainResp)
	var hdr wire.ReplyHeader
	_ = hdr.Deserialize(d)
	var body wire.GetChildrenResponse
	if err := body.Deserialize(d); err != nil {
		t.Fatal(err)
	}
	if len(body.Children) != 2 || body.Children[0] != "alpha" || body.Children[1] != "beta" {
		t.Fatalf("children = %v", body.Children)
	}
}

func TestEntryWatchEventDecryption(t *testing.T) {
	_, entry, _, codec := testSetup(t)
	encPath, _ := codec.EncryptPath("/watched/node")
	ev := wire.MarshalPair(
		&wire.ReplyHeader{Xid: wire.WatcherEventXid, Err: wire.ErrOK},
		&wire.WatcherEvent{Type: wire.EventNodeDataChanged, Path: encPath},
	)
	out, err := entry.ProcessResponse(ev)
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDecoder(out)
	var hdr wire.ReplyHeader
	_ = hdr.Deserialize(d)
	var body wire.WatcherEvent
	if err := body.Deserialize(d); err != nil {
		t.Fatal(err)
	}
	if body.Path != "/watched/node" {
		t.Fatalf("event path = %q", body.Path)
	}
}

func TestEntryErrorRepliesPassThrough(t *testing.T) {
	_, entry, _, _ := testSetup(t)
	if _, err := entry.ProcessRequest(request(t, 3, wire.OpGetData, &wire.GetDataRequest{Path: "/missing"})); err != nil {
		t.Fatal(err)
	}
	resp := wire.MarshalPair(&wire.ReplyHeader{Xid: 3, Err: wire.ErrNoNode}, nil)
	out, err := entry.ProcessResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	var hdr wire.ReplyHeader
	_ = hdr.Deserialize(wire.NewDecoder(out))
	if hdr.Err != wire.ErrNoNode {
		t.Fatalf("err = %v", hdr.Err)
	}
}

func TestEntryUnprovisionedRejects(t *testing.T) {
	rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
	entry, err := NewEntry(rt)
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()
	msg := request(t, 1, wire.OpGetData, &wire.GetDataRequest{Path: "/a"})
	if _, err := entry.ProcessRequest(msg); !errors.Is(err, ErrKeyNotProvisioned) {
		t.Fatalf("err = %v, want ErrKeyNotProvisioned", err)
	}
}

func TestEntryUnsupportedOpRejected(t *testing.T) {
	_, entry, _, _ := testSetup(t)
	msg := request(t, 1, wire.OpCode(99), nil)
	if _, err := entry.ProcessRequest(msg); err == nil {
		t.Fatal("unknown op must be rejected (narrow interface, §3.2)")
	}
}

func TestEntryPendingDepth(t *testing.T) {
	_, entry, _, _ := testSetup(t)
	for i := int32(1); i <= 3; i++ {
		if _, err := entry.ProcessRequest(request(t, i, wire.OpGetData, &wire.GetDataRequest{Path: "/a"})); err != nil {
			t.Fatal(err)
		}
	}
	if entry.PendingDepth() != 3 {
		t.Fatalf("depth = %d", entry.PendingDepth())
	}
}

func TestCounterAppendSequence(t *testing.T) {
	_, _, counter, codec := testSetup(t)
	encPath, err := codec.EncryptPath("/locks/cand-")
	if err != nil {
		t.Fatal(err)
	}
	newEnc, err := counter.AppendSequence(encPath, 12)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := codec.DecryptPath(newEnc)
	if err != nil || plain != "/locks/cand-0000000012" {
		t.Fatalf("plain = %q, %v", plain, err)
	}
}

// counterBatch is a batch of sequential names under a few parents, and
// the name a batch of one gives each.
func counterBatch(t *testing.T, counter *Counter, codec *skcrypto.Codec) (paths []string, seqs []int32, want []string) {
	t.Helper()
	for i := 0; i < 8; i++ {
		enc, err := codec.EncryptPath(fmt.Sprintf("/locks/p%d/c-", i%3))
		if err != nil {
			t.Fatal(err)
		}
		seq := int32(3*i + 1)
		one, err := counter.AppendSequence(enc, seq)
		if err != nil {
			t.Fatal(err)
		}
		paths, seqs, want = append(paths, enc), append(seqs, seq), append(want, one)
	}
	return paths, seqs, want
}

// TestCounterBatchMatchesSingleCalls: one crossing names a whole batch,
// and every name is byte-identical to what a batch of one returns.
func TestCounterBatchMatchesSingleCalls(t *testing.T) {
	_, _, counter, codec := testSetup(t)
	paths, seqs, want := counterBatch(t, counter, codec)
	errs := make([]error, len(paths))
	before := counter.Enclave().EcallCount()
	counter.AppendSequences(paths, seqs, errs)
	if n := counter.Enclave().EcallCount() - before; n != 1 {
		t.Fatalf("a batch of %d names took %d crossings, want 1", len(paths), n)
	}
	for i := range paths {
		if errs[i] != nil || paths[i] != want[i] {
			t.Fatalf("name %d = %q, %v; a batch of one gave %q", i, paths[i], errs[i], want[i])
		}
	}
}

// TestCounterBatchRejectsOneSlot: when the enclave refuses slot k of a
// batch — a negative number or a path it cannot decrypt — exactly name k
// gets the error and keeps its path, and every other name is still
// merged: the slots after k cross again.
func TestCounterBatchRejectsOneSlot(t *testing.T) {
	_, _, counter, codec := testSetup(t)
	for _, k := range []int{0, 3, 7} {
		for _, bad := range []struct {
			name  string
			spoil func(paths []string, seqs []int32)
		}{
			{"negative", func(_ []string, seqs []int32) { seqs[k] = -1 }},
			{"garbage", func(paths []string, _ []int32) { paths[k] = "/not-encrypted" }},
		} {
			t.Run(fmt.Sprintf("%s/slot=%d", bad.name, k), func(t *testing.T) {
				paths, seqs, want := counterBatch(t, counter, codec)
				bad.spoil(paths, seqs)
				input := paths[k]
				errs := make([]error, len(paths))
				before := counter.Enclave().EcallCount()
				counter.AppendSequences(paths, seqs, errs)
				crossings := int64(1)
				if k < len(paths)-1 {
					crossings = 2
				}
				if n := counter.Enclave().EcallCount() - before; n != crossings {
					t.Fatalf("took %d crossings, want %d", n, crossings)
				}
				for i := range paths {
					switch {
					case i == k && (errs[i] == nil || paths[i] != input):
						t.Fatalf("refused name %d = %q, %v; want its input %q and an error", i, paths[i], errs[i], input)
					case i != k && (errs[i] != nil || paths[i] != want[i]):
						t.Fatalf("name %d = %q, %v; a batch of one gave %q", i, paths[i], errs[i], want[i])
					}
				}
			})
		}
	}
}

// TestCounterNamesInSlot: the name the counter enclave merges inside
// its slot — the parent's ciphertext kept where it lies, the final
// element decrypted, suffixed and encrypted again — is byte-identical
// to re-encrypting the whole suffixed plaintext path, which is what the
// counter enclave did before it merged in place, over seeded paths and
// numbers: under the root, the root itself, deep parents and long
// elements. A negative number is still refused and leaves its name.
func TestCounterNamesInSlot(t *testing.T) {
	_, _, counter, codec := testSetup(t)
	rng := rand.New(rand.NewSource(39))
	element := func() string {
		const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_.é世"
		var b strings.Builder
		for n := 1 + rng.Intn(40); b.Len() < n; {
			b.WriteString(string([]rune(alphabet)[rng.Intn(len([]rune(alphabet)))]))
		}
		return b.String()
	}
	plains := []string{"/", "/lock-", "/a/b/c/d/e/f/g/h/seq-"}
	for i := 0; i < 60; i++ {
		var b strings.Builder
		for depth := 1 + rng.Intn(6); depth > 0; depth-- {
			b.WriteString("/" + element())
		}
		plains = append(plains, b.String())
	}
	var paths, want []string
	var seqs []int32
	for i, plain := range plains {
		enc, err := codec.EncryptPath(plain)
		if err != nil {
			t.Fatal(err)
		}
		seq := rng.Int31()
		switch i % 7 {
		case 0:
			seq = 0
		case 1:
			seq = math.MaxInt32
		}
		ref, err := codec.EncryptPath(wire.AppendSequence(plain, seq))
		if err != nil {
			t.Fatal(err)
		}
		got, err := counter.AppendSequence(enc, seq)
		if err != nil || got != ref {
			t.Fatalf("%q + %d: merged %q, %v; want %q", plain, seq, got, err, ref)
		}
		paths, seqs, want = append(paths, enc), append(seqs, seq), append(want, ref)
	}
	errs := make([]error, len(paths))
	counter.AppendSequences(paths, seqs, errs)
	for i := range paths {
		if errs[i] != nil || paths[i] != want[i] {
			t.Fatalf("batch name %d = %q, %v; want %q", i, paths[i], errs[i], want[i])
		}
	}

	enc, err := codec.EncryptPath("/l/c-")
	if err != nil {
		t.Fatal(err)
	}
	names, negative := []string{enc}, []int32{-5}
	counter.AppendSequences(names, negative, errs[:1])
	if errs[0] == nil || names[0] != enc {
		t.Fatalf("negative number: name %q, %v; want it refused and left as it was", names[0], errs[0])
	}
	// The codec itself formats a negative number as wire does.
	got, err := codec.AppendSequencedPath(nil, enc, -5)
	if ref, _ := codec.EncryptPath(wire.AppendSequence("/l/c-", -5)); err != nil || string(got) != ref {
		t.Fatalf("codec, negative number: %q, %v; want %q", got, err, ref)
	}
}

// TestCounterAllocations: a batch of sequential names costs one object
// per name, the Txn.Path string AppendSequences hands back; the merge
// itself happens inside the slot.
func TestCounterAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the ecall buffer's encoder is pooled, and the race detector empties pools at random")
	}
	_, _, counter, codec := testSetup(t)
	inputs, seqs, _ := counterBatch(t, counter, codec)
	paths, errs := make([]string, len(inputs)), make([]error, len(inputs))
	got := testing.AllocsPerRun(100, func() {
		copy(paths, inputs)
		counter.AppendSequences(paths, seqs, errs)
	})
	if want := float64(len(inputs)); got != want {
		t.Errorf("a batch of %d names: %v allocs, want %v (one per name)", len(inputs), got, want)
	}
}

func TestCounterRejectsNegativeSequence(t *testing.T) {
	_, _, counter, codec := testSetup(t)
	encPath, _ := codec.EncryptPath("/l/c-")
	if _, err := counter.AppendSequence(encPath, -1); err == nil {
		t.Fatal("negative sequence must be rejected")
	}
}

func TestCounterRejectsGarbagePath(t *testing.T) {
	_, _, counter, _ := testSetup(t)
	if _, err := counter.AppendSequence("/not-encrypted", 1); err == nil {
		t.Fatal("garbage path must be rejected")
	}
}

func TestCounterUntrustedSequenceCaveat(t *testing.T) {
	// §7.1: the sequence number is untrusted input — the enclave cannot
	// validate its value, only its form. Two calls with attacker-chosen
	// equal numbers yield the same final path (the documented naming-
	// attack surface).
	_, _, counter, codec := testSetup(t)
	encPath, _ := codec.EncryptPath("/l/c-")
	a, err := counter.AppendSequence(encPath, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := counter.AppendSequence(encPath, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("deterministic path encryption should yield identical outputs")
	}
}

func TestProvisioningRejectsUntrustedMeasurement(t *testing.T) {
	rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
	// Key server trusts only the counter measurement.
	ks, err := NewKeyServer(sgx.MeasureCode(CounterCodeIdentity))
	if err != nil {
		t.Fatal(err)
	}
	ks.TrustPlatform(rt.QuoteVerificationKey())
	entry, err := NewEntry(rt)
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()
	if err := ProvisionEntry(entry, ks, nil); !errors.Is(err, ErrAttestationRejected) {
		t.Fatalf("err = %v, want ErrAttestationRejected", err)
	}
	msg := request(t, 1, wire.OpGetData, &wire.GetDataRequest{Path: "/a"})
	if _, err := entry.ProcessRequest(msg); !errors.Is(err, ErrKeyNotProvisioned) {
		t.Fatalf("request after a rejected provisioning: err = %v, want ErrKeyNotProvisioned", err)
	}
}

func TestProvisioningRejectsUnknownPlatform(t *testing.T) {
	rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
	ks, err := NewKeyServer(sgx.MeasureCode(EntryCodeIdentity))
	if err != nil {
		t.Fatal(err)
	}
	// No TrustPlatform call: quotes from rt cannot verify.
	entry, err := NewEntry(rt)
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()
	if err := ProvisionEntry(entry, ks, nil); !errors.Is(err, ErrAttestationRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestSealedKeyFlow(t *testing.T) {
	rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
	ks, err := NewKeyServer(sgx.MeasureCode(EntryCodeIdentity))
	if err != nil {
		t.Fatal(err)
	}
	ks.TrustPlatform(rt.QuoteVerificationKey())
	store := NewSealedKeyStore()

	// First enclave attests and seals.
	first, err := NewEntry(rt)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := ProvisionEntry(first, ks, store); err != nil {
		t.Fatal(err)
	}

	// Sibling unseals without talking to the key server (§4.5).
	second, err := NewEntry(rt)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := UnsealEntry(second, store); err != nil {
		t.Fatal(err)
	}
	msg := request(t, 1, wire.OpGetData, &wire.GetDataRequest{Path: "/a"})
	if _, err := second.ProcessRequest(msg); err != nil {
		t.Fatalf("sibling not provisioned: %v", err)
	}

	// A different machine cannot use the sealed blob.
	rt2 := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
	foreign, err := NewEntry(rt2)
	if err != nil {
		t.Fatal(err)
	}
	defer foreign.Close()
	if err := UnsealEntry(foreign, store); err == nil {
		t.Fatal("cross-machine unseal must fail")
	}
	// Missing blob.
	if err := UnsealEntry(foreign, NewSealedKeyStore()); !errors.Is(err, ErrNoSealedKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestEnclaveMemoryFootprint(t *testing.T) {
	rt, entry, counter, _ := testSetup(t)
	// §6.5: the entry enclave is ~580 KB and the counter ~397 KB; more
	// than 150 entry enclaves fit into the EPC without paging.
	if entry.Enclave().SizeBytes() > 1<<20 {
		t.Fatalf("entry enclave too large: %d", entry.Enclave().SizeBytes())
	}
	if counter.Enclave().SizeBytes() > 1<<20 {
		t.Fatalf("counter enclave too large: %d", counter.Enclave().SizeBytes())
	}
	if 150*entry.Enclave().SizeBytes() > sgx.EPCUsableBytes {
		t.Fatal("150 entry enclaves must fit into the usable EPC (§6.5)")
	}
	_ = rt
}

func TestGrowthHeadroomSufficientForWorstCase(t *testing.T) {
	_, entry, _, _ := testSetup(t)
	// Deep path plus max-ish payload: the in-place growth contract of
	// §5.1 must hold (no ErrBufferOverflow).
	deep := "/a/b/c/d/e/f/g/h"
	payload := bytes.Repeat([]byte{1}, 4096)
	msg := request(t, 9, wire.OpCreate, &wire.CreateRequest{Path: deep, Data: payload})
	if _, err := entry.ProcessRequest(msg); err != nil {
		t.Fatalf("worst-case growth failed: %v", err)
	}
}
