package sgx

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func testRuntime() *Runtime {
	return NewRuntime(EPCUsableBytes, DefaultCostModel(), false)
}

func TestEPCHitAndFault(t *testing.T) {
	epc := NewEPC(4 * PageSize)
	if kind := epc.Access(1, 0); kind != AccessPageFault {
		t.Fatalf("first access = %v, want fault", kind)
	}
	if kind := epc.Access(1, 0); kind != AccessDRAM {
		t.Fatalf("second access = %v, want hit", kind)
	}
	hits, faults := epc.Stats()
	if hits != 1 || faults != 1 {
		t.Fatalf("stats = %d hits, %d faults", hits, faults)
	}
}

func TestEPCLRUEviction(t *testing.T) {
	epc := NewEPC(2 * PageSize) // capacity 2 pages
	epc.Access(1, 0)            // fault, resident {0}
	epc.Access(1, 1)            // fault, resident {0,1}
	epc.Access(1, 0)            // hit, 0 now most recent
	epc.Access(1, 2)            // fault, evicts 1 (LRU)
	if kind := epc.Access(1, 0); kind != AccessDRAM {
		t.Fatalf("page 0 should be resident, got %v", kind)
	}
	if kind := epc.Access(1, 1); kind != AccessPageFault {
		t.Fatalf("page 1 should have been evicted, got %v", kind)
	}
}

func TestEPCEvictEnclave(t *testing.T) {
	epc := NewEPC(8 * PageSize)
	epc.Access(1, 0)
	epc.Access(2, 0)
	epc.Evict(1)
	if epc.ResidentPages() != 1 {
		t.Fatalf("resident = %d, want 1", epc.ResidentPages())
	}
	if kind := epc.Access(2, 0); kind != AccessDRAM {
		t.Fatalf("enclave 2's page must survive, got %v", kind)
	}
}

func TestEnclaveCreateAndSize(t *testing.T) {
	rt := testRuntime()
	e, err := rt.Create(Spec{CodeIdentity: "t", CodeBytes: 100 << 10, HeapBytes: 50 << 10, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(100<<10 + 50<<10 + 2*(64<<10))
	if e.SizeBytes() != want {
		t.Fatalf("size = %d, want %d", e.SizeBytes(), want)
	}
	if rt.EnclaveCount() != 1 || rt.TotalEnclaveBytes() != want {
		t.Fatal("runtime accounting wrong")
	}
	rt.Destroy(e)
	if rt.EnclaveCount() != 0 {
		t.Fatal("destroy must deregister")
	}
}

func TestCreateRejectsEmptySpec(t *testing.T) {
	rt := testRuntime()
	if _, err := rt.Create(Spec{CodeIdentity: "t", CodeBytes: -100000, StackBytes: 1}); err == nil {
		t.Fatal("non-positive size must be rejected")
	}
}

func TestEcallCopySemantics(t *testing.T) {
	rt := testRuntime()
	e, err := rt.Create(Spec{
		CodeIdentity: "t", CodeBytes: 4096,
		Ecalls: map[string]EcallFunc{
			"grow": func(buf []byte, msgLen int) (int, error) {
				// Append four bytes, as the entry enclave does.
				copy(buf[msgLen:], "TAIL")
				return msgLen + 4, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	copy(buf, "abcd")
	n, err := e.EcallBatch("grow", buf, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 || string(buf[:n]) != "abcdTAIL" {
		t.Fatalf("buf = %q (n=%d)", buf[:n], n)
	}
	if e.EcallCount() != 1 {
		t.Fatalf("ecall count = %d", e.EcallCount())
	}
}

func TestEcallBufferOverflow(t *testing.T) {
	rt := testRuntime()
	e, _ := rt.Create(Spec{
		CodeIdentity: "t", CodeBytes: 4096,
		Ecalls: map[string]EcallFunc{
			"huge": func(buf []byte, msgLen int) (int, error) { return len(buf) + 1, nil },
		},
	})
	buf := make([]byte, 8)
	if _, err := e.EcallBatch("huge", buf, 4, 1); !errors.Is(err, ErrBufferOverflow) {
		t.Fatalf("err = %v, want ErrBufferOverflow", err)
	}
}

// TestEcallPartialResultWithError: a trusted function that reports a
// result length beside its error gets that much copied out, like an EDL
// [out] buffer beside a status return — a batch ecall hands back what
// it finished — while a bare error (length 0) still copies out nothing.
// Either way the crossing is paid in full and the observer is told how
// many messages the caller packed.
func TestEcallPartialResultWithError(t *testing.T) {
	rt := testRuntime()
	failed := errors.New("third message rejected")
	e, _ := rt.Create(Spec{
		CodeIdentity: "t", CodeBytes: 4096,
		Ecalls: map[string]EcallFunc{
			"partial": func(buf []byte, msgLen int) (int, error) {
				copy(buf, "DONE")
				return 4, failed
			},
			"bare": func(buf []byte, msgLen int) (int, error) {
				copy(buf, "LEAK")
				return 0, failed
			},
		},
	})
	var seenName string
	var seenMsgs int
	rt.SetEcallObserver(func(name string, msgs int, _ int64) { seenName, seenMsgs = name, msgs })

	buf := []byte("abcdefgh")
	before := rt.Meter().VirtualNs()
	n, err := e.EcallBatch("partial", buf, 8, 3)
	if n != 4 || !errors.Is(err, failed) || string(buf) != "DONEefgh" {
		t.Fatalf("partial: n=%d err=%v buf=%q, want 4 bytes copied out beside the error", n, err, buf)
	}
	if seenName != "partial" || seenMsgs != 3 {
		t.Fatalf("observer saw %q with %d messages, want partial with 3", seenName, seenMsgs)
	}
	if got := rt.Meter().VirtualNs() - before; got < 2*rt.Cost().CrossingNs {
		t.Fatalf("failed ecall charged %.0f ns, less than entry plus exit", got)
	}

	buf = []byte("abcdefgh")
	if n, err := e.EcallBatch("bare", buf, 8, 1); n != 0 || !errors.Is(err, failed) || string(buf) != "abcdefgh" {
		t.Fatalf("bare error: n=%d err=%v buf=%q, want nothing copied out", n, err, buf)
	}
	if seenName != "bare" || seenMsgs != 1 {
		t.Fatalf("observer saw %q with %d messages, want bare with 1", seenName, seenMsgs)
	}
}

func TestEcallErrors(t *testing.T) {
	rt := testRuntime()
	e, _ := rt.Create(Spec{CodeIdentity: "t", CodeBytes: 4096, Ecalls: map[string]EcallFunc{}})
	if _, err := e.EcallBatch("missing", make([]byte, 4), 4, 1); !errors.Is(err, ErrUnknownEcall) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.EcallBatch("missing", make([]byte, 4), 10, 1); err == nil {
		t.Fatal("msgLen > len(buf) must fail")
	}
	rt.Destroy(e)
	if _, err := e.EcallBatch("missing", make([]byte, 4), 4, 1); !errors.Is(err, ErrEnclaveDestroyed) {
		t.Fatalf("err after destroy = %v", err)
	}
}

func TestEcallChargesCrossingCost(t *testing.T) {
	rt := testRuntime()
	e, _ := rt.Create(Spec{
		CodeIdentity: "t", CodeBytes: 4096,
		Ecalls: map[string]EcallFunc{
			"noop": func(buf []byte, msgLen int) (int, error) { return msgLen, nil },
		},
	})
	before := rt.Meter().VirtualNs()
	if _, err := e.EcallBatch("noop", make([]byte, 16), 16, 1); err != nil {
		t.Fatal(err)
	}
	charged := rt.Meter().VirtualNs() - before
	if charged < 2*rt.Cost().CrossingNs {
		t.Fatalf("charged %f ns, want at least two crossings (%f)", charged, 2*rt.Cost().CrossingNs)
	}
}

func TestSealUnseal(t *testing.T) {
	rt := testRuntime()
	e1, _ := rt.Create(Spec{CodeIdentity: "same", CodeBytes: 4096})
	e2, _ := rt.Create(Spec{CodeIdentity: "same", CodeBytes: 4096})
	e3, _ := rt.Create(Spec{CodeIdentity: "different", CodeBytes: 4096})

	secret := []byte("storage-key-material")
	blob, err := e1.Seal(secret)
	if err != nil {
		t.Fatal(err)
	}
	// Same measurement unseals (the §4.5 sibling-enclave flow).
	got, err := e2.Unseal(blob)
	if err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("sibling unseal = %q, %v", got, err)
	}
	// Different measurement must not.
	if _, err := e3.Unseal(blob); !errors.Is(err, ErrUnsealFailed) {
		t.Fatalf("foreign unseal err = %v", err)
	}
	// Different CPU (runtime) must not.
	rt2 := testRuntime()
	e4, _ := rt2.Create(Spec{CodeIdentity: "same", CodeBytes: 4096})
	if _, err := e4.Unseal(blob); !errors.Is(err, ErrUnsealFailed) {
		t.Fatalf("cross-CPU unseal err = %v", err)
	}
	// Tampered blob must not.
	blob[len(blob)-1] ^= 1
	if _, err := e2.Unseal(blob); !errors.Is(err, ErrUnsealFailed) {
		t.Fatalf("tampered unseal err = %v", err)
	}
}

func TestAttestation(t *testing.T) {
	rt := testRuntime()
	e, _ := rt.Create(Spec{CodeIdentity: "attested", CodeBytes: 4096})
	q := e.GenerateQuote([]byte("report-data"))

	if err := VerifyQuote(rt.QuoteVerificationKey(), q, MeasureCode("attested")); err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}
	if err := VerifyQuote(rt.QuoteVerificationKey(), q, MeasureCode("other")); !errors.Is(err, ErrMeasurementRejected) {
		t.Fatalf("wrong measurement: %v", err)
	}
	if err := VerifyQuote(rt.QuoteVerificationKey(), nil, MeasureCode("attested")); !errors.Is(err, ErrAttestationIncomplete) {
		t.Fatalf("nil quote: %v", err)
	}
	// Forged signature.
	q.Signature[0] ^= 1
	if err := VerifyQuote(rt.QuoteVerificationKey(), q, MeasureCode("attested")); !errors.Is(err, ErrQuoteInvalid) {
		t.Fatalf("forged quote: %v", err)
	}
	// Different platform's key must not verify.
	rt2 := testRuntime()
	q2 := e.GenerateQuote(nil)
	if err := VerifyQuote(rt2.QuoteVerificationKey(), q2, MeasureCode("attested")); err == nil {
		t.Fatal("cross-platform quote verified")
	}
}

func TestTouchRandomPageCosts(t *testing.T) {
	rt := testRuntime()
	e, _ := rt.Create(Spec{CodeIdentity: "t", CodeBytes: 4096, HeapBytes: 256 << 20})

	// Small buffer: L3.
	if kind := e.TouchRandomPage(4<<20, 0, false); kind != AccessL3 {
		t.Fatalf("4 MB buffer = %v, want L3", kind)
	}
	// Mid buffer: DRAM after first touch.
	e.TouchRandomPage(64<<20, 7, false)
	if kind := e.TouchRandomPage(64<<20, 7, false); kind != AccessDRAM {
		t.Fatalf("64 MB resident page = %v, want DRAM", kind)
	}
}

// TestTouchRandomPageFig3Shape holds the cost model to the shape of the
// paper's Fig 3: random accesses to a buffer past the L3 cost ~5.5×
// more, past the usable EPC at least 20× more again, and a paged write
// costs no less than a paged read.
func TestTouchRandomPageFig3Shape(t *testing.T) {
	const accesses = 20000
	// costPerAccess is the steady-state virtual ns of one random access
	// to a buffer of mb MiB, every page touched once beforehand.
	costPerAccess := func(mb int64, write bool) float64 {
		rt := testRuntime()
		bufBytes := mb << 20
		e, err := rt.Create(Spec{CodeIdentity: "fig3", CodeBytes: 4096, HeapBytes: bufBytes})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Destroy(e)
		pages := bufBytes / PageSize
		for p := int64(0); p < pages; p++ {
			e.TouchRandomPage(bufBytes, p, write)
		}
		rng := rand.New(rand.NewSource(42))
		before := rt.Meter().VirtualNs()
		for i := 0; i < accesses; i++ {
			e.TouchRandomPage(bufBytes, rng.Int63n(pages), write)
		}
		return (rt.Meter().VirtualNs() - before) / accesses
	}
	l3, dram, paged := costPerAccess(4, false), costPerAccess(64, false), costPerAccess(256, false)
	if r := dram / l3; r < 4 || r > 8 {
		t.Errorf("DRAM:L3 cost = %.1f, want ~5.5", r)
	}
	if r := paged / dram; r < 20 {
		t.Errorf("paged:DRAM cost = %.1f, want >= 20 (the paging cliff)", r)
	}
	if pagedWrite := costPerAccess(256, true); pagedWrite < paged {
		t.Errorf("paged write %.0f ns cheaper than paged read %.0f ns", pagedWrite, paged)
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter(false)
	m.Charge(100)
	m.Charge(50)
	if m.VirtualNs() != 150 {
		t.Fatalf("virtual = %f", m.VirtualNs())
	}
	m.Reset()
	if m.VirtualNs() != 0 {
		t.Fatal("reset failed")
	}
}

// TestMeterConcurrentCharges: every entry enclave of a replica charges
// one meter, so no charge may be lost when sessions charge at once.
func TestMeterConcurrentCharges(t *testing.T) {
	const workers, charges = 8, 5000
	m := NewMeter(false)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < charges; i++ {
				m.Charge(0.5) // exact in binary, so the total is exact
			}
		}()
	}
	wg.Wait()
	if got, want := m.VirtualNs(), float64(workers*charges)*0.5; got != want {
		t.Fatalf("virtual = %f, want %f", got, want)
	}
}

func TestMeasureCodeDeterministic(t *testing.T) {
	if MeasureCode("a") != MeasureCode("a") {
		t.Fatal("measurement must be deterministic")
	}
	if MeasureCode("a") == MeasureCode("b") {
		t.Fatal("distinct identities must have distinct measurements")
	}
}
