package sgx

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Enclave runtime errors.
var (
	ErrEnclaveDestroyed = errors.New("sgx: enclave destroyed")
	ErrUnknownEcall     = errors.New("sgx: unknown ecall")
	ErrBufferOverflow   = errors.New("sgx: ecall output exceeds caller buffer")
	ErrNotAttested      = errors.New("sgx: enclave not attested")
)

// EcallFunc is trusted code invoked through the enclave boundary. It
// receives the copied-in buffer (msgLen valid bytes within a larger
// buffer of bufferCap capacity) and returns the new message length. This
// mirrors the paper's EDL interface (Listing 1): the caller allocates a
// slightly larger buffer so the enclave can grow the message in place
// without an untrusted-memory allocator (§5.1).
type EcallFunc func(buf []byte, msgLen int) (int, error)

// Measurement identifies enclave code, the MRENCLAVE analogue.
type Measurement [32]byte

// MeasureCode computes the measurement of an enclave's code identity.
func MeasureCode(codeIdentity string) Measurement {
	return Measurement(sha256.Sum256([]byte("sgx-code:" + codeIdentity)))
}

// Spec describes an enclave to create.
type Spec struct {
	// CodeIdentity names the trusted code (stands in for the signed
	// shared object); it determines the measurement.
	CodeIdentity string
	// CodeBytes and HeapBytes and per-thread StackBytes size the
	// ELRANGE, which is fixed at creation (SGX1 cannot grow it).
	CodeBytes  int64
	HeapBytes  int64
	StackBytes int64
	Threads    int
	// Ecalls is the enclave's trusted interface, keyed by name.
	Ecalls map[string]EcallFunc
}

// Runtime manages enclaves sharing one EPC, the analogue of the SGX
// driver plus the SDK's untrusted runtime.
type Runtime struct {
	epc    *EPC
	cost   CostModel
	meter  *Meter
	nextID atomic.Uint64

	mu       sync.Mutex
	enclaves map[uint64]*Enclave
	cpuKey   [32]byte // per-CPU sealing root, never leaves the runtime
	qeKey    *quoteKey
	onEcall  atomic.Pointer[EcallObserver]
}

// EcallObserver is a per-runtime hook invoked after every enclave
// entry with the trusted function's name, the number of messages the
// caller packed into the crossing, and the wall-time duration of the
// whole crossing in nanoseconds. Entry enclaves are created per client
// connection, so metrics hang off the shared runtime rather than
// individual enclaves.
type EcallObserver func(name string, msgs int, durNs int64)

// SetEcallObserver installs (or, with nil, removes) the runtime's
// ecall hook. The observer runs on the calling goroutine inside the
// request path and must be cheap and non-blocking.
func (r *Runtime) SetEcallObserver(ob EcallObserver) {
	if ob == nil {
		r.onEcall.Store(nil)
		return
	}
	r.onEcall.Store(&ob)
}

// NewRuntime creates an SGX runtime with the given EPC capacity and
// cost model. applyLatency selects whether virtual costs are also spent
// as real time.
func NewRuntime(usableEPCBytes int64, cost CostModel, applyLatency bool) *Runtime {
	r := &Runtime{
		epc:      NewEPC(usableEPCBytes),
		cost:     cost,
		meter:    NewMeter(applyLatency),
		enclaves: make(map[uint64]*Enclave),
	}
	// Each runtime models one physical CPU package with its own fused
	// root key: sealing never transfers across machines.
	if _, err := rand.Read(r.cpuKey[:]); err != nil {
		// Entropy failure at startup is unrecoverable misconfiguration.
		panic(fmt.Sprintf("sgx: cpu key generation: %v", err))
	}
	r.qeKey = newQuoteKey()
	return r
}

// EPC exposes the runtime's page cache (for the paging experiments).
func (r *Runtime) EPC() *EPC { return r.epc }

// Meter exposes the accumulated virtual SGX cost.
func (r *Runtime) Meter() *Meter { return r.meter }

// Cost returns the runtime's cost model.
func (r *Runtime) Cost() CostModel { return r.cost }

// Create instantiates an enclave from spec.
func (r *Runtime) Create(spec Spec) (*Enclave, error) {
	if spec.Threads <= 0 {
		spec.Threads = 1
	}
	if spec.StackBytes <= 0 {
		spec.StackBytes = 64 << 10 // SDK default stack
	}
	size := spec.CodeBytes + spec.HeapBytes + int64(spec.Threads)*spec.StackBytes
	if size <= 0 {
		return nil, fmt.Errorf("sgx: enclave size must be positive, got %d", size)
	}
	e := &Enclave{
		runtime:     r,
		id:          r.nextID.Add(1),
		measurement: MeasureCode(spec.CodeIdentity),
		sizeBytes:   size,
		ecalls:      spec.Ecalls,
	}
	r.mu.Lock()
	r.enclaves[e.id] = e
	r.mu.Unlock()
	return e, nil
}

// Destroy removes an enclave and evicts its EPC pages.
func (r *Runtime) Destroy(e *Enclave) {
	if !e.destroyed.CompareAndSwap(false, true) {
		return
	}
	r.mu.Lock()
	delete(r.enclaves, e.id)
	r.mu.Unlock()
	r.epc.Evict(e.id)
}

// EnclaveCount returns the number of live enclaves.
func (r *Runtime) EnclaveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.enclaves)
}

// TotalEnclaveBytes sums the ELRANGE sizes of all live enclaves, used
// by the §6.5 memory-consumption analysis.
func (r *Runtime) TotalEnclaveBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, e := range r.enclaves {
		total += e.sizeBytes
	}
	return total
}

// Enclave is a live trusted execution environment.
type Enclave struct {
	runtime     *Runtime
	id          uint64
	measurement Measurement
	sizeBytes   int64
	ecalls      map[string]EcallFunc
	destroyed   atomic.Bool

	ecallCount atomic.Int64
	ocallCount atomic.Int64
}

// ID returns the enclave's runtime identifier.
func (e *Enclave) ID() uint64 { return e.id }

// Measurement returns the enclave's code measurement.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// SizeBytes returns the ELRANGE size fixed at creation.
func (e *Enclave) SizeBytes() int64 { return e.sizeBytes }

// EcallCount returns the number of enclave entries so far.
func (e *Enclave) EcallCount() int64 { return e.ecallCount.Load() }

// EcallBatch enters the enclave, invoking the named trusted function
// with copy-in/copy-out buffer semantics: buf's first msgLen bytes are
// the message; the function may grow the message up to len(buf) (the
// caller pre-sizes the buffer for the expected expansion, per §5.1).
// Returns the new message length. The caller packed msgs messages into
// the buffer, and they cross with one copy-in, one entry and one exit;
// the layout of the packing is between the caller and the trusted
// function, and the count is passed for the observer only.
func (e *Enclave) EcallBatch(name string, buf []byte, msgLen, msgs int) (int, error) {
	if ob := e.runtime.onEcall.Load(); ob != nil {
		start := time.Now()
		n, err := e.ecall(name, buf, msgLen)
		// Duration covers the full crossing — copy-in, trusted function
		// and copy-out — including any applied virtual SGX latency.
		(*ob)(name, msgs, time.Since(start).Nanoseconds())
		return n, err
	}
	return e.ecall(name, buf, msgLen)
}

func (e *Enclave) ecall(name string, buf []byte, msgLen int) (int, error) {
	if e.destroyed.Load() {
		return 0, ErrEnclaveDestroyed
	}
	fn, ok := e.ecalls[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownEcall, name)
	}
	if msgLen > len(buf) {
		return 0, fmt.Errorf("sgx: msgLen %d exceeds buffer %d", msgLen, len(buf))
	}
	e.ecallCount.Add(1)
	cost := e.runtime.cost
	// Entry: crossing plus copy-in (the EDL stub copies the buffer into
	// the ELRANGE, touching its pages).
	e.runtime.meter.Charge(cost.CrossingNs)
	e.touchPages(int64(len(buf)), false)

	// The trusted stack copies into a private buffer: the enclave must
	// never operate on untrusted memory in place, or the host could
	// race modifications past validation (TOCTOU). The staging buffer
	// comes from the trusted-side pool — bytes past msgLen are garbage
	// from earlier crossings (trusted code must only read what it was
	// handed), and the buffer is never recycled to untrusted callers,
	// so plaintext residue stays inside the boundary.
	pb := getStagingBuf(len(buf))
	inside := pb.B[:len(buf)]
	copy(inside, buf[:msgLen])
	newLen, err := fn(inside, msgLen)
	if newLen > len(buf) {
		if err == nil {
			err = fmt.Errorf("%w: need %d, have %d", ErrBufferOverflow, newLen, len(buf))
		}
		newLen = 0
	}
	// Exit: copy-out plus crossing. As with an EDL [out] buffer beside
	// a status return, the length the trusted function reports is copied
	// out even when it also reports an error: a batch hands back the
	// messages it finished before the one that failed.
	copy(buf, inside[:newLen])
	pb.release()
	e.runtime.meter.Charge(cost.CrossingNs)
	return newLen, err
}

// Ocall accounts an enclave exit and re-entry (e.g. the trusted code
// calling out for a syscall-like service).
func (e *Enclave) Ocall() {
	e.ocallCount.Add(1)
	e.runtime.meter.Charge(2 * e.runtime.cost.CrossingNs)
}

// touchPages simulates enclave-memory accesses spanning n bytes,
// charging the EPC-dependent cost per page.
func (e *Enclave) touchPages(n int64, write bool) {
	cost := e.runtime.cost
	pages := (n + PageSize - 1) / PageSize
	for p := int64(0); p < pages; p++ {
		kind := e.runtime.epc.Access(e.id, p)
		switch kind {
		case AccessPageFault:
			c := cost.PageFaultNs
			if write {
				c *= cost.WriteFaultFactor
			}
			e.runtime.meter.Charge(c)
		default:
			e.runtime.meter.Charge(cost.DRAMAccessNs)
		}
	}
}

// TouchRandomPage simulates one random access within an in-enclave
// buffer of bufBytes, returning where it was served. Drives Fig 3/4.
func (e *Enclave) TouchRandomPage(bufBytes int64, page int64, write bool) AccessKind {
	cost := e.runtime.cost
	if bufBytes <= L3CacheBytes {
		e.runtime.meter.Charge(cost.L3AccessNs)
		return AccessL3
	}
	kind := e.runtime.epc.Access(e.id, page)
	switch kind {
	case AccessPageFault:
		c := cost.PageFaultNs
		if write {
			c *= cost.WriteFaultFactor
		}
		e.runtime.meter.Charge(c)
		return AccessPageFault
	default:
		e.runtime.meter.Charge(cost.DRAMAccessNs)
		return AccessDRAM
	}
}
