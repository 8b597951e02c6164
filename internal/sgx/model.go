// Package sgx simulates the Intel SGX enclave runtime that SecureKeeper
// depends on. Real SGX hardware provides isolated enclave memory backed
// by a small Enclave Page Cache (EPC), explicit enclave entry/exit
// (ecall/ocall) with non-trivial crossing cost, sealing keys bound to an
// enclave measurement, and remote attestation. This package reproduces
// all of those behaviours in software:
//
//   - an EPC model with the paper's observed limits (128 MB reserved,
//     ~92 MB usable before paging) and an LRU page-residency simulation
//     whose costs follow the paper's §3.3 measurements (Fig 3): ~5.5×
//     slowdown past the 8 MB L3 cache, ~200× more once EPC paging
//     begins, i.e. paged EPC more than 1000× slower than L3;
//   - an enclave lifecycle with measurements, copy-in/copy-out ecall
//     semantics (the EDL [in,out,size=...] buffer contract of §5.1),
//     and crossing-cost accounting;
//   - sealing and remote attestation used by the §4.5 deployment and
//     key-management flow.
//
// Costs are accounted in virtual nanoseconds so experiments can report
// paper-shaped curves deterministically; they can optionally be applied
// as real latency for end-to-end benchmarks.
package sgx

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Memory-geometry constants from the paper (§2.2, §3.3).
const (
	// PageSize is the enclave page granularity.
	PageSize = 4096
	// EPCTotalBytes is the reserved EPC range.
	EPCTotalBytes = 128 << 20
	// EPCUsableBytes is the usable EPC before paging starts; the paper
	// measures ~92 MB, the rest being SGX management structures.
	EPCUsableBytes = 92 << 20
	// L3CacheBytes is the last-level cache size of the evaluation CPU.
	L3CacheBytes = 8 << 20
)

// CostModel holds the virtual latencies of the memory hierarchy. The
// defaults reproduce the ratios of Fig 3: DRAM ≈ 5.5× L3, a page fault
// ≈ 200× DRAM (> 1000× L3).
type CostModel struct {
	// L3AccessNs is the cost of an access served by the L3 cache.
	L3AccessNs float64
	// DRAMAccessNs is the cost of an access served by (encrypted)
	// enclave DRAM within the EPC.
	DRAMAccessNs float64
	// PageFaultNs is the cost of an EPC page fault: re-encrypting an
	// evicted page and loading the target page back into the EPC.
	PageFaultNs float64
	// WriteFaultFactor scales PageFaultNs for writes, which always
	// dirty the evicted page and force re-encryption on eviction.
	WriteFaultFactor float64
	// CrossingNs is the cost of a single enclave entry or exit
	// (ecall/ocall edge, TLB flush, register scrub).
	CrossingNs float64
}

// DefaultCostModel returns the paper-calibrated cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		L3AccessNs:       1.0,
		DRAMAccessNs:     5.5,
		PageFaultNs:      1100.0,
		WriteFaultFactor: 1.3,
		CrossingNs:       2600.0, // ~8000 cycles on the 3.1 GHz eval CPU
	}
}

// AccessKind classifies where a simulated memory access was served.
type AccessKind int

// Access outcomes.
const (
	AccessL3 AccessKind = iota + 1
	AccessDRAM
	AccessPageFault
)

// EPC simulates the Enclave Page Cache: a bounded set of resident pages
// shared by all enclaves, with LRU eviction. It is safe for concurrent
// use.
type EPC struct {
	mu         sync.Mutex
	capacity   int // pages
	resident   map[pageID]*pageNode
	head, tail *pageNode // LRU list: head = most recent
	faults     int64
	hits       int64
}

type pageID struct {
	enclave uint64
	page    int64
}

type pageNode struct {
	id         pageID
	prev, next *pageNode
}

// NewEPC returns an EPC with the given usable byte capacity.
func NewEPC(usableBytes int64) *EPC {
	pages := int(usableBytes / PageSize)
	if pages < 1 {
		pages = 1
	}
	return &EPC{
		capacity: pages,
		resident: make(map[pageID]*pageNode, pages),
	}
}

// Access touches one page of an enclave, returning whether it faulted.
func (e *EPC) Access(enclave uint64, page int64) AccessKind {
	id := pageID{enclave: enclave, page: page}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n, ok := e.resident[id]; ok {
		e.moveToFront(n)
		e.hits++
		return AccessDRAM
	}
	e.faults++
	if len(e.resident) >= e.capacity {
		e.evictLocked()
	}
	n := &pageNode{id: id}
	e.resident[id] = n
	e.pushFront(n)
	return AccessPageFault
}

// Evict removes all pages of an enclave (enclave destruction).
func (e *EPC) Evict(enclave uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for id, n := range e.resident {
		if id.enclave == enclave {
			e.unlink(n)
			delete(e.resident, id)
		}
	}
}

// Stats returns cumulative hit and fault counts.
func (e *EPC) Stats() (hits, faults int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.faults
}

// ResidentPages returns the number of currently resident pages.
func (e *EPC) ResidentPages() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.resident)
}

func (e *EPC) moveToFront(n *pageNode) {
	if e.head == n {
		return
	}
	e.unlink(n)
	e.pushFront(n)
}

func (e *EPC) pushFront(n *pageNode) {
	n.prev = nil
	n.next = e.head
	if e.head != nil {
		e.head.prev = n
	}
	e.head = n
	if e.tail == nil {
		e.tail = n
	}
}

func (e *EPC) unlink(n *pageNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else if e.head == n {
		e.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else if e.tail == n {
		e.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (e *EPC) evictLocked() {
	victim := e.tail
	if victim == nil {
		return
	}
	e.unlink(victim)
	delete(e.resident, victim.id)
}

// Meter accumulates virtual time spent on simulated SGX effects, and
// can optionally convert it into real latency (busy-waiting) so that
// end-to-end benchmarks feel the crossing costs.
//
// Every enclave of a runtime charges the same meter several times per
// ecall, so the total is a float64 kept as bits in an atomic word and
// added by compare-and-swap: concurrent sessions never queue on a lock.
type Meter struct {
	virtualNs atomic.Uint64 // math.Float64bits of the running total
	apply     bool
}

// NewMeter returns a meter; if applyLatency is true, charged costs are
// also spent as wall-clock time.
func NewMeter(applyLatency bool) *Meter {
	return &Meter{apply: applyLatency}
}

// Charge adds ns of virtual time and optionally sleeps it off.
func (m *Meter) Charge(ns float64) {
	for {
		old := m.virtualNs.Load()
		if m.virtualNs.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+ns)) {
			break
		}
	}
	if m.apply && ns > 0 {
		spinWait(time.Duration(ns))
	}
}

// VirtualNs returns the accumulated virtual time.
func (m *Meter) VirtualNs() float64 {
	return math.Float64frombits(m.virtualNs.Load())
}

// Reset zeroes the accumulated time.
func (m *Meter) Reset() {
	m.virtualNs.Store(0)
}

// spinWait busy-waits for short durations (sleeping is far too coarse
// for sub-microsecond costs) and sleeps for long ones.
func spinWait(d time.Duration) {
	if d >= 100*time.Microsecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}
