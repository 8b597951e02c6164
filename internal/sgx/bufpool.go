package sgx

import "sync"

// The ecall path allocates two transient buffers per crossing: the
// untrusted caller's pre-sized message buffer (§5.1) and the trusted
// copy-in staging buffer. Both are hot-path churn — one per request per
// direction — so they are recycled through size-classed pools instead
// of being allocated fresh each crossing.
//
// The two roles use SEPARATE pool sets. Staging buffers live inside
// the (simulated) enclave boundary and may hold decrypted plaintext
// beyond the final message length; recycling them into the untrusted
// callers' pool would hand that residue to host code, the exact leak
// the copy-in/copy-out contract exists to prevent. Keeping the pools
// disjoint confines residue to trusted memory without paying a
// per-crossing scrub.

// bufClasses are the pooled buffer sizes, powers of two from 512 B to
// 1 MB. Requests above the largest class fall back to plain allocation
// (snapshot-sized messages are not worth pinning in a pool).
var bufClasses = [...]int{
	512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10,
	32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20,
}

// PooledBuf is a recyclable byte buffer. B has the full class length;
// Release returns it to the pool set it came from. The pointer wrapper
// keeps sync.Pool round-trips allocation-free (storing a bare slice in
// an interface would box its header on every Put).
type PooledBuf struct {
	B     []byte
	class int         // index into bufClasses, -1 for unpooled fallbacks
	home  *bufPoolSet // owning pool set
}

// bufPoolSet is one family of size-classed pools.
type bufPoolSet struct {
	pools [len(bufClasses)]sync.Pool
}

func newBufPoolSet() *bufPoolSet {
	s := &bufPoolSet{}
	for i := range s.pools {
		size := bufClasses[i]
		class := i
		s.pools[i].New = func() any {
			return &PooledBuf{B: make([]byte, size), class: class, home: s}
		}
	}
	return s
}

var (
	// messagePool serves untrusted callers sizing ecall message buffers.
	messagePool = newBufPoolSet()
	// stagingPool serves the trusted copy-in buffers inside Ecall.
	stagingPool = newBufPoolSet()
)

func (s *bufPoolSet) get(n int) *PooledBuf {
	for i, size := range bufClasses {
		if n <= size {
			return s.pools[i].Get().(*PooledBuf)
		}
	}
	return &PooledBuf{B: make([]byte, n), class: -1, home: s}
}

// BufSize is the length of the buffer GetBuf(n) hands out: n rounded up
// to its pool class. A caller that keeps a message buffer of its own
// passes it to Ecall at this length, so the crossing touches the same
// pages as with a pooled one.
func BufSize(n int) int {
	for _, size := range bufClasses {
		if n <= size {
			return size
		}
	}
	return n
}

// GetBuf returns a pooled buffer with len(B) >= n for untrusted-side
// message assembly. Contents are NOT zeroed: callers must treat bytes
// beyond what they write as garbage (residue of earlier untrusted
// messages, never of trusted staging memory).
func GetBuf(n int) *PooledBuf {
	return messagePool.get(n)
}

// getStagingBuf returns a pooled buffer for the trusted copy-in
// staging area; recycled only among ecall crossings.
func getStagingBuf(n int) *PooledBuf {
	return stagingPool.get(n)
}

// Release returns the buffer to its owning pool. The caller must not
// touch B (or any slice aliasing it) afterwards.
func (p *PooledBuf) Release() {
	if p.class < 0 {
		return
	}
	p.home.pools[p.class].Put(p)
}
