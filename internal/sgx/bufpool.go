package sgx

import "sync"

// Every crossing copies its buffer into a trusted staging buffer (see
// Enclave.ecall). That is hot-path churn — one per crossing — so the
// staging buffers are recycled through size-classed pools instead of
// being allocated fresh each crossing.
//
// The pools serve trusted staging only. A staging buffer may hold
// decrypted plaintext beyond the final message length; handing it to
// host code would leak that residue, the exact leak the copy-in/copy-out
// contract exists to prevent. Untrusted callers therefore keep message
// buffers of their own (the caller allocates, as in Listing 1), sized
// with BufSize.

// bufClasses are the pooled buffer sizes, powers of two from 512 B to
// 1 MB. Requests above the largest class fall back to plain allocation
// (snapshot-sized messages are not worth pinning in a pool).
var bufClasses = [...]int{
	512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10,
	32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20,
}

// stagingBuf is a recyclable staging buffer. B has the full class
// length. The pointer wrapper keeps sync.Pool round-trips
// allocation-free (storing a bare slice in an interface would box its
// header on every Put).
type stagingBuf struct {
	B     []byte
	class int // index into bufClasses, -1 for unpooled fallbacks
}

var stagingPools [len(bufClasses)]sync.Pool

// BufSize is n rounded up to its pool class. A caller passes its ecall
// buffer for n bytes at this length, so the crossing touches as many
// pages as the staging copy it gets.
func BufSize(n int) int {
	for _, size := range bufClasses {
		if n <= size {
			return size
		}
	}
	return n
}

// getStagingBuf returns a staging buffer with len(B) >= n. Its bytes
// are garbage from earlier crossings.
func getStagingBuf(n int) *stagingBuf {
	for i, size := range bufClasses {
		if n <= size {
			if b, _ := stagingPools[i].Get().(*stagingBuf); b != nil {
				return b
			}
			return &stagingBuf{B: make([]byte, size), class: i}
		}
	}
	return &stagingBuf{B: make([]byte, n), class: -1}
}

// release returns the buffer to its pool. The caller must not touch B
// (or any slice aliasing it) afterwards.
func (p *stagingBuf) release() {
	if p.class >= 0 {
		stagingPools[p.class].Put(p)
	}
}
