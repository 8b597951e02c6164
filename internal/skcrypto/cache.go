package skcrypto

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// The path codec is deterministic by design (§4.3): a chunk's IV is the
// hash of its plaintext prefix, so equal path chunks encrypt to equal
// ciphertext under one key. That determinism makes path crypto
// perfectly cacheable — the entry enclave re-encrypts the same handful
// of paths on every request — and the cache is sound in both
// directions: one (key, prefix) pair maps to exactly one ciphertext
// chunk, and one authenticated ciphertext chunk decrypts to exactly one
// plaintext. The cache lives inside the Codec, so installing a new
// storage key (which builds a new Codec) discards it wholesale.
//
// DefaultChunkCacheSize bounds each direction's cache; under churn the
// least-recently-used entries are evicted, so 10k distinct paths cost
// bounded memory, not unbounded growth.
const DefaultChunkCacheSize = 4096

// chunkCache is a mutex-guarded LRU map from a key to a value, both
// bytes that the cache owns: every entry keeps its pair in one array of
// its own, and the entry an insertion evicts hands that array on to the
// new pair, so a cache at capacity allocates nothing for an insertion
// unless the new pair is longer than any its entry held before. A
// lookup appends the value to the caller's buffer under the lock, so no
// byte the cache owns leaves it for an eviction to overwrite later.
// Entries form a doubly-linked recency list (hand-rolled rather than
// container/list to avoid boxing values).
type chunkCache struct {
	mu  sync.Mutex
	max int
	// m is keyed by each entry's own key bytes (chunkEntry.key): an
	// entry's array is written only while its key is out of m.
	m          map[string]*chunkEntry
	head, tail *chunkEntry // head = most recent
	counts     *cacheCounts
}

// CacheStats counts what one direction of chunk cache has done: lookups
// that found their chunk, lookups that did not (each followed by the
// crypto and an insertion), and insertions that pushed the
// least-recently-used chunk out.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// CacheCounters are the counters of a codec's two chunk caches. Codecs
// built over one set (NewCodecCounting) add to it together — a host's
// entry enclaves, one per client connection, are read as one — and the
// counts outlive the codecs.
type CacheCounters struct {
	enc, dec cacheCounts
}

type cacheCounts struct {
	hits, misses, evictions atomic.Int64
}

// Stats reports the counts per direction.
func (cc *CacheCounters) Stats() (enc, dec CacheStats) {
	return cc.enc.stats(), cc.dec.stats()
}

func (c *cacheCounts) stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
}

type chunkEntry struct {
	pair       []byte // the key, then the value
	keyLen     int
	prev, next *chunkEntry
}

// key is the entry's key over the entry's own bytes.
func (e *chunkEntry) key() string { return unsafe.String(unsafe.SliceData(e.pair), e.keyLen) }

// bytesOrString is a key or a value the way a caller holds it.
type bytesOrString interface{ ~string | ~[]byte }

// newChunkCache returns a cache of at most max (at least one) entries
// that counts in counts.
func newChunkCache(max int, counts *cacheCounts) *chunkCache {
	return &chunkCache{max: max, m: make(map[string]*chunkEntry, min(max, 256)), counts: counts}
}

// get appends key's value to dst and refreshes its recency.
func (c *chunkCache) get(dst []byte, key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		c.counts.misses.Add(1)
		return dst, false
	}
	c.counts.hits.Add(1)
	c.moveToFront(e)
	return append(dst, e.pair[e.keyLen:]...), true
}

// add inserts key → val into c, copying both. A full cache gives the
// new pair the entry, and the array, of the least-recently-used one.
func add[K, V bytesOrString](c *chunkCache, key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[string(key)]
	switch {
	case ok:
		// The key's bytes stay where m has them; only the value changes.
		e.pair = append(e.pair[:e.keyLen], val...)
		c.moveToFront(e)
		return
	case len(c.m) >= c.max:
		e = c.tail
		c.unlink(e)
		delete(c.m, e.key())
		c.counts.evictions.Add(1)
	default:
		e = new(chunkEntry)
	}
	if cap(e.pair) < len(key)+len(val) {
		e.pair = make([]byte, 0, len(key)+len(val))
	}
	e.pair = append(append(e.pair[:0], key...), val...)
	e.keyLen = len(key)
	c.m[e.key()] = e
	c.pushFront(e)
}

// len reports the current entry count.
func (c *chunkCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *chunkCache) pushFront(e *chunkEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *chunkCache) unlink(e *chunkEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *chunkCache) moveToFront(e *chunkEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
