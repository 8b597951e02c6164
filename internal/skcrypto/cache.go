package skcrypto

import (
	"strings"
	"sync"
	"sync/atomic"
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

// chunkCache is a mutex-guarded LRU map from string to string,
// allocation-free on hits. Entries form a doubly-linked recency list
// (hand-rolled rather than container/list to avoid boxing values).
type chunkCache struct {
	mu         sync.Mutex
	max        int
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
	key, val   string
	prev, next *chunkEntry
}

// newChunkCache returns a cache of at most max (at least one) entries
// that counts in counts.
func newChunkCache(max int, counts *cacheCounts) *chunkCache {
	return &chunkCache{max: max, m: make(map[string]*chunkEntry, min(max, 256)), counts: counts}
}

// get returns the cached value and refreshes its recency.
func (c *chunkCache) get(key string) (string, bool) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		c.counts.misses.Add(1)
		c.mu.Unlock()
		return "", false
	}
	c.counts.hits.Add(1)
	c.moveToFront(e)
	v := e.val
	c.mu.Unlock()
	return v, true
}

// add inserts key → val. A full cache gives the new pair the entry of
// the least-recently-used one, so a cache at capacity — under churn,
// every insertion — allocates the key's clone and nothing else. The key
// is cloned so cache entries never pin a caller's larger backing string
// (lookups pass sub-slices of request paths).
func (c *chunkCache) add(key, val string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		e.val = val
		c.moveToFront(e)
		return
	}
	var e *chunkEntry
	if len(c.m) >= c.max {
		e = c.tail
		c.unlink(e)
		delete(c.m, e.key)
		c.counts.evictions.Add(1)
	} else {
		e = new(chunkEntry)
	}
	e.key, e.val = strings.Clone(key), val
	c.m[e.key] = e
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
