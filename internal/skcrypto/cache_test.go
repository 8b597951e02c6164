package skcrypto

import (
	"bytes"
	"container/list"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func cacheTestCodec(t testing.TB, keyByte byte) *Codec {
	t.Helper()
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = keyByte
	}
	c, err := NewCodec(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChunkCacheHitDeterminism: encrypting the same path twice must hit
// the cache and produce byte-identical ciphertext — the determinism the
// untrusted tree relies on for ciphertext addressing (§4.3).
func TestChunkCacheHitDeterminism(t *testing.T) {
	c := cacheTestCodec(t, 1)
	first, err := c.EncryptPath("/app/config/database")
	if err != nil {
		t.Fatal(err)
	}
	encN, decN := c.ChunkCacheLen()
	if encN != 3 {
		t.Fatalf("enc cache holds %d entries after one 3-chunk path, want 3", encN)
	}
	if decN != 3 {
		t.Fatalf("dec cache holds %d entries (encrypting also primes decryption), want 3", decN)
	}
	second, err := c.EncryptPath("/app/config/database")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("cached re-encryption diverged:\n  %q\n  %q", first, second)
	}
	if encN2, _ := c.ChunkCacheLen(); encN2 != encN {
		t.Fatalf("cache grew on a pure hit: %d -> %d", encN, encN2)
	}
	// The cached ciphertext must round-trip.
	plain, err := c.DecryptPath(second)
	if err != nil {
		t.Fatal(err)
	}
	if plain != "/app/config/database" {
		t.Fatalf("round trip = %q", plain)
	}
}

// TestChunkCacheSharedPrefix: sibling paths share their parent chunks'
// cache entries and their encrypted parents are identical, preserving
// the hierarchy property under caching.
func TestChunkCacheSharedPrefix(t *testing.T) {
	c := cacheTestCodec(t, 1)
	a, err := c.EncryptPath("/svc/a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.EncryptPath("/svc/b")
	if err != nil {
		t.Fatal(err)
	}
	splitAt := func(s string) string {
		for i := 1; i < len(s); i++ {
			if s[i] == '/' {
				return s[:i]
			}
		}
		t.Fatalf("no second chunk in %q", s)
		return ""
	}
	if splitAt(a) != splitAt(b) {
		t.Fatalf("siblings disagree on encrypted parent:\n  %q\n  %q", a, b)
	}
	if encN, _ := c.ChunkCacheLen(); encN != 3 {
		t.Fatalf("enc cache = %d entries for {/svc, /svc/a, /svc/b}, want 3", encN)
	}
}

// TestChunkCacheNewKeyInvalidation: a codec built from a different key
// (the provisioning flow builds a fresh Codec per installed key) shares
// nothing with the old one — same path, different ciphertext, and the
// old codec's cache cannot leak into the new key's decryptions.
func TestChunkCacheNewKeyInvalidation(t *testing.T) {
	oldCodec := cacheTestCodec(t, 1)
	encOld, err := oldCodec.EncryptPath("/secret/node")
	if err != nil {
		t.Fatal(err)
	}
	newCodec := cacheTestCodec(t, 2)
	encNew, err := newCodec.EncryptPath("/secret/node")
	if err != nil {
		t.Fatal(err)
	}
	if encOld == encNew {
		t.Fatal("different keys produced identical path ciphertext")
	}
	if encN, decN := newCodec.ChunkCacheLen(); encN != 2 || decN != 2 {
		t.Fatalf("new codec inherited cache state: enc=%d dec=%d", encN, decN)
	}
	// Old-key ciphertext must fail authentication under the new key,
	// not be served from any cache.
	if _, err := newCodec.DecryptPath(encOld); err == nil {
		t.Fatal("new codec decrypted old-key ciphertext")
	}
}

// TestChunkCacheBoundedUnderChurn: 10k distinct paths must not grow the
// caches past their bound.
func TestChunkCacheBoundedUnderChurn(t *testing.T) {
	c := cacheTestCodec(t, 1)
	for i := 0; i < 10000; i++ {
		p := fmt.Sprintf("/churn/node-%05d", i)
		enc, err := c.EncryptPath(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.DecryptPath(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got != p {
			t.Fatalf("round trip %q = %q", p, got)
		}
	}
	encN, decN := c.ChunkCacheLen()
	if encN > DefaultChunkCacheSize {
		t.Fatalf("enc cache grew to %d, bound %d", encN, DefaultChunkCacheSize)
	}
	if decN > DefaultChunkCacheSize {
		t.Fatalf("dec cache grew to %d, bound %d", decN, DefaultChunkCacheSize)
	}
	// Eviction must not corrupt correctness: an evicted path simply
	// re-encrypts to the same deterministic bytes.
	first, err := c.EncryptPath("/churn/node-00000")
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.EncryptPath("/churn/node-00000")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("determinism lost across eviction")
	}
}

// TestChunkCacheLRUOrder: the least-recently-used entry is the one
// evicted.
func TestChunkCacheLRUOrder(t *testing.T) {
	cc := newChunkCache(2, new(cacheCounts))
	add(cc, "a", "1")
	add(cc, "b", "2")
	if _, ok := cc.get(nil, "a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	add(cc, "c", "3") // evicts b
	if _, ok := cc.get(nil, "b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := cc.get(nil, k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if cc.len() != 2 {
		t.Fatalf("len = %d, want 2", cc.len())
	}
}

// TestChunkCacheCountsAndRecycles: lookups and evictions are counted per
// direction, and an insertion into a full cache reuses the entry it
// pushes out and that entry's array: it allocates nothing.
func TestChunkCacheCountsAndRecycles(t *testing.T) {
	c := cacheTestCodec(t, 1)
	c.enc, c.dec = newChunkCache(4, &c.counters.enc), newChunkCache(4, &c.counters.dec)
	for i := 0; i < 6; i++ { // one chunk each: six misses, two evictions per direction
		if _, err := c.EncryptPath(fmt.Sprintf("/n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.EncryptPath("/n5"); err != nil { // still cached
		t.Fatal(err)
	}
	if _, err := c.DecryptChunk("not-a-chunk"); err == nil { // a miss that inserts nothing
		t.Fatal("garbage chunk decrypted")
	}
	enc, dec := c.CacheStats()
	if want := (CacheStats{Hits: 1, Misses: 6, Evictions: 2}); enc != want {
		t.Fatalf("enc direction: %+v, want %+v", enc, want)
	}
	if want := (CacheStats{Hits: 0, Misses: 1, Evictions: 2}); dec != want {
		t.Fatalf("dec direction: %+v, want %+v", dec, want)
	}

	cc := newChunkCache(2, new(cacheCounts))
	keys := []string{"/churn/a", "/churn/b", "/churn/c"}
	i := 0
	if got := testing.AllocsPerRun(100, func() {
		add(cc, keys[i%len(keys)], "v")
		i++
	}); got != 0 {
		t.Fatalf("insertion into a full cache: %v allocs, want 0", got)
	}
}

// TestDecryptChunkCachePoisoningRejected: a tampered chunk must fail
// authentication and must not enter the decrypt cache.
func TestDecryptChunkCachePoisoningRejected(t *testing.T) {
	c := cacheTestCodec(t, 1)
	enc, err := c.EncryptPath("/x")
	if err != nil {
		t.Fatal(err)
	}
	chunk := enc[1:]
	// Swap one leading character (IV bytes) for a different valid
	// Base64 character, guaranteeing a decode-clean but tampered chunk.
	tampered := []byte(chunk)
	if tampered[0] != 'A' {
		tampered[0] = 'A'
	} else {
		tampered[0] = 'B'
	}
	_, decBefore := c.ChunkCacheLen()
	if _, err := c.DecryptChunk(string(tampered)); err == nil {
		t.Fatal("tampered chunk decrypted")
	}
	if _, decAfter := c.ChunkCacheLen(); decAfter != decBefore {
		t.Fatal("failed decryption entered the cache")
	}
}

// TestSequenceChunkNotAdmitted: the counter enclave's merged path is the
// ciphertext EncryptPath gives for the suffixed path, and the final
// chunk it mints stays out of both caches — nothing looks it up again —
// while the chunks of the name it was given are decrypted from them.
func TestSequenceChunkNotAdmitted(t *testing.T) {
	c := cacheTestCodec(t, 0x5e)
	ref := cacheTestCodec(t, 0x5e)
	for _, base := range []string{"/app/locks/lock-", "/lock-"} {
		enc, err := c.EncryptPath(base)
		if err != nil {
			t.Fatal(err)
		}
		encLen, decLen := c.ChunkCacheLen()
		_, hits := c.CacheStats()
		for seq := int32(0); seq < 50; seq++ {
			got, err := c.AppendSequenceToPath(enc, seq)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.EncryptPath(fmt.Sprintf("%s%010d", base, seq))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s seq %d: merged path %q, want %q", base, seq, got, want)
			}
		}
		if e, d := c.ChunkCacheLen(); e != encLen || d != decLen {
			t.Fatalf("%s: caches grew from (%d, %d) to (%d, %d) entries: minted chunks were admitted", base, encLen, decLen, e, d)
		}
		if _, after := c.CacheStats(); after.Hits-hits.Hits != 50*int64(strings.Count(base, "/")) {
			t.Fatalf("%s: %d of its chunks decrypted from the cache in 50 names, want all", base, after.Hits-hits.Hits)
		}
	}
}

// TestChunkCacheLookupOutlivesEviction: the bytes a lookup appended are
// the caller's. The entry they came from is evicted and its array
// reused for a pair longer and shorter than it, and they do not change.
func TestChunkCacheLookupOutlivesEviction(t *testing.T) {
	cc := newChunkCache(1, new(cacheCounts))
	add(cc, "/a", []byte("first value"))
	got, ok := cc.get([]byte("dst:"), "/a")
	if !ok {
		t.Fatal("/a missing")
	}
	for _, pair := range [][2]string{{"/b", "x"}, {"/c", "a much longer value than the first"}, {"/a", "other"}} {
		add(cc, pair[0], pair[1])
		if string(got) != "dst:first value" {
			t.Fatalf("after %q took the entry's array, the lookup's bytes read %q", pair[0], got)
		}
	}
}

// refCache is the chunk cache as it was before its entries owned their
// bytes — a map of strings and a recency list — and the model
// FuzzChunkCache holds the cache to.
type refCache struct {
	max     int
	m       map[string]*list.Element // of *[2]string{key, value}
	recency *list.List               // front = most recent
	stats   CacheStats
}

func newRefCache(max int) *refCache {
	return &refCache{max: max, m: map[string]*list.Element{}, recency: list.New()}
}

func (r *refCache) get(key string) (string, bool) {
	el, ok := r.m[key]
	if !ok {
		r.stats.Misses++
		return "", false
	}
	r.stats.Hits++
	r.recency.MoveToFront(el)
	return el.Value.(*[2]string)[1], true
}

func (r *refCache) add(key, val string) {
	if el, ok := r.m[key]; ok {
		el.Value.(*[2]string)[1] = val
		r.recency.MoveToFront(el)
		return
	}
	if len(r.m) >= r.max {
		oldest := r.recency.Back()
		r.recency.Remove(oldest)
		delete(r.m, oldest.Value.(*[2]string)[0])
		r.stats.Evictions++
	}
	r.m[key] = r.recency.PushFront(&[2]string{key, val})
}

// FuzzChunkCache drives the chunk cache and the reference model with
// one sequence of lookups and insertions and compares them after every
// step: the bytes a lookup appends, the entry count, and the hits,
// misses and evictions. Keys and values have fuzzed lengths (up to
// 300 bytes, against a few-byte first pair), so recycled arrays are
// both too short and long enough; the caller's key and value buffers
// are overwritten after every insertion.
func FuzzChunkCache(f *testing.F) {
	f.Add(uint8(1), []byte{0, 1, 2, 3, 1, 5, 8, 2, 1, 9, 0, 1, 2, 3})
	f.Add(uint8(3), []byte("insert, look up, evict and insert again: a longer value every time"))
	f.Add(uint8(0), bytes.Repeat([]byte{0xff, 0x10, 0x00, 0x81, 0x7f}, 20))
	stream := make([]byte, 8000)
	rand.New(rand.NewSource(39)).Read(stream)
	f.Add(uint8(5), stream)
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		max := 1 + int(size%8)
		counts := new(cacheCounts)
		cc, ref := newChunkCache(max, counts), newRefCache(max)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		// sized is n bytes of b: n is 0 to 39, or 40 to 300 when the
		// length byte's top bit is set.
		sized := func(b, lenByte byte) []byte {
			n := int(lenByte % 40)
			if lenByte&0x80 != 0 {
				n = 40 + int(lenByte)*260/255
			}
			return bytes.Repeat([]byte{b}, n)
		}
		for step := 0; len(ops) > 0; step++ {
			op, id := next(), next()
			key := sized('a'+id%12, id*7) // twelve keys, each one length
			switch op % 3 {
			case 0:
				dst := []byte("dst")
				got, ok := cc.get(dst, string(key))
				want, wantOK := ref.get(string(key))
				if ok != wantOK || string(got) != "dst"+want {
					t.Fatalf("step %d: get %q = %q, %v; the model has %q, %v", step, key, got, ok, want, wantOK)
				}
			case 1:
				val := sized(next(), next())
				add(cc, string(key), val)
				ref.add(string(key), string(val))
				clear(val)
			case 2:
				val := string(sized(next(), next()))
				add(cc, key, val)
				ref.add(string(key), val)
				clear(key)
			}
			if n := cc.len(); n != len(ref.m) {
				t.Fatalf("step %d: %d entries, the model %d", step, n, len(ref.m))
			}
			if got := counts.stats(); got != ref.stats {
				t.Fatalf("step %d: counts %+v, the model %+v", step, got, ref.stats)
			}
		}
	})
}
