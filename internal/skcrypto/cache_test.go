package skcrypto

import (
	"fmt"
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
	cc.add("a", "1")
	cc.add("b", "2")
	if _, ok := cc.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	cc.add("c", "3") // evicts b
	if _, ok := cc.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := cc.get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if cc.len() != 2 {
		t.Fatalf("len = %d, want 2", cc.len())
	}
}

// TestChunkCacheCountsAndRecycles: lookups and evictions are counted per
// direction, and an insertion into a full cache reuses the entry it
// pushes out — it allocates the clone of its key and nothing else.
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
		cc.add(keys[i%len(keys)], "v")
		i++
	}); got != 1 {
		t.Fatalf("insertion into a full cache: %v allocs, want 1 (the key's clone)", got)
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
// while the parent's chunks are served from them.
func TestSequenceChunkNotAdmitted(t *testing.T) {
	c := cacheTestCodec(t, 0x5e)
	ref := cacheTestCodec(t, 0x5e)
	for _, base := range []string{"/app/locks/lock-", "/lock-"} {
		enc, err := c.EncryptPath(base)
		if err != nil {
			t.Fatal(err)
		}
		encLen, decLen := c.ChunkCacheLen()
		hits, _ := c.CacheStats()
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
		if after, _ := c.CacheStats(); base != "/lock-" && after.Hits == hits.Hits {
			t.Fatalf("%s: the parent's chunks were not served from the cache", base)
		}
	}
}
