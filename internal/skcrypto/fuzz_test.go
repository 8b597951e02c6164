package skcrypto

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"securekeeper/internal/wire"
)

// fuzzCodec builds a codec from fuzz-provided key material, padding or
// folding arbitrary bytes down to a valid key.
func fuzzCodec(t testing.TB, keySeed []byte) *Codec {
	t.Helper()
	key := make([]byte, KeySize)
	for i, b := range keySeed {
		key[i%KeySize] ^= b
	}
	c, err := NewCodec(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sanitizePath folds arbitrary fuzz input into a structurally valid
// absolute path (the codec rejects invalid ones up front; the fuzz
// target here is the crypto round-trip, not the validator).
func sanitizePath(raw string) string {
	var sb strings.Builder
	sb.WriteByte('/')
	prevSlash := true
	for _, r := range raw {
		if r == '/' {
			if !prevSlash {
				sb.WriteByte('/')
				prevSlash = true
			}
			continue
		}
		sb.WriteRune(r)
		prevSlash = false
	}
	s := sb.String()
	if s == "/" {
		return "/fuzz"
	}
	return strings.TrimSuffix(s, "/")
}

// FuzzPathRoundTrip: DecryptPath(EncryptPath(p)) == p must hold for any
// path under any key, through the chunk caches (each input is encrypted
// twice so the second pass exercises cache hits).
func FuzzPathRoundTrip(f *testing.F) {
	f.Add([]byte{1}, "/app/config/database")
	f.Add([]byte{2}, "/a")
	f.Add([]byte{3}, "/deep/ly/nes/ted/pa/th/with/many/chunks/beyond/the/inline/array/a/b/c/d/e")
	f.Add([]byte{4}, "/unicode/znode-é世界")
	f.Add([]byte{0xff}, "//weird//input//")
	f.Fuzz(func(t *testing.T, keySeed []byte, rawPath string) {
		c := fuzzCodec(t, keySeed)
		path := sanitizePath(rawPath)
		enc1, err := c.EncryptPath(path)
		if err != nil {
			t.Fatalf("EncryptPath(%q): %v", path, err)
		}
		enc2, err := c.EncryptPath(path) // cache-hit pass
		if err != nil {
			t.Fatalf("cached EncryptPath(%q): %v", path, err)
		}
		if enc1 != enc2 {
			t.Fatalf("EncryptPath(%q) not deterministic:\n  %q\n  %q", path, enc1, enc2)
		}
		got, err := c.DecryptPath(enc1)
		if err != nil {
			t.Fatalf("DecryptPath(EncryptPath(%q)): %v", path, err)
		}
		if got != path {
			t.Fatalf("round trip %q -> %q", path, got)
		}
	})
}

// FuzzPayloadRoundTrip: payload round-trip, binding rejection for a
// different path, and in-place/copying decryption agreement must all
// survive the buffer-reuse rewrite.
func FuzzPayloadRoundTrip(f *testing.F) {
	f.Add([]byte{1}, "/creds", []byte("hunter2"), false)
	f.Add([]byte{1}, "/locks/cand-", []byte{}, true)
	f.Add([]byte{9}, "/big", bytes.Repeat([]byte{0xa5}, 4096), false)
	f.Add([]byte{0}, "/nil", []byte(nil), false)
	f.Fuzz(func(t *testing.T, keySeed []byte, rawPath string, payload []byte, sequential bool) {
		c := fuzzCodec(t, keySeed)
		path := sanitizePath(rawPath)
		ct, err := c.EncryptPayload(path, payload, sequential)
		if err != nil {
			t.Fatal(err)
		}
		if len(ct) != EncryptedPayloadLen(len(payload)) {
			t.Fatalf("ciphertext %d bytes, want %d", len(ct), EncryptedPayloadLen(len(payload)))
		}
		readPath := path
		if sequential {
			readPath = wire.AppendSequence(path, 42)
		}
		got, err := c.DecryptPayload(readPath, ct)
		if err != nil {
			t.Fatalf("DecryptPayload(%q): %v", readPath, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip %d bytes -> %d bytes", len(payload), len(got))
		}
		// Binding: the same ciphertext addressed by a different path
		// must be rejected, never decrypted.
		other := path + "/sibling"
		if sequential {
			other = wire.AppendSequence(path+"x", 42)
		}
		if _, err := c.DecryptPayload(other, ct); !errors.Is(err, ErrBinding) {
			t.Fatalf("payload for %q accepted at %q: %v", path, other, err)
		}
		// The destructive variant must agree with the copying one; run
		// it last on a private copy-of-ct's clone semantics (it may
		// scribble over its input).
		ctClone := append([]byte(nil), ct...)
		inPlace, err := c.DecryptPayloadInPlace(readPath, ctClone)
		if err != nil {
			t.Fatalf("DecryptPayloadInPlace: %v", err)
		}
		if !bytes.Equal(inPlace, payload) {
			t.Fatal("in-place decryption disagrees with copying decryption")
		}
	})
}

// FuzzDecryptPayloadAdversarial: arbitrary ciphertext must never panic
// and must only ever yield ErrDecrypt/ErrShortPayload/ErrBinding.
func FuzzDecryptPayloadAdversarial(f *testing.F) {
	f.Add([]byte{1}, "/x", []byte("short"))
	f.Add([]byte{1}, "/x", bytes.Repeat([]byte{0}, PayloadOverhead))
	f.Add([]byte{1}, "/x", bytes.Repeat([]byte{0x41}, PayloadOverhead+100))
	f.Fuzz(func(t *testing.T, keySeed []byte, rawPath string, ct []byte) {
		c := fuzzCodec(t, keySeed)
		path := sanitizePath(rawPath)
		if _, err := c.DecryptPayload(path, ct); err == nil {
			t.Fatalf("forged %d-byte ciphertext accepted", len(ct))
		}
	})
}
