package skcrypto

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"securekeeper/internal/wire"
)

func testCodec(t *testing.T) *Codec {
	t.Helper()
	key := bytes.Repeat([]byte{0x42}, KeySize)
	c, err := NewCodec(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCodecKeySize(t *testing.T) {
	if _, err := NewCodec(make([]byte, 15)); !errors.Is(err, ErrBadKeySize) {
		t.Fatalf("err = %v, want ErrBadKeySize", err)
	}
	if _, err := NewCodec(make([]byte, 32)); !errors.Is(err, ErrBadKeySize) {
		t.Fatalf("err = %v, want ErrBadKeySize", err)
	}
	if _, err := NewCodec(make([]byte, KeySize)); err != nil {
		t.Fatal(err)
	}
}

func TestPathRoundTrip(t *testing.T) {
	c := testCodec(t)
	paths := []string{"/", "/a", "/a/b", "/app/config/database", "/x/y/z/w/v", "/with space/and:colon"}
	for _, p := range paths {
		enc, err := c.EncryptPath(p)
		if err != nil {
			t.Fatalf("EncryptPath(%q): %v", p, err)
		}
		dec, err := c.DecryptPath(enc)
		if err != nil {
			t.Fatalf("DecryptPath(%q): %v", enc, err)
		}
		if dec != p {
			t.Fatalf("round trip %q -> %q", p, dec)
		}
	}
}

func TestPathEncryptionDeterministic(t *testing.T) {
	c := testCodec(t)
	a, err := c.EncryptPath("/app/node")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.EncryptPath("/app/node")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("equal plaintext paths must encrypt identically (deterministic IV)")
	}
}

func TestPathEncryptionPrefixSharing(t *testing.T) {
	c := testCodec(t)
	a, _ := c.EncryptPath("/app/one")
	b, _ := c.EncryptPath("/app/two")
	// First chunk identical (same prefix), final chunks differ.
	ca := strings.Split(a[1:], "/")
	cb := strings.Split(b[1:], "/")
	if ca[0] != cb[0] {
		t.Fatal("shared parent chunk must encrypt identically")
	}
	if ca[1] == cb[1] {
		t.Fatal("distinct leaf chunks must differ")
	}
}

func TestSiblingsWithSameNameDifferentParents(t *testing.T) {
	c := testCodec(t)
	a, _ := c.EncryptPath("/p1/same")
	b, _ := c.EncryptPath("/p2/same")
	ca := strings.Split(a[1:], "/")
	cb := strings.Split(b[1:], "/")
	// Same chunk plaintext under different parents gets different IVs
	// (the IV covers the whole prefix).
	if ca[1] == cb[1] {
		t.Fatal("same name under different parents must encrypt differently")
	}
}

func TestEncryptedPathValidCharacters(t *testing.T) {
	c := testCodec(t)
	enc, err := c.EncryptPath("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	inner := strings.TrimPrefix(enc, "/")
	for _, chunk := range strings.Split(inner, "/") {
		for _, r := range chunk {
			valid := (r >= 'A' && r <= 'Z') || (r >= 'a' && r <= 'z') ||
				(r >= '0' && r <= '9') || r == '-' || r == '_'
			if !valid {
				t.Fatalf("chunk %q contains invalid path character %q", chunk, r)
			}
		}
	}
}

func TestDecryptChunkTamperDetection(t *testing.T) {
	c := testCodec(t)
	enc, _ := c.EncryptPath("/secret")
	chunk := strings.TrimPrefix(enc, "/")
	// Flip a character in the Base64 body.
	tampered := []byte(chunk)
	if tampered[20] == 'A' {
		tampered[20] = 'B'
	} else {
		tampered[20] = 'A'
	}
	if _, err := c.DecryptChunk(string(tampered)); err == nil {
		t.Fatal("tampered chunk must fail authentication")
	}
}

func TestDecryptPathErrors(t *testing.T) {
	c := testCodec(t)
	for _, bad := range []string{"", "relative", "/not-base64-%%%", "/dG9vc2hvcnQ"} {
		if _, err := c.DecryptPath(bad); err == nil {
			t.Errorf("DecryptPath(%q) = nil error", bad)
		}
	}
}

func TestEncryptPathErrors(t *testing.T) {
	c := testCodec(t)
	for _, bad := range []string{"", "relative", "/a//b"} {
		if _, err := c.EncryptPath(bad); err == nil {
			t.Errorf("EncryptPath(%q) = nil error", bad)
		}
	}
}

func TestWrongKeyFailsDecryption(t *testing.T) {
	c1 := testCodec(t)
	c2, err := NewCodec(bytes.Repeat([]byte{0x43}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := c1.EncryptPath("/x")
	if _, err := c2.DecryptPath(enc); err == nil {
		t.Fatal("decryption with wrong key must fail")
	}
}

func TestPayloadRoundTripAndBinding(t *testing.T) {
	c := testCodec(t)
	payload := []byte("db-password=hunter2")
	ct, err := c.EncryptPayload("/creds", payload, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecryptPayload("/creds", ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
	// Binding: the same ciphertext presented for another path fails.
	if _, err := c.DecryptPayload("/other", ct); !errors.Is(err, ErrBinding) {
		t.Fatalf("swap to other path: err = %v, want ErrBinding", err)
	}
}

func TestPayloadSwapAttack(t *testing.T) {
	// The §4.3 attack: swap the payloads of /admin-credentials and
	// /user-credentials in the untrusted store. Decryption must detect
	// the mismatch.
	c := testCodec(t)
	adminCT, _ := c.EncryptPayload("/admin-credentials", []byte("root-pw"), false)
	userCT, _ := c.EncryptPayload("/user-credentials", []byte("user-pw"), false)
	if _, err := c.DecryptPayload("/admin-credentials", userCT); !errors.Is(err, ErrBinding) {
		t.Fatalf("swapped payload accepted: %v", err)
	}
	if _, err := c.DecryptPayload("/user-credentials", adminCT); !errors.Is(err, ErrBinding) {
		t.Fatalf("swapped payload accepted: %v", err)
	}
}

func TestPayloadTamperDetection(t *testing.T) {
	c := testCodec(t)
	ct, _ := c.EncryptPayload("/t", []byte("data"), false)
	ct[len(ct)-1] ^= 0x01
	if _, err := c.DecryptPayload("/t", ct); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("tampered payload: err = %v, want ErrDecrypt", err)
	}
}

func TestPayloadRandomizedIV(t *testing.T) {
	c := testCodec(t)
	a, _ := c.EncryptPayload("/p", []byte("same"), false)
	b, _ := c.EncryptPayload("/p", []byte("same"), false)
	if bytes.Equal(a, b) {
		t.Fatal("payload encryption must use fresh IVs")
	}
}

func TestSequentialPayloadBinding(t *testing.T) {
	c := testCodec(t)
	// The entry enclave binds before the sequence number exists.
	ct, err := c.EncryptPayload("/locks/cand-", []byte("v"), true)
	if err != nil {
		t.Fatal(err)
	}
	// After creation the node's actual path carries the suffix.
	got, err := c.DecryptPayload("/locks/cand-0000000007", ct)
	if err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("sequential binding: %q, %v", got, err)
	}
	// A sequential payload at a path with no sequence suffix is invalid.
	if _, err := c.DecryptPayload("/locks/cand-", ct); !errors.Is(err, ErrBinding) {
		t.Fatalf("non-suffixed path: err = %v", err)
	}
	// And the wrong base path fails even with a suffix.
	if _, err := c.DecryptPayload("/locks/other-0000000007", ct); !errors.Is(err, ErrBinding) {
		t.Fatalf("wrong base: err = %v", err)
	}
}

func TestSequenceHelpers(t *testing.T) {
	p := wire.AppendSequence("/locks/c-", 7)
	if p != "/locks/c-0000000007" {
		t.Fatalf("AppendSequence = %q", p)
	}
	base, ok := StripSequence(p)
	if !ok || base != "/locks/c-" {
		t.Fatalf("StripSequence = %q, %v", base, ok)
	}
	if _, ok := StripSequence("/short"); ok {
		t.Fatal("short path must not strip")
	}
	if _, ok := StripSequence("/ends-in-letters"); ok {
		t.Fatal("non-digit suffix must not strip")
	}
}

func TestAppendSequenceToPath(t *testing.T) {
	c := testCodec(t)
	enc, err := c.EncryptPath("/locks/cand-")
	if err != nil {
		t.Fatal(err)
	}
	newEnc, err := c.AppendSequenceToPath(enc, 42)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.DecryptPath(newEnc)
	if err != nil {
		t.Fatal(err)
	}
	if plain != "/locks/cand-0000000042" {
		t.Fatalf("plain = %q", plain)
	}
	// Parent chunk must be unchanged (the hierarchy is preserved).
	if strings.Split(enc[1:], "/")[0] != strings.Split(newEnc[1:], "/")[0] {
		t.Fatal("parent chunk changed")
	}
	if _, err := c.AppendSequenceToPath("/garbage", 1); err == nil {
		t.Fatal("garbage path must fail")
	}
}

func TestSizeAccounting(t *testing.T) {
	c := testCodec(t)
	ct, _ := c.EncryptPayload("/s", make([]byte, 100), false)
	if len(ct) != EncryptedPayloadLen(100) {
		t.Fatalf("payload len = %d, want %d", len(ct), EncryptedPayloadLen(100))
	}
	enc, _ := c.EncryptPath("/abc")
	if len(enc) != 1+EncryptedChunkLen(3) {
		t.Fatalf("chunk len = %d, want %d", len(enc), 1+EncryptedChunkLen(3))
	}
	if PathOverhead("/") != 0 {
		t.Fatal("root has no overhead")
	}
	if PathOverhead("/a/b") <= PathOverhead("/a") {
		t.Fatal("overhead must grow with depth")
	}
}

// Property: any valid path round-trips.
func TestQuickPathRoundTrip(t *testing.T) {
	c := testCodec(t)
	f := func(segs []string) bool {
		var sb strings.Builder
		n := 0
		for _, s := range segs {
			clean := strings.Map(func(r rune) rune {
				if r == '/' || r == 0 {
					return 'x'
				}
				return r
			}, s)
			if clean == "" || clean == "." || clean == ".." {
				continue
			}
			sb.WriteByte('/')
			sb.WriteString(clean)
			n++
			if n == 6 {
				break
			}
		}
		if n == 0 {
			return true
		}
		path := sb.String()
		enc, err := c.EncryptPath(path)
		if err != nil {
			return false
		}
		dec, err := c.DecryptPath(enc)
		return err == nil && dec == path
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any payload round-trips with correct binding.
func TestQuickPayloadRoundTrip(t *testing.T) {
	c := testCodec(t)
	f := func(payload []byte, seq bool) bool {
		path := "/q/node"
		ct, err := c.EncryptPayload(path, payload, seq)
		if err != nil {
			return false
		}
		check := path
		if seq {
			check = wire.AppendSequence(path, 1)
		}
		got, err := c.DecryptPayload(check, ct)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShortCiphertextRejected(t *testing.T) {
	c := testCodec(t)
	if _, err := c.DecryptPayload("/x", []byte("short")); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("err = %v", err)
	}
}
