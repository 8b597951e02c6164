// Package skcrypto implements SecureKeeper's storage cryptography
// (§4.3, §5.2): AES-GCM-128 encryption of znode payloads and path
// names so that the untrusted replica only ever handles ciphertext.
//
// Paths are encrypted chunk-by-chunk (split at '/') so the znode
// hierarchy — and with it the getChildren operation — keeps working on
// ciphertext. Each chunk's IV is the SHA-256 hash of the plaintext path
// prefix up to and including the chunk, making encryption deterministic
// (equal paths encrypt equal, so the untrusted tree can address nodes
// by ciphertext) while never reusing an IV across distinct paths. The
// IV and the GCM authentication tag travel with the chunk, Base64url-
// encoded to stay clear of '/' and other characters illegal in paths.
// The determinism also makes path chunks cacheable: the codec keeps a
// bounded LRU of encrypted and decrypted chunks, so the steady-state
// request path performs no AES or SHA-256 work for known paths.
//
// Payloads are bound to their path by appending the SHA-256 hash of the
// plaintext path (plus a sequential-node marker byte) before
// encryption; on decryption the entry enclave verifies the binding so
// an attacker cannot swap the payloads of two znodes (§4.3).
package skcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"securekeeper/internal/wire"
)

// KeySize is the AES-GCM-128 key length used for storage encryption.
const KeySize = 16

// Layout constants.
const (
	ivSize   = 12 // GCM nonce
	tagSize  = 16 // GCM authentication tag (the paper's "HMAC")
	hashSize = sha256.Size
	// seqFlag sizes the sequential-node marker appended to payloads.
	seqFlagSize = 1
	// PayloadOverhead is the ciphertext expansion of a payload:
	// IV + binding hash + flag byte + GCM tag.
	PayloadOverhead = ivSize + hashSize + seqFlagSize + tagSize
	// SeqDigits is the width of the sequence suffix ZooKeeper appends
	// to sequential node names.
	SeqDigits = wire.SeqDigits
)

// Codec errors.
var (
	ErrBadKeySize    = errors.New("skcrypto: key must be 16 bytes")
	ErrDecrypt       = errors.New("skcrypto: decryption failed (tampered or wrong key)")
	ErrBinding       = errors.New("skcrypto: payload is not bound to this path")
	ErrMalformedPath = errors.New("skcrypto: malformed encrypted path")
	ErrShortPayload  = errors.New("skcrypto: ciphertext too short")
)

var b64 = base64.RawURLEncoding

// AAD labels separating the path and payload domains.
var (
	pathAAD    = []byte("path")
	payloadAAD = []byte("payload")
)

// Codec performs storage encryption with the shared enclave key. The
// chunk caches are per-codec: installing a new key builds a new Codec,
// which discards all cached ciphertext derived from the old key.
type Codec struct {
	aead cipher.AEAD
	// enc maps a plaintext path prefix (up to and including a chunk,
	// which together with the key fully determines the ciphertext) to
	// the encoded encrypted chunk; dec maps the encoded chunk back.
	enc *chunkCache
	dec *chunkCache
	// counters are what the two caches count in.
	counters *CacheCounters
}

// NewCodec builds a codec from the 16-byte storage key.
func NewCodec(key []byte) (*Codec, error) {
	return NewCodecCounting(key, new(CacheCounters))
}

// NewCodecCounting is NewCodec with chunk caches that count in
// counters, which other codecs may share.
func NewCodecCounting(key []byte, counters *CacheCounters) (*Codec, error) {
	if len(key) != KeySize {
		return nil, ErrBadKeySize
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("skcrypto: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("skcrypto: gcm: %w", err)
	}
	return &Codec{
		aead:     aead,
		enc:      newChunkCache(DefaultChunkCacheSize, &counters.enc),
		dec:      newChunkCache(DefaultChunkCacheSize, &counters.dec),
		counters: counters,
	}, nil
}

// ChunkCacheLen reports the entry counts of the encrypt- and
// decrypt-direction chunk caches (observability and tests).
func (c *Codec) ChunkCacheLen() (enc, dec int) {
	return c.enc.len(), c.dec.len()
}

// CacheStats reports the counters of the encrypt- and decrypt-direction
// chunk caches: how often path crypto was saved, and how much of what
// the caches hold is pushed out again before anyone asks for it.
func (c *Codec) CacheStats() (enc, dec CacheStats) {
	return c.counters.Stats()
}

// hashScratch pools the small buffers used to assemble domain-separated
// hash inputs ("skpath:"+prefix, "skbind:"+path) without string
// concatenation garbage.
var hashScratch = sync.Pool{
	New: func() any { return &scratchBuf{b: make([]byte, 0, 160)} },
}

type scratchBuf struct{ b []byte }

const maxPooledScratch = 4096

func putScratch(s *scratchBuf) {
	if cap(s.b) <= maxPooledScratch {
		hashScratch.Put(s)
	}
}

// --- path encryption ---

// chunkIV derives the deterministic IV for a chunk from the plaintext
// path prefix up to and including the chunk (§4.3: the chunk's own
// plaintext must participate, otherwise all children of one parent
// would share an IV).
func chunkIV[T bytesOrString](dst *[ivSize]byte, prefix T) {
	s := hashScratch.Get().(*scratchBuf)
	s.b = append(s.b[:0], "skpath:"...)
	s.b = append(s.b, prefix...)
	sum := sha256.Sum256(s.b)
	putScratch(s)
	copy(dst[:], sum[:ivSize])
}

// encryptChunk encrypts one path element with the IV for prefix and
// appends its Base64url encoding to dst.
func encryptChunk[T bytesOrString](c *Codec, dst []byte, prefix, chunk T) []byte {
	var iv [ivSize]byte
	chunkIV(&iv, prefix)
	s := hashScratch.Get().(*scratchBuf)
	s.b = append(s.b[:0], iv[:]...)
	s.b = append(s.b, chunk...)
	nonce := s.b[:ivSize]
	raw := c.aead.Seal(nonce, nonce, s.b[ivSize:ivSize+len(chunk)], pathAAD)
	dst = b64.AppendEncode(dst, raw)
	putScratch(s)
	return dst
}

// AppendDecryptedChunk appends the decryption of a single encrypted
// path element to dst (used for the children names returned by LS,
// where the request gives no prefix IV — which is why the IV is
// appended to every chunk, §4.3). Successful
// decryptions are cached: GCM authentication guarantees byte-identical
// chunks decrypt identically under one key.
func (c *Codec) AppendDecryptedChunk(dst []byte, enc string) ([]byte, error) {
	if out, ok := c.dec.get(dst, enc); ok {
		return out, nil
	}
	if b64.DecodedLen(len(enc)) < ivSize+tagSize {
		return dst, ErrMalformedPath
	}
	s := hashScratch.Get().(*scratchBuf)
	defer putScratch(s)
	// The chunk is decoded from the scratch's copy of it, to behind it.
	s.b = append(s.b[:0], enc...)
	var err error
	if s.b, err = b64.AppendDecode(s.b, s.b[:len(enc)]); err != nil {
		return dst, fmt.Errorf("%w: %v", ErrMalformedPath, err)
	}
	raw := s.b[len(enc):]
	if len(raw) < ivSize+tagSize {
		return dst, ErrMalformedPath
	}
	plain, err := c.aead.Open(raw[ivSize:ivSize], raw[:ivSize], raw[ivSize:], pathAAD)
	if err != nil {
		return dst, ErrDecrypt
	}
	add(c.dec, enc, plain)
	return append(dst, plain...), nil
}

// appendEncryptedChunk appends the encrypted chunk for the prefix ending
// in chunk to dst, consulting both cache directions.
func (c *Codec) appendEncryptedChunk(dst []byte, prefix, chunk string) []byte {
	if out, ok := c.enc.get(dst, prefix); ok {
		return out
	}
	start := len(dst)
	dst = encryptChunk(c, dst, prefix, chunk)
	add(c.enc, prefix, dst[start:])
	add(c.dec, dst[start:], chunk)
	return dst
}

// pathScratch sizes the stack buffer EncryptPath and DecryptPath
// assemble their result in; longer paths grow onto the heap.
const pathScratch = 256

// EncryptPath encrypts every element of an absolute plaintext path,
// preserving the hierarchy. EncryptPath("/") returns "/". Cached chunks
// make re-encryption of known paths allocation-free except for the
// result string itself.
func (c *Codec) EncryptPath(plain string) (string, error) {
	var scratch [pathScratch]byte
	enc, err := c.AppendEncryptedPath(scratch[:0], plain)
	if err != nil {
		return "", err
	}
	return string(enc), nil
}

// AppendEncryptedPath appends EncryptPath(plain) to dst, for a caller
// that already owns the memory the ciphertext path goes to (the entry
// enclave rewriting a message inside its ecall slot).
func (c *Codec) AppendEncryptedPath(dst []byte, plain string) ([]byte, error) {
	if plain == "" || plain[0] != '/' {
		return dst, fmt.Errorf("%w: %q is not absolute", ErrMalformedPath, plain)
	}
	if plain == "/" {
		return append(dst, '/'), nil
	}
	for start := 1; start <= len(plain); {
		end := strings.IndexByte(plain[start:], '/')
		if end < 0 {
			end = len(plain)
		} else {
			end += start
		}
		if end == start {
			return dst, fmt.Errorf("%w: empty element in %q", ErrMalformedPath, plain)
		}
		// The prefix is a sub-slice of the input — no per-chunk string
		// concatenation; the cache copies what it keeps.
		dst = c.appendEncryptedChunk(append(dst, '/'), plain[:end], plain[start:end])
		start = end + 1
	}
	return dst, nil
}

// DecryptPath reverses EncryptPath.
func (c *Codec) DecryptPath(enc string) (string, error) {
	var scratch [pathScratch]byte
	plain, err := c.AppendDecryptedPath(scratch[:0], enc)
	if err != nil {
		return "", err
	}
	return string(plain), nil
}

// AppendDecryptedPath appends DecryptPath(enc) to dst. The plaintext is
// never longer than enc.
func (c *Codec) AppendDecryptedPath(dst []byte, enc string) ([]byte, error) {
	if enc == "" || enc[0] != '/' {
		return dst, fmt.Errorf("%w: %q is not absolute", ErrMalformedPath, enc)
	}
	if enc == "/" {
		return append(dst, '/'), nil
	}
	for start := 1; start <= len(enc); {
		end := strings.IndexByte(enc[start:], '/')
		if end < 0 {
			end = len(enc)
		} else {
			end += start
		}
		var err error
		if dst, err = c.AppendDecryptedChunk(append(dst, '/'), enc[start:end]); err != nil {
			return dst, err
		}
		start = end + 1
	}
	return dst, nil
}

// AppendSequencedPath implements the counter enclave's data processing
// (§4.4): it decrypts the encrypted path, appends the ZooKeeper-formatted
// sequence number to its final element, re-encrypts that element (its
// new name changes its IV, and only the enclave can compute it), and
// appends the result to dst. The parent's chunks are appended as they are — a parent's ciphertext
// does not depend on its children — and the final element is the only
// one encrypted. encPath is read in full before dst is written, so dst
// may be the memory encPath lies in, its end at or before encPath's
// start (the counter enclave rewriting a name inside its slot).
//
// Every chunk is decrypted through the cache like any path's, but the
// final one is encrypted past it: its name is minted once, with this
// number, the codec never looks it up again, and admitting it would
// only push out chunks it does look up.
func (c *Codec) AppendSequencedPath(dst []byte, encPath string, seq int32) ([]byte, error) {
	var scratch [pathScratch]byte
	plain, err := c.AppendDecryptedPath(scratch[:0], encPath)
	if err != nil {
		return dst, err
	}
	plain = appendSequence(plain, seq)
	dst = append(dst, encPath[:strings.LastIndexByte(encPath, '/')+1]...)
	return encryptChunk(c, dst, plain, plain[bytes.LastIndexByte(plain, '/')+1:]), nil
}

// appendSequence appends seq to dst as wire.AppendSequence formats it:
// SeqDigits characters, zero-padded after the sign.
func appendSequence(dst []byte, seq int32) []byte {
	var buf [SeqDigits + 1]byte
	digits := strconv.AppendInt(buf[:0], int64(seq), 10)
	pad := SeqDigits - len(digits)
	if seq < 0 {
		dst, digits = append(dst, '-'), digits[1:]
	}
	for ; pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// StripSequence removes a trailing sequence suffix from a plaintext
// path if present, returning the base path and whether one was found.
func StripSequence(plain string) (string, bool) {
	if len(plain) < SeqDigits {
		return plain, false
	}
	suffix := plain[len(plain)-SeqDigits:]
	for i := 0; i < SeqDigits; i++ {
		if suffix[i] < '0' || suffix[i] > '9' {
			return plain, false
		}
	}
	return plain[:len(plain)-SeqDigits], true
}

// --- payload encryption ---

// pathBindingHash writes the hash binding a payload to its plaintext
// path into dst.
func pathBindingHash(dst *[hashSize]byte, plainPath string) {
	s := hashScratch.Get().(*scratchBuf)
	s.b = append(s.b[:0], "skbind:"...)
	s.b = append(s.b, plainPath...)
	*dst = sha256.Sum256(s.b)
	putScratch(s)
}

// EncryptPayload encrypts payload bound to plainPath. For sequential
// nodes the binding hash covers the path *without* the sequence number
// (the entry enclave encrypts before the counter enclave appends it,
// §4.4), and the marker byte records that choice for verification.
// The ciphertext is a single exactly-sized allocation.
func (c *Codec) EncryptPayload(plainPath string, payload []byte, sequential bool) ([]byte, error) {
	return c.EncryptPayloadInto(make([]byte, EncryptedPayloadLen(len(payload))), plainPath, payload, sequential)
}

// EncryptPayloadInto is EncryptPayload for a caller that owns the
// memory the ciphertext goes to: dst, EncryptedPayloadLen(len(payload))
// bytes. dst may overlap payload — the payload is first moved to where
// it is sealed in place, which destroys it. The mirror image of
// DecryptPayloadInPlace.
func (c *Codec) EncryptPayloadInto(dst []byte, plainPath string, payload []byte, sequential bool) ([]byte, error) {
	if len(dst) != EncryptedPayloadLen(len(payload)) {
		return nil, ErrShortPayload
	}
	inner := dst[ivSize : len(dst)-tagSize]
	copy(inner, payload)
	iv := dst[:ivSize]
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("skcrypto: payload iv: %w", err)
	}
	var bind [hashSize]byte
	pathBindingHash(&bind, plainPath)
	copy(inner[len(payload):], bind[:])
	if sequential {
		inner[len(inner)-1] = 1
	} else {
		inner[len(inner)-1] = 0
	}
	// In-place seal: dst inner[:0] reuses the plaintext's storage, and
	// dst's last tagSize bytes take the GCM tag.
	c.aead.Seal(inner[:0], iv, inner, payloadAAD)
	return dst, nil
}

// DecryptPayload decrypts a stored payload and verifies its binding to
// actualPath (the plaintext path the client addressed). For payloads
// whose sequential marker is set, the sequence suffix is stripped from
// actualPath before comparing binding hashes. ct is left untouched; the
// plaintext is an exactly-sized fresh allocation.
func (c *Codec) DecryptPayload(actualPath string, ct []byte) ([]byte, error) {
	if len(ct) < PayloadOverhead {
		return nil, ErrShortPayload
	}
	dst := make([]byte, 0, len(ct)-ivSize-tagSize)
	return c.decryptPayload(actualPath, ct, dst)
}

// DecryptPayloadInPlace is DecryptPayload reusing ct's own storage for
// the plaintext: zero-allocation, but it destroys ct. Only callers that
// own ct as scratch (the entry enclave decrypting inside its ecall
// buffer) may use it.
func (c *Codec) DecryptPayloadInPlace(actualPath string, ct []byte) ([]byte, error) {
	if len(ct) < PayloadOverhead {
		return nil, ErrShortPayload
	}
	return c.decryptPayload(actualPath, ct, ct[ivSize:ivSize])
}

func (c *Codec) decryptPayload(actualPath string, ct, dst []byte) ([]byte, error) {
	inner, err := c.aead.Open(dst, ct[:ivSize], ct[ivSize:], payloadAAD)
	if err != nil {
		return nil, ErrDecrypt
	}
	if len(inner) < hashSize+seqFlagSize {
		return nil, ErrShortPayload
	}
	payload := inner[:len(inner)-hashSize-seqFlagSize]
	boundHash := inner[len(inner)-hashSize-seqFlagSize : len(inner)-seqFlagSize]
	sequential := inner[len(inner)-1] == 1

	checkPath := actualPath
	if sequential {
		base, ok := StripSequence(actualPath)
		if !ok {
			return nil, fmt.Errorf("%w: sequential payload at non-sequential path %q", ErrBinding, actualPath)
		}
		checkPath = base
	}
	var want [hashSize]byte
	pathBindingHash(&want, checkPath)
	if !hashEqual(want[:], boundHash) {
		return nil, ErrBinding
	}
	return payload, nil
}

func hashEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var diff byte
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return diff == 0
}

// --- size accounting (Table 2) ---

// EncryptedChunkLen returns the Base64-encoded length of an encrypted
// path element with the given plaintext length.
func EncryptedChunkLen(plainLen int) int {
	return b64.EncodedLen(ivSize + plainLen + tagSize)
}

// EncryptedPayloadLen returns the stored length of an encrypted payload.
func EncryptedPayloadLen(plainLen int) int {
	return plainLen + PayloadOverhead
}

// PathOverhead returns the total ciphertext expansion of a path: the
// per-chunk IV+tag+Base64 cost summed over all elements, which grows
// with the path depth (Table 2: "+relative Overhead ... depends on the
// depth of the path").
func PathOverhead(plain string) int {
	if plain == "/" {
		return 0
	}
	total := 0
	for _, chunk := range strings.Split(strings.TrimPrefix(plain, "/"), "/") {
		total += EncryptedChunkLen(len(chunk)) - len(chunk)
	}
	return total
}
