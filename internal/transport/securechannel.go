package transport

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// The secure channel is a TLS-1.3-like construction: an X25519 ECDH key
// exchange authenticated with Ed25519 signatures, HKDF-SHA256 key
// derivation, and AES-GCM-128 record protection with per-direction
// 64-bit nonce counters. It matches the paper's "connection encryption
// alike TLS" (§4.1) while being small enough to run inside the entry
// enclave's trusted code base.

// Secure channel errors.
var (
	ErrHandshakeFailed = errors.New("transport: secure handshake failed")
	ErrBadPeerIdentity = errors.New("transport: peer identity verification failed")
	ErrRecordTampered  = errors.New("transport: record authentication failed")
)

// Identity is a long-term Ed25519 signing identity used for channel
// authentication (the TLS-certificate analogue).
type Identity struct {
	Private ed25519.PrivateKey
	Public  ed25519.PublicKey
}

// NewIdentity generates a fresh identity.
func NewIdentity() (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("transport: generate identity: %w", err)
	}
	return &Identity{Private: priv, Public: pub}, nil
}

// PeerVerifier decides whether a presented peer public key is trusted;
// the bidirectional TLS certificate verification of §4.5.
type PeerVerifier func(peer ed25519.PublicKey) error

// VerifyExact returns a verifier that accepts exactly the given key
// (the client pinning the enclave's out-of-band public key).
func VerifyExact(expected ed25519.PublicKey) PeerVerifier {
	return func(peer ed25519.PublicKey) error {
		if !peer.Equal(expected) {
			return ErrBadPeerIdentity
		}
		return nil
	}
}

// VerifyAny accepts all peers; used by baselines without client auth.
func VerifyAny() PeerVerifier {
	return func(ed25519.PublicKey) error { return nil }
}

// SecureConn protects an underlying Conn with authenticated encryption.
// The per-direction mutexes serialize the nonce counters and scratch
// buffers, so one concurrent sender and one concurrent receiver are
// safe (matching FramedConn's contract). Like FramedConn's, the receive
// mutex is held while waiting for the peer.
type SecureConn struct {
	inner     Conn
	sendAEAD  cipher.AEAD
	recvAEAD  cipher.AEAD
	sendMu    sync.Mutex
	recvMu    sync.Mutex
	sendSeq   uint64
	recvSeq   uint64
	sendBuf   []byte   // reused seal scratch; the inner connection does not retain it
	sealed    [][]byte // reused per-record views into sendBuf for one batch
	sendNonce [12]byte
	recvNonce [12]byte
	// recvErr is set by the first record that fails authentication and
	// ends the receive direction for good (TLS's fatal bad_record_mac):
	// what follows a forged record is not to be trusted either.
	recvErr error
	peer    ed25519.PublicKey
}

var _ Conn = (*SecureConn)(nil)

// handshakeMsg is the single flight each side sends:
// ephemeralX25519(32) || ed25519pub(32) || signature(64) over both.
const handshakeLen = 32 + ed25519.PublicKeySize + ed25519.SignatureSize

func buildHandshake(id *Identity, eph *ecdh.PrivateKey) []byte {
	msg := make([]byte, 0, handshakeLen)
	msg = append(msg, eph.PublicKey().Bytes()...)
	msg = append(msg, id.Public...)
	sig := ed25519.Sign(id.Private, msg)
	return append(msg, sig...)
}

func parseHandshake(buf []byte) (ephPub *ecdh.PublicKey, peer ed25519.PublicKey, err error) {
	if len(buf) != handshakeLen {
		return nil, nil, fmt.Errorf("%w: bad handshake length %d", ErrHandshakeFailed, len(buf))
	}
	signed := buf[:32+ed25519.PublicKeySize]
	// Clone the key: the handshake frame's storage belongs to the
	// transport and must not be pinned for the connection's lifetime.
	peer = ed25519.PublicKey(append([]byte(nil), buf[32:32+ed25519.PublicKeySize]...))
	sig := buf[32+ed25519.PublicKeySize:]
	if !ed25519.Verify(peer, signed, sig) {
		return nil, nil, fmt.Errorf("%w: bad handshake signature", ErrHandshakeFailed)
	}
	ephPub, err = ecdh.X25519().NewPublicKey(buf[:32])
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrHandshakeFailed, err)
	}
	return ephPub, peer, nil
}

// hkdfExpand derives length bytes from a shared secret and label using
// the HKDF construction over HMAC-SHA256.
func hkdfExpand(secret []byte, label string, length int) []byte {
	prk := hmac.New(sha256.New, []byte("securekeeper-hkdf-salt"))
	prk.Write(secret)
	key := prk.Sum(nil)

	var out []byte
	var prev []byte
	for counter := byte(1); len(out) < length; counter++ {
		h := hmac.New(sha256.New, key)
		h.Write(prev)
		h.Write([]byte(label))
		h.Write([]byte{counter})
		prev = h.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length]
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Handshake runs the key exchange over inner. isInitiator breaks the
// key-direction symmetry (the client initiates). verify authenticates
// the peer's long-term key.
func Handshake(inner Conn, id *Identity, isInitiator bool, verify PeerVerifier) (*SecureConn, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("transport: ephemeral key: %w", err)
	}
	if err := inner.SendFrame(buildHandshake(id, eph)); err != nil {
		return nil, fmt.Errorf("transport: send handshake: %w", err)
	}
	peerMsg, err := inner.RecvFrame()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: peer closed during handshake", ErrHandshakeFailed)
		}
		return nil, fmt.Errorf("transport: recv handshake: %w", err)
	}
	peerEph, peerID, err := parseHandshake(peerMsg)
	if err != nil {
		return nil, err
	}
	if verify != nil {
		if err := verify(peerID); err != nil {
			return nil, fmt.Errorf("verify peer: %w", err)
		}
	}
	shared, err := eph.ECDH(peerEph)
	if err != nil {
		return nil, fmt.Errorf("transport: ecdh: %w", err)
	}
	keys := hkdfExpand(shared, "securekeeper-channel-v1", 32)
	clientKey, serverKey := keys[:16], keys[16:]
	var sendKey, recvKey []byte
	if isInitiator {
		sendKey, recvKey = clientKey, serverKey
	} else {
		sendKey, recvKey = serverKey, clientKey
	}
	sendAEAD, err := newAEAD(sendKey)
	if err != nil {
		return nil, fmt.Errorf("transport: aead: %w", err)
	}
	recvAEAD, err := newAEAD(recvKey)
	if err != nil {
		return nil, fmt.Errorf("transport: aead: %w", err)
	}
	return &SecureConn{
		inner:    inner,
		sendAEAD: sendAEAD,
		recvAEAD: recvAEAD,
		peer:     peerID,
	}, nil
}

// Peer returns the authenticated long-term key of the remote side.
func (c *SecureConn) Peer() ed25519.PublicKey { return c.peer }

// SendFrame implements Conn.
func (c *SecureConn) SendFrame(payload []byte) error {
	return c.SendFrames([][]byte{payload})
}

// SendFrames implements Conn: one record per frame, sealed in nonce
// order into one contiguous scratch and handed down as one batch. The
// records are exactly those single sends would produce, so the peer
// opens them one RecvFrame at a time. The scratch buffers are reused
// across sends — the inner connection copies the records out before
// returning.
func (c *SecureConn) SendFrames(frames [][]byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	total := 0
	for _, f := range frames {
		total += len(f) + c.sendAEAD.Overhead()
	}
	buf := c.sendBuf[:0]
	if cap(buf) < total {
		// Sized up front: growing mid-batch would move the records
		// already sealed.
		buf = make([]byte, 0, total)
	}
	sealed := c.sealed[:0]
	for _, f := range frames {
		binary.BigEndian.PutUint64(c.sendNonce[4:], c.sendSeq)
		c.sendSeq++
		start := len(buf)
		buf = c.sendAEAD.Seal(buf, c.sendNonce[:], f, nil)
		sealed = append(sealed, buf[start:len(buf):len(buf)])
	}
	var err error
	if len(sealed) == 1 {
		// A lone record goes down as a single send, so a wrapper that
		// observes SendFrame on the inner connection sees it.
		err = c.inner.SendFrame(sealed[0])
	} else {
		err = c.inner.SendFrames(sealed)
	}
	clear(sealed) // or a dropped oversized scratch would stay pinned
	c.sealed = sealed[:0]
	c.sendBuf = retainScratch(buf)
	return err
}

// RecvFrame implements Conn: the one-element case of RecvFrames. It
// takes its record with the inner connection's RecvFrame, so a wrapper
// that observes only that method sees a one-at-a-time receiver's
// traffic.
func (c *SecureConn) RecvFrame() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.recvErr != nil {
		return nil, c.recvErr
	}
	sealed, err := c.inner.RecvFrame()
	if err != nil {
		return nil, err
	}
	return c.open(sealed)
}

// RecvFrames implements Conn: the records of one inner batch, opened in
// nonce order. A record that fails authentication ends the batch: the
// frames before it are delivered now and the failure by the next call.
func (c *SecureConn) RecvFrames(dst [][]byte) ([][]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.recvErr != nil {
		return dst, c.recvErr
	}
	base := len(dst)
	dst, err := c.inner.RecvFrames(dst)
	if err != nil {
		return dst, err
	}
	for i := base; i < len(dst); i++ {
		plain, err := c.open(dst[i])
		if err != nil {
			clear(dst[i:])
			if i == base {
				return dst[:base], err
			}
			return dst[:i], nil
		}
		dst[i] = plain
	}
	return dst, nil
}

// open authenticates and decrypts the next record; the caller holds
// recvMu. Replayed, reordered or tampered records fail because the
// nonce is the strictly increasing sequence number.
func (c *SecureConn) open(sealed []byte) ([]byte, error) {
	binary.BigEndian.PutUint64(c.recvNonce[4:], c.recvSeq)
	c.recvSeq++
	// In-place open: the inner frame is ours until the next receive call
	// on the inner connection, which is exactly how long the plaintext
	// handed up in its storage has to last.
	plain, err := c.recvAEAD.Open(sealed[:0], c.recvNonce[:], sealed, nil)
	if err != nil {
		c.recvErr = ErrRecordTampered
		return nil, c.recvErr
	}
	return plain, nil
}

// Close implements Conn.
func (c *SecureConn) Close() error { return c.inner.Close() }
