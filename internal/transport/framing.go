// Package transport provides the client-to-replica communication layer:
// length-prefixed message framing over any net.Conn (TCP or in-process
// pipes), plus an authenticated-encryption secure channel equivalent to
// the TLS connections the paper's baselines use. The secure channel's
// server side can be terminated inside the entry enclave, which is the
// property SecureKeeper requires (§4.1: "the endpoint of this secure
// connection is located inside the entry enclave").
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrameSize bounds a single framed message (protocol payload plus
// SecureKeeper ciphertext expansion).
const MaxFrameSize = 8 << 20

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")
	ErrClosed        = errors.New("transport: connection closed")
)

// Conn is a message-oriented connection.
type Conn interface {
	// SendFrame writes one message. Implementations do not retain
	// payload after returning, so callers may reuse its storage.
	SendFrame(payload []byte) error
	// SendFrames writes the messages in order, as if by SendFrame on
	// each, moving them to the peer in as few writes as the connection
	// allows. The receiver cannot tell a batch from single sends.
	// Writers that own a queue pass what is already queued and never
	// wait for more. Neither the slice nor the frames are retained.
	SendFrames(frames [][]byte) error
	// RecvFrame reads the next message. The returned slice is the
	// caller's until its next receive call (RecvFrame or RecvFrames) on
	// this connection: a connection keeps one receive buffer and reuses
	// it, so whatever must outlive the next receive call is copied by the
	// caller first, and only that. Until then the caller may read and
	// write the slice freely.
	RecvFrame() ([]byte, error)
	// RecvFrames is the receive-side twin of SendFrames: it blocks for
	// the next message, as RecvFrame does, then appends to dst that
	// message and every further one that has ALREADY arrived in full, up
	// to BatchBytes, and never waits or reads again for company — a lone
	// message comes back alone. The sender cannot tell a batch from
	// single receives. An error is returned only when no message was
	// appended; one met after the first ends the batch and is reported by
	// the next call. The frames are the caller's as with RecvFrame: all
	// of them until the next receive call on this connection.
	RecvFrames(dst [][]byte) ([][]byte, error)
	// Close tears the connection down.
	Close() error
}

// frameArena amortizes per-frame buffer allocations where a frame
// changes owner (ChanConn hands the receiver a copy it keeps): frames
// are carved out of a large chunk, and a fresh chunk is allocated only
// when the current one is exhausted. Carved regions are never reused —
// the garbage collector frees a chunk once no frame carved from it is
// referenced. Frames too large to amortize get their own allocation.
type frameArena struct {
	buf []byte
	off int
}

const (
	arenaChunkSize = 32 << 10
	// arenaMaxCarve bounds carved frames so one big frame cannot waste
	// most of a chunk.
	arenaMaxCarve = arenaChunkSize / 4

	frameHeaderLen = 4
	// minReadSpace is the least free tail of a receive chunk worth a
	// read: below it the reader moves what is buffered to the front
	// rather than ask the kernel for a sliver.
	minReadSpace = arenaChunkSize / 16
	// BatchBytes caps what a writer that owns a queue (a session's
	// releaser, a mesh link's writer) gathers for one SendFrames call,
	// and what RecvFrames hands up from one wake-up; what is queued
	// beyond it goes with the next call, at once. A frame that alone
	// exceeds it travels by itself.
	BatchBytes = 64 << 10
	// MaxScratchRetain bounds the send scratch a connection keeps
	// between writes. A larger frame or batch (a snapshot chunk) gets
	// its scratch for that one write, so it cannot pin its size on the
	// link for the connection's lifetime. A mesh link's send buffers
	// (zabnet) keep to the same bound.
	MaxScratchRetain = 256 << 10
)

// carve returns a caller-owned slice of n bytes with capacity capped at
// n, so appends by the caller can never bleed into later carves.
func (a *frameArena) carve(n int) []byte {
	if n > arenaMaxCarve {
		return make([]byte, n)
	}
	if len(a.buf)-a.off < n {
		a.buf = make([]byte, arenaChunkSize)
		a.off = 0
	}
	b := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

// FramedConn wraps a stream connection with 4-byte big-endian length
// prefixes. Safe for one concurrent reader and one concurrent writer.
//
// Both directions move a burst per system call. Reads land in a
// receive chunk that frames are then carved from in place, so one read
// returns every complete frame the kernel holds; SendFrames
// length-prefixes a batch into one write. Nothing ever waits for
// company: a lone frame is read and written alone.
//
// Each direction keeps one buffer for the life of the connection: the
// send scratch and the receive chunk. A received frame is a slice of
// the chunk, which is why it is the caller's only until its next
// receive call (see Conn).
type FramedConn struct {
	conn     net.Conn
	writeMu  sync.Mutex
	readMu   sync.Mutex
	writeBuf []byte

	// rbuf is the receive chunk, made by the first read and never
	// replaced. rbuf[rpos:rend] holds bytes read from conn and not yet
	// handed out; what lies before rpos belongs to frames the current or
	// an earlier receive call returned.
	rbuf       []byte
	rpos, rend int
}

var _ Conn = (*FramedConn)(nil)

// NewFramedConn wraps conn with framing.
func NewFramedConn(conn net.Conn) *FramedConn {
	return &FramedConn{conn: conn}
}

// SendFrame implements Conn.
func (c *FramedConn) SendFrame(payload []byte) error {
	return c.SendFrames([][]byte{payload})
}

// SendFrames implements Conn: every frame with its length prefix, in
// one write. An oversized frame rejects the whole batch before a byte
// of it is written, so the stream stays in sync.
func (c *FramedConn) SendFrames(frames [][]byte) error {
	total := 0
	for _, f := range frames {
		if len(f) > MaxFrameSize {
			return ErrFrameTooLarge
		}
		total += frameHeaderLen + len(f)
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	buf := c.writeBuf[:0]
	if cap(buf) < total {
		buf = make([]byte, 0, total)
	}
	for _, f := range frames {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f)))
		buf = append(buf, f...)
	}
	_, err := c.conn.Write(buf)
	c.writeBuf = retainScratch(buf)
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// retainScratch returns buf emptied for reuse, or nil when it grew past
// MaxScratchRetain.
func retainScratch(buf []byte) []byte {
	if cap(buf) > MaxScratchRetain {
		return nil
	}
	return buf[:0]
}

// RecvFrame implements Conn: the one-element case of RecvFrames.
func (c *FramedConn) RecvFrame() ([]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	return c.recvNext()
}

// RecvFrames implements Conn: after the frame it blocked for, every
// frame the same reads already completed in the receive chunk is carved
// out too, with no further system call. A frame too big to carve, or an
// oversized length, ends the batch and is dealt with by the next call.
func (c *FramedConn) RecvFrames(dst [][]byte) ([][]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	frame, err := c.recvNext()
	if err != nil {
		return dst, err
	}
	dst = append(dst, frame)
	for size := len(frame); size < BatchBytes; size += len(frame) {
		have := c.rend - c.rpos
		if have < frameHeaderLen {
			break
		}
		n := binary.BigEndian.Uint32(c.rbuf[c.rpos:])
		if n > arenaMaxCarve || have < frameHeaderLen+int(n) {
			break
		}
		frame = c.carve(int(n))
		dst = append(dst, frame)
	}
	return dst, nil
}

// recvNext blocks for the next frame. A frame is consumed from the
// receive chunk only once it is complete, so a deadline that expires
// part-way through a small frame loses no buffered bytes.
func (c *FramedConn) recvNext() ([]byte, error) {
	if err := c.fill(frameHeaderLen); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.rbuf[c.rpos:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if n > arenaMaxCarve {
		return c.recvLarge(int(n))
	}
	if err := c.fill(frameHeaderLen + int(n)); err != nil {
		return nil, fmt.Errorf("transport: read frame body: %w", err)
	}
	return c.carve(int(n)), nil
}

// carve consumes the n-byte frame whose header sits at rpos; the caller
// has checked that it is buffered in full.
func (c *FramedConn) carve(n int) []byte {
	start := c.rpos + frameHeaderLen
	c.rpos = start + n
	return c.rbuf[start:c.rpos:c.rpos]
}

// fill reads until need contiguous unconsumed bytes are buffered; need
// is at most frameHeaderLen+arenaMaxCarve. Each read asks for the whole
// free tail of the chunk, which is what makes one read return a burst.
//
// This is where the chunk is reused: a consumed chunk is read into from
// offset 0 again, and a partial frame that has run out of room is moved
// to the front. Both overwrite frames handed out earlier, so fill runs
// only before the first frame of a receive call is carved.
func (c *FramedConn) fill(need int) error {
	if c.rbuf == nil {
		c.rbuf = make([]byte, arenaChunkSize)
	}
	for c.rend-c.rpos < need {
		if c.rpos == c.rend {
			c.rpos, c.rend = 0, 0
		} else if len(c.rbuf)-c.rpos < need || len(c.rbuf)-c.rend < minReadSpace {
			c.rend = copy(c.rbuf, c.rbuf[c.rpos:c.rend])
			c.rpos = 0
		}
		n, err := c.conn.Read(c.rbuf[c.rend:])
		c.rend += n
		if err != nil && c.rend-c.rpos < need {
			if err == io.EOF && c.rend > c.rpos {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// recvLarge reads a frame too big to carve: whatever part of the body
// is already buffered is copied over and the rest is read from the
// connection straight into the frame's own allocation. The length is
// only the peer's claim, so memory is taken as the bytes arrive: a frame
// up to MaxScratchRetain gets its one exact allocation at once, a larger
// one starts there and doubles as it fills, never holding more than
// twice what has arrived.
func (c *FramedConn) recvLarge(n int) ([]byte, error) {
	buffered := c.rbuf[c.rpos+frameHeaderLen : c.rend]
	buffered = buffered[:min(len(buffered), n)]
	c.rpos += frameHeaderLen + len(buffered)
	payload := append(make([]byte, 0, min(n, MaxScratchRetain)), buffered...)
	for {
		got, err := io.ReadFull(c.conn, payload[len(payload):cap(payload)])
		payload = payload[:len(payload)+got]
		if err != nil {
			return nil, fmt.Errorf("transport: read frame body: %w", err)
		}
		if len(payload) == n {
			return payload, nil
		}
		payload = append(make([]byte, 0, min(n, 2*len(payload))), payload...)
	}
}

// Close implements Conn.
func (c *FramedConn) Close() error { return c.conn.Close() }

// SetDeadline bounds both reads and writes on the underlying stream.
// Handshaking layers (the zab peer mesh) use it so a stalled or
// malicious dialer cannot pin an accept goroutine forever; pass the
// zero time to clear. A frame already complete in the receive chunk is
// returned without touching the stream, deadline or not.
func (c *FramedConn) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// ChanConn is an in-process message connection over channels, used by
// the benchmark harness to factor network stacks out of throughput
// comparisons. Create pairs with NewChanPipe.
type ChanConn struct {
	send      chan<- []byte
	recv      <-chan []byte
	closeOnce sync.Once
	closed    chan struct{}
	peerDone  <-chan struct{}

	sendMu    sync.Mutex
	sendArena frameArena
}

var _ Conn = (*ChanConn)(nil)

// NewChanPipe returns two connected in-process connections.
func NewChanPipe() (*ChanConn, *ChanConn) {
	ab := make(chan []byte, 1)
	ba := make(chan []byte, 1)
	aClosed := make(chan struct{})
	bClosed := make(chan struct{})
	a := &ChanConn{send: ab, recv: ba, closed: aClosed, peerDone: bClosed}
	b := &ChanConn{send: ba, recv: ab, closed: bClosed, peerDone: aClosed}
	return a, b
}

// SendFrame implements Conn.
func (c *ChanConn) SendFrame(payload []byte) error {
	// Fail deterministically once either side is closed (a select with
	// a ready buffered send and a closed channel picks randomly).
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peerDone:
		return ErrClosed
	default:
	}
	// The receiver owns the delivered frame, so the payload is copied —
	// into an arena carve, which amortizes the per-frame allocation.
	c.sendMu.Lock()
	buf := c.sendArena.carve(len(payload))
	c.sendMu.Unlock()
	copy(buf, payload)
	select {
	case c.send <- buf:
		return nil
	case <-c.closed:
		return ErrClosed
	case <-c.peerDone:
		return ErrClosed
	}
}

// SendFrames implements Conn: the pipe has no writes to save, so a
// batch is a loop of single sends.
func (c *ChanConn) SendFrames(frames [][]byte) error {
	for _, f := range frames {
		if err := c.SendFrame(f); err != nil {
			return err
		}
	}
	return nil
}

// RecvFrame implements Conn.
func (c *ChanConn) RecvFrame() ([]byte, error) {
	select {
	case buf := <-c.recv:
		return buf, nil
	case <-c.closed:
		return nil, ErrClosed
	case <-c.peerDone:
		// Drain anything already queued before reporting closure.
		select {
		case buf := <-c.recv:
			return buf, nil
		default:
			return nil, io.EOF
		}
	}
}

// RecvFrames implements Conn: the frame it blocked for, then whatever
// the pipe already holds, without blocking.
func (c *ChanConn) RecvFrames(dst [][]byte) ([][]byte, error) {
	frame, err := c.RecvFrame()
	if err != nil {
		return dst, err
	}
	dst = append(dst, frame)
	for size := len(frame); size < BatchBytes; size += len(frame) {
		select {
		case frame = <-c.recv:
		default:
			return dst, nil
		}
		dst = append(dst, frame)
	}
	return dst, nil
}

// Close implements Conn.
func (c *ChanConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}
