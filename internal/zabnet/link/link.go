// Package link is one peer link of the zab mesh as a clockless core:
// the rules a link keeps, with no goroutine, channel, lock, timer, socket
// or clock read of its own. Zab assumes what these rules give it
// (Junqueira et al., Zab, DSN 2011): a link is FIFO, and it loses a
// message only whole — a full send queue or a dead connection sheds it —
// so that a gap is a gap the follower repairs by resync.
//
// zabnet.Mesh is the core's TCP driver: its dial, writer and reader
// goroutines call Enqueue, Take and Wrote, Received, Down and Up, and
// sleep until Next. The zab simulator's link mode drives the same calls
// on its virtual clock, so the rules it checks are the ones that ship. A
// Core is not safe for concurrent use; its driver serializes the calls.
//
// Frames: a message of at most the core's chunk size travels as one
// FrameMsg frame, its type byte and then its bytes; a larger one (a
// snapshot transfer) as a FrameFragBegin frame that announces the total
// in 8 big-endian bytes, FrameFragCont frames and a FrameFragEnd frame,
// each carrying chunk bytes of the message (the last what is left).
package link

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Frame types carried in the first byte of every frame of a message.
// (The mesh's hellos use other values of the same byte.)
const (
	FrameMsg       byte = 0x02 // one complete message
	FrameFragBegin byte = 0x03 // fragment start: total length + first chunk
	FrameFragCont  byte = 0x04 // fragment continuation chunk
	FrameFragEnd   byte = 0x05 // final fragment chunk
)

// MaxMessage bounds a reassembled message; the total a fragment start
// announces is the peer's claim.
const MaxMessage = 256 << 20

// The dial side's backoff, in nanoseconds: after a failed attempt it
// waits RedialMin, doubling per failure up to RedialMax.
const (
	RedialMin = int64(20e6) // 20 ms
	RedialMax = int64(1e9)  // 1 s
)

// retainBytes bounds the send buffers a core keeps: one grown past it (a
// snapshot's fragments) serves the one write cycle that carries it.
const retainBytes = 256 << 10

// Status is what Enqueue did with a message.
type Status int

const (
	Queued Status = iota // its frames are queued for the writer
	Shed                 // the queue was full: it was dropped whole
	Down                 // the link is down: it was dropped
)

// Core is one peer link's state: whether it is up, the frames queued
// and being written, a message being reassembled, and when to redial.
//
// Its send side owns two buffers: Enqueue appends frames to one while
// the writer writes the other, which Take hands it, and the next Take
// swaps them, so in steady state a message's bytes are copied into
// memory the link already has. Down drops both: a writer still busy
// with a dead connection's frames keeps them to itself.
type Core struct {
	maxFrames, chunk int

	up bool
	// queue holds the frames queued and not yet taken, back to back;
	// ends[i] is where the i-th ends. taken and takenEnds hold what the
	// last Take handed the writer as frames; writing counts those not
	// yet reported written, which still occupy the queue.
	queue, taken    []byte
	ends, takenEnds []int
	frames          [][]byte
	writing         int

	// asm is the fragmented message being reassembled, total its
	// announced length; total < 0 when none is.
	asm   []byte
	total int

	redial, backoff int64
}

// New returns a core, down, that queues at most maxFrames frames and
// fragments messages larger than chunkBytes.
func New(maxFrames, chunkBytes int) *Core {
	return &Core{maxFrames: maxFrames, chunk: chunkBytes, total: -1, backoff: RedialMin}
}

// Enqueue queues one message's frames, all of them or none: a message
// that would take the frames queued and being written past the core's
// bound is shed whole.
func (c *Core) Enqueue(body []byte) Status {
	if !c.up {
		return Down
	}
	frames := 1
	if len(body) > c.chunk {
		frames = (len(body) + c.chunk - 1) / c.chunk
	}
	if len(c.ends)+c.writing+frames > c.maxFrames {
		return Shed
	}
	c.queue = slices.Grow(c.queue, len(body)+frames+8)
	for off := 0; off < len(body) || off == 0; off += c.chunk {
		end := min(off+c.chunk, len(body))
		switch {
		case frames == 1:
			c.queue = append(c.queue, FrameMsg)
		case off == 0:
			c.queue = binary.BigEndian.AppendUint64(append(c.queue, FrameFragBegin), uint64(len(body)))
		case end == len(body):
			c.queue = append(c.queue, FrameFragEnd)
		default:
			c.queue = append(c.queue, FrameFragCont)
		}
		c.queue = append(c.queue, body[off:end]...)
		c.ends = append(c.ends, len(c.queue))
	}
	return Queued
}

// Take hands the writer every frame queued, in order. They count
// against the bound until Wrote reports them, and stay valid until the
// next Take, which the writer calls only once it has written them.
func (c *Core) Take() [][]byte {
	spare, spareEnds := c.taken[:0], c.takenEnds[:0]
	if cap(spare) > retainBytes {
		spare = nil
	}
	c.taken, c.takenEnds = c.queue, c.ends
	c.queue, c.ends = spare, spareEnds
	c.frames, c.writing = c.frames[:0], c.writing+len(c.takenEnds)
	start := 0
	for _, end := range c.takenEnds {
		c.frames, start = append(c.frames, c.taken[start:end]), end
	}
	return c.frames
}

// Wrote reports that the writer wrote n of the frames it took.
func (c *Core) Wrote(n int) { c.writing = max(0, c.writing-n) }

// Depth is the number of frames queued and being written.
func (c *Core) Depth() int { return len(c.ends) + c.writing }

// Received takes the next frame of the connection and returns the
// message it completes, or nil. A FrameMsg frame's message is the frame
// after its type byte; a reassembled one is the core's no longer. An
// error is a peer that broke the framing — an empty or unknown frame, a
// whole message inside a fragment sequence, fragments that overrun or
// fall short of their total: the driver hangs up.
func (c *Core) Received(frame []byte) ([]byte, error) {
	var t byte
	if len(frame) > 0 {
		t = frame[0]
	}
	switch {
	case t == FrameMsg && c.total < 0:
		return frame[1:], nil
	case t == FrameFragBegin && c.total < 0 && len(frame) >= 9:
		// The total is only the peer's claim: memory is taken as the bytes
		// arrive, not reserved on its word.
		total := binary.BigEndian.Uint64(frame[1:9])
		if total == 0 || total > MaxMessage {
			return nil, fmt.Errorf("fragment total %d out of range", total)
		}
		c.asm, c.total = append([]byte(nil), frame[9:]...), int(total)
		return nil, nil
	case (t == FrameFragCont || t == FrameFragEnd) && c.total >= 0 && len(c.asm)+len(frame)-1 <= c.total:
		c.asm = append(c.asm, frame[1:]...)
		if t == FrameFragCont {
			return nil, nil
		}
		msg := c.asm
		if len(msg) != c.total {
			return nil, fmt.Errorf("fragment underrun (%d/%d)", len(msg), c.total)
		}
		c.asm, c.total = nil, -1
		return msg, nil
	}
	return nil, fmt.Errorf("frame of type %#x out of sequence (%d bytes, reassembling %v)", t, len(frame), c.total >= 0)
}

// Up marks the link up on a new connection.
func (c *Core) Up() { c.up = true }

// Down takes the link down at now: what was queued or being written or
// reassembled is lost with the connection, as TCP loses it. A link that
// was up may be redialed at once; one that was down already failed a
// dial attempt, and waits out the backoff.
func (c *Core) Down(now int64) {
	redial, backoff := now, RedialMin
	if !c.up {
		redial, backoff = now+c.backoff, min(2*c.backoff, RedialMax)
	}
	*c = Core{maxFrames: c.maxFrames, chunk: c.chunk, total: -1, redial: redial, backoff: backoff}
}

// Next returns when the dial side should next try to connect: now, or
// the end of the backoff.
func (c *Core) Next(now int64) int64 { return max(now, c.redial) }
