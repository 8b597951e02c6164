package main

import (
	"sync/atomic"
	"time"

	"securekeeper/internal/transport"
)

// clock is the benchmark's time base: nanoseconds since process start
// on the monotonic clock.
var processStart = time.Now()

func now() int64 { return int64(time.Since(processStart)) }

// tracedConn is the benchmark's instrument at a transport.Conn seam. It
// stamps the entry of every SendFrame and the return of every RecvFrame
// while recording is on. A benchmark session has no watches and sends no
// pings, and the server answers a session in request order, so the k-th
// frame sent in a round is the k-th op's request and the k-th frame
// received is its reply.
//
// One goroutine sends (the session's driver) and one receives (the
// client's receive loop); the harness reads the slices only between
// rounds, after every op of the round has completed.
type tracedConn struct {
	transport.Conn
	on *atomic.Bool

	sendEnter []int64
	recvExit  []int64
	bytesOut  int64
	bytesIn   int64
}

func newTracedConn(inner transport.Conn, on *atomic.Bool) *tracedConn {
	return &tracedConn{Conn: inner, on: on}
}

func (c *tracedConn) SendFrame(payload []byte) error {
	if c.on.Load() {
		c.sendEnter = append(c.sendEnter, now())
		c.bytesOut += int64(len(payload))
	}
	return c.Conn.SendFrame(payload)
}

func (c *tracedConn) RecvFrame() ([]byte, error) {
	frame, err := c.Conn.RecvFrame()
	if err == nil && c.on.Load() {
		c.recvExit = append(c.recvExit, now())
		c.bytesIn += int64(len(frame))
	}
	return frame, err
}

// reset empties the recordings, keeping room for n frames each way.
func (c *tracedConn) reset(n int) {
	if cap(c.sendEnter) < n {
		c.sendEnter = make([]int64, 0, n)
		c.recvExit = make([]int64, 0, n)
	}
	c.sendEnter = c.sendEnter[:0]
	c.recvExit = c.recvExit[:0]
	c.bytesOut, c.bytesIn = 0, 0
}

// sessionTrace holds one session's instruments: over the client's
// SecureConn (what the client library hands to the transport) and under
// it (what goes on the pipe or socket). On Vanilla there is no
// SecureConn and over is nil.
type sessionTrace struct {
	over  *tracedConn
	under *tracedConn
}

func (t *sessionTrace) reset(n int) {
	if t.over != nil {
		t.over.reset(n)
	}
	t.under.reset(n)
}
