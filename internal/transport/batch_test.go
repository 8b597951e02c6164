package transport

// Tests of the burst-per-syscall paths: the receive chunk of FramedConn
// (frames carved in place out of whatever one read returned) and the
// SendFrames batch primitive through FramedConn, SecureConn and
// ChanConn.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the Read and Write calls that reach the stream:
// on a socket each is one system call.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// corkedConn holds writes back until uncork, which then delivers them
// as ONE write — the way a peer's handshake reply and its first records
// can share a TCP segment.
type corkedConn struct {
	net.Conn
	mu   sync.Mutex
	held []byte
}

func (c *corkedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held = append(c.held, p...)
	return len(p), nil
}

func (c *corkedConn) uncork() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.Conn.Write(c.held)
	c.held = nil
	return err
}

// onWire is the reference encoding: what single SendFrame calls put on
// the stream for these frames.
func onWire(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = binary.BigEndian.AppendUint32(out, uint32(len(f)))
		out = append(out, f...)
	}
	return out
}

// patterned returns n bytes that differ per (tag, position), so a frame
// carved from the wrong place cannot compare equal.
func patterned(tag, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(tag*31 + i*7)
	}
	return b
}

// feed writes the stream to w in the given pieces; net.Pipe hands a
// reader at most one piece per Read, so the pieces are the read
// boundaries.
func feed(t *testing.T, w net.Conn, pieces ...[]byte) {
	t.Helper()
	go func() {
		for _, p := range pieces {
			if _, err := w.Write(p); err != nil {
				return // reader gone; the test has already failed or finished
			}
		}
	}()
}

// recvAll takes len(want) frames out one at a time through a poisoning
// decorator, comparing each as it is handed out: a frame is the
// caller's until its next receive call, and no longer.
func recvAll(t *testing.T, c Conn, want [][]byte) {
	t.Helper()
	c = NewPoisonConn(c)
	for i := range want {
		f, err := c.RecvFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(f, want[i]) {
			t.Fatalf("frame %d: got %d bytes, want %d, or content differs", i, len(f), len(want[i]))
		}
	}
}

// TestFramedConnGoldenBatchBytes pins the wire format: a batch is the
// byte string single sends produce, in one write. A parent-commit peer
// therefore reads it unchanged.
func TestFramedConnGoldenBatchBytes(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cc := &countingConn{Conn: a}
	fc := NewFramedConn(cc)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 64)
		n, _ := b.Read(buf)
		got <- buf[:n]
	}()
	if err := fc.SendFrames([][]byte{[]byte("ab"), {}}); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0, 2, 'a', 'b', 0, 0, 0, 0}
	if g := <-got; !bytes.Equal(g, want) {
		t.Fatalf("wire bytes = %x, want %x", g, want)
	}
	if w := cc.writes.Load(); w != 1 {
		t.Fatalf("batch took %d writes, want 1", w)
	}
}

// TestFramedConnFramesStraddleChunks streams more than three receive
// chunks of mid-sized frames in one piece, so reads end mid-header and
// mid-body and frames straddle every chunk boundary.
func TestFramedConnFramesStraddleChunks(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var want [][]byte
	for i := 0; len(onWire(want...)) < 3*arenaChunkSize+arenaChunkSize/2; i++ {
		want = append(want, patterned(i, 1500+(i%7)*997))
	}
	feed(t, a, onWire(want...))
	cc := &countingConn{Conn: b}
	recvAll(t, NewFramedConn(cc), want)
	if r := cc.reads.Load(); r >= int64(len(want)) {
		t.Fatalf("%d reads for %d frames: the receive chunk is not taking bursts", r, len(want))
	}
}

// TestFramedConnFrameCapacityIsCapped: the frames of one burst lie side
// by side in the receive chunk and are all the caller's at once, so an
// append to one must not reach the bytes of the next.
func TestFramedConnFrameCapacityIsCapped(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	want := [][]byte{patterned(1, 100), patterned(2, 100)}
	feed(t, a, onWire(want...))
	got, err := NewFramedConn(b).RecvFrames(nil)
	if err != nil || len(got) != 2 {
		t.Fatalf("burst of %d frames, %v; want both frames of the one read", len(got), err)
	}
	_ = append(got[0], 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	if !bytes.Equal(got[1], want[1]) {
		t.Fatal("append to a received frame bled into the following frame")
	}
}

// TestFramedConnReadBoundaries cuts the stream at every offset of a
// short sequence, so a read ends after each header byte and body byte,
// and takes it out a frame at a time and a burst at a time. Whatever the
// first read completed comes back in one RecvFrames call, the rest with
// the second read: never more calls than reads.
func TestFramedConnReadBoundaries(t *testing.T) {
	want := [][]byte{[]byte("first"), {}, []byte("x"), {}, {}, patterned(3, 40)}
	stream := onWire(want...)
	for cut := 1; cut <= len(stream); cut++ {
		for _, bursts := range []bool{false, true} {
			a, b := net.Pipe()
			feed(t, a, stream[:cut], stream[cut:])
			if !bursts {
				recvAll(t, NewFramedConn(b), want)
			} else if got := recvBursts(t, NewFramedConn(b), want); len(got) > 2 || (cut == len(stream) && len(got) != 1) {
				t.Fatalf("cut at %d of %d: the reads were taken apart into bursts of %v", cut, len(stream), got)
			}
			a.Close()
			b.Close()
		}
	}
}

// TestFramedConnLargeFrames: frames beyond the carve bound are read
// into their own allocation — one whose start shares a read with small
// frames and whose rest comes straight off the stream, and one that is
// already complete in the chunk when its turn comes.
func TestFramedConnLargeFrames(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	want := [][]byte{
		[]byte("small-before"),
		patterned(1, 5*arenaChunkSize+123), // larger than the whole chunk
		[]byte("small-between"),
		patterned(2, arenaMaxCarve+1), // too big to carve, fits the chunk
		{},
		[]byte("small-after"),
	}
	feed(t, a, onWire(want...))
	recvAll(t, NewFramedConn(b), want)
}

// TestFramedConnLargeFrameMemoryFollowsBytes: a frame's length is only
// the peer's claim. A 5-byte stream — a header announcing MaxFrameSize
// and one body byte — must not make the receiver reserve MaxFrameSize;
// a frame that does arrive whole past MaxScratchRetain still comes back
// intact.
func TestFramedConnLargeFrameMemoryFollowsBytes(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := NewFramedConn(b)
	// TotalAlloc, not HeapAlloc: what the receive allocates is counted
	// whether or not a collection has run since.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		_, _ = a.Write(append(binary.BigEndian.AppendUint32(nil, MaxFrameSize), 'x'))
		a.Close()
	}()
	if _, err := fc.RecvFrame(); err == nil {
		t.Fatal("a frame cut short after one body byte was delivered")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("a 5-byte stream announcing %d bytes made the connection allocate %d", MaxFrameSize, grown)
	}

	c, d := net.Pipe()
	defer c.Close()
	defer d.Close()
	want := [][]byte{patterned(1, 3*MaxScratchRetain+5), []byte("after")}
	feed(t, c, onWire(want...))
	recvAll(t, NewFramedConn(d), want)
}

// TestSendFramesRejectsOversizedFrameWhole: one oversized frame inside
// a batch fails the batch before a byte is written, so the stream stays
// in sync for the next send.
func TestSendFramesRejectsOversizedFrameWhole(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cc := &countingConn{Conn: a}
	fc := NewFramedConn(cc)
	err := fc.SendFrames([][]byte{[]byte("ok"), make([]byte, MaxFrameSize+1), []byte("ok")})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if w := cc.writes.Load(); w != 0 {
		t.Fatalf("rejected batch still issued %d writes", w)
	}
	go func() { _ = fc.SendFrame([]byte("after")) }()
	got, err := NewFramedConn(b).RecvFrame()
	if err != nil || string(got) != "after" {
		t.Fatalf("stream out of sync after rejected batch: %q, %v", got, err)
	}
	// And the receive side refuses an oversized length wherever in a
	// burst it sits.
	c, d := net.Pipe()
	defer c.Close()
	defer d.Close()
	bad := binary.BigEndian.AppendUint32(onWire([]byte("fine")), MaxFrameSize+1)
	feed(t, c, bad)
	rc := NewFramedConn(d)
	if got, err := rc.RecvFrame(); err != nil || string(got) != "fine" {
		t.Fatalf("frame before the oversized one: %q, %v", got, err)
	}
	if _, err := rc.RecvFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestFramedConnDeadlineWithBufferedBytes: a deadline must fire even
// though part of the awaited frame is already in the receive chunk, a
// frame that is complete there is delivered regardless, and the partial
// bytes survive the timeout.
func TestFramedConnDeadlineWithBufferedBytes(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	want := [][]byte{[]byte("one"), []byte("two"), patterned(9, 300)}
	stream := onWire(want...)
	cut := len(stream) - 100 // all of one and two, most of three
	feed(t, a, stream[:cut])
	fc := NewFramedConn(b)
	if got, err := fc.RecvFrame(); err != nil || string(got) != "one" {
		t.Fatalf("first frame: %q, %v", got, err)
	}
	if err := fc.SetDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if got, err := fc.RecvFrame(); err != nil || string(got) != "two" {
		t.Fatalf("buffered complete frame under an expired deadline: %q, %v", got, err)
	}
	if err := fc.SetDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := fc.RecvFrame(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("partial frame buffered: err = %v, want deadline exceeded", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("deadline fired after %v", waited)
	}
	if err := fc.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	feed(t, a, stream[cut:])
	if got, err := fc.RecvFrame(); err != nil || !bytes.Equal(got, want[2]) {
		t.Fatalf("frame resumed after the timeout: %d bytes, %v", len(got), err)
	}
}

// TestHandshakeKeepsBufferedBytes: the peer's handshake reply and its
// first records arrive in one read. The handshake consumes one frame
// from the FramedConn; the records behind it in the receive chunk must
// reach the SecureConn layered on the same FramedConn — one at a time,
// or as its first batch, opened in nonce order by one RecvFrames call.
func TestHandshakeKeepsBufferedBytes(t *testing.T) {
	for _, bursts := range []bool{false, true} {
		a, b := net.Pipe()
		serverID, _ := NewIdentity()
		clientID, _ := NewIdentity()
		msgs := [][]byte{[]byte("r1"), patterned(4, 2000), {}, []byte("r4")}

		corked := &corkedConn{Conn: b}
		srvErr := make(chan error, 1)
		go func() {
			srv, err := Handshake(NewFramedConn(corked), serverID, false, VerifyAny())
			if err == nil {
				err = srv.SendFrames(msgs)
			}
			if err == nil {
				err = corked.uncork()
			}
			srvErr <- err
		}()

		fc := NewFramedConn(a)
		cli, err := Handshake(fc, clientID, true, VerifyExact(serverID.Public))
		if err != nil {
			t.Fatal(err)
		}
		if err := <-srvErr; err != nil {
			t.Fatal(err)
		}
		if fc.rend == fc.rpos {
			t.Fatal("test lost its point: nothing was buffered behind the handshake frame")
		}
		if !bursts {
			recvAll(t, cli, msgs)
		} else if got := recvBursts(t, cli, msgs); len(got) != 1 {
			t.Fatalf("records buffered behind the handshake came back as bursts of %v", got)
		}
		a.Close()
		b.Close()
	}
}

// tamperConn flips one bit of the armed-th frame it receives.
type tamperConn struct {
	Conn
	armed int // 1-based index of the frame to corrupt; counts down
}

func (c *tamperConn) RecvFrame() ([]byte, error) {
	f, err := c.Conn.RecvFrame()
	if err == nil && c.armed > 0 {
		if c.armed--; c.armed == 0 {
			f[len(f)/2] ^= 0x01
		}
	}
	return f, err
}

// securePairOver runs the handshake over the given transports.
func securePairOver(t *testing.T, cliInner, srvInner Conn) (cli, srv *SecureConn) {
	t.Helper()
	serverID, _ := NewIdentity()
	clientID, _ := NewIdentity()
	done := make(chan *SecureConn, 1)
	go func() {
		sc, err := Handshake(srvInner, serverID, false, VerifyAny())
		if err != nil {
			t.Errorf("server handshake: %v", err)
		}
		done <- sc
	}()
	cli, err := Handshake(cliInner, clientID, true, VerifyExact(serverID.Public))
	if err != nil {
		t.Fatal(err)
	}
	if srv = <-done; srv == nil {
		t.FailNow()
	}
	return cli, srv
}

// TestSecureConnBatchInterop: a batch sender and a frame-at-a-time
// receiver agree on nonces, in both directions, with single sends
// interleaved — over the in-process pipe (a batch is a loop) and over a
// framed stream (a batch is one write).
func TestSecureConnBatchInterop(t *testing.T) {
	pipeA, pipeB := NewChanPipe()
	tcpA, tcpB := loopbackPair(t)
	for name, pair := range map[string][2]Conn{
		"chan":   {pipeA, pipeB},
		"framed": {NewFramedConn(tcpA), NewFramedConn(tcpB)},
	} {
		t.Run(name, func(t *testing.T) {
			cli, srv := securePairOver(t, pair[0], pair[1])
			batch := [][]byte{[]byte("b1"), {}, patterned(5, 3000), []byte("b4")}
			for round := 0; round < 3; round++ {
				for _, dir := range [][2]*SecureConn{{cli, srv}, {srv, cli}} {
					from, to := dir[0], dir[1]
					errs := make(chan error, 1)
					go func() {
						err := from.SendFrames(batch)
						if err == nil {
							err = from.SendFrame([]byte("single"))
						}
						errs <- err
					}()
					recvAll(t, to, append(append([][]byte(nil), batch...), []byte("single")))
					if err := <-errs; err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestSecureConnBatchTamperSecondRecord: each record of a batch is
// authenticated on its own, so corrupting the second fails exactly
// there, after the first was delivered.
func TestSecureConnBatchTamperSecondRecord(t *testing.T) {
	a, b := NewChanPipe()
	mitm := &tamperConn{Conn: b}
	cli, srv := securePairOver(t, a, mitm)
	mitm.armed = 2
	go func() { _ = cli.SendFrames([][]byte{[]byte("intact"), []byte("corrupted"), []byte("unreached")}) }()
	if got, err := srv.RecvFrame(); err != nil || string(got) != "intact" {
		t.Fatalf("first record: %q, %v", got, err)
	}
	if _, err := srv.RecvFrame(); !errors.Is(err, ErrRecordTampered) {
		t.Fatalf("second record: err = %v, want ErrRecordTampered", err)
	}
}

// TestSendScratchIsBounded: one snapshot-sized frame must not pin its
// size on the connection; ordinary traffic keeps its scratch.
func TestSendScratchIsBounded(t *testing.T) {
	tcpA, tcpB := loopbackPair(t)
	fa, fb := NewFramedConn(tcpA), NewFramedConn(tcpB)
	cli, srv := securePairOver(t, fa, fb)
	go func() {
		for {
			if _, err := srv.RecvFrame(); err != nil {
				return
			}
		}
	}()
	if err := cli.SendFrames([][]byte{make([]byte, 100), make([]byte, 2000)}); err != nil {
		t.Fatal(err)
	}
	if cap(fa.writeBuf) == 0 || cap(cli.sendBuf) == 0 {
		t.Fatal("ordinary batch did not keep its scratch for reuse")
	}
	if err := cli.SendFrame(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if c := cap(fa.writeBuf); c > MaxScratchRetain {
		t.Fatalf("FramedConn retains %d bytes of scratch after a 1 MiB frame", c)
	}
	if c := cap(cli.sendBuf); c > MaxScratchRetain {
		t.Fatalf("SecureConn retains %d bytes of scratch after a 1 MiB frame", c)
	}
	for _, f := range cli.sealed[:cap(cli.sealed)] {
		if f != nil {
			t.Fatal("SecureConn still references a sealed record after the send")
		}
	}
}

// loopbackPair returns the two ends of a real TCP connection.
func loopbackPair(t testing.TB) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	acc := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		acc <- res{c, err}
	}()
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-acc
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() {
		_ = dialed.Close()
		_ = r.c.Close()
	})
	return dialed, r.c
}

// TestFramedConnConcurrentBatches runs a batching writer against a
// reader over a real socket in both directions at once (the contract is
// one reader and one writer per direction); meant for -race.
func TestFramedConnConcurrentBatches(t *testing.T) {
	tcpA, tcpB := loopbackPair(t)
	ends := [2]*FramedConn{NewFramedConn(tcpA), NewFramedConn(tcpB)}
	const batches, perBatch = 200, 7
	var wg sync.WaitGroup
	for side := range ends {
		from, to := ends[side], ends[1-side]
		wg.Add(2)
		go func() {
			defer wg.Done()
			batch := make([][]byte, perBatch)
			for i := 0; i < batches; i++ {
				for j := range batch {
					batch[j] = []byte(fmt.Sprintf("%d/%d/%d", side, i, j))
				}
				if err := from.SendFrames(batch); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				for j := 0; j < perBatch; j++ {
					got, err := to.RecvFrame()
					if want := fmt.Sprintf("%d/%d/%d", side, i, j); err != nil || string(got) != want {
						t.Errorf("recv = %q, %v; want %q", got, err, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
