package transport

// Tests of RecvFrames, the receive-side twin of SendFrames: one call
// returns the frame it blocked for plus every frame already received in
// full, through FramedConn, SecureConn and ChanConn.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// recvBursts takes len(want) frames out with RecvFrames through a
// poisoning decorator, comparing each burst as it is handed out, and
// returns the size of each burst.
func recvBursts(t *testing.T, c Conn, want [][]byte) []int {
	t.Helper()
	c = NewPoisonConn(c)
	var burst [][]byte
	var bursts []int
	for got := 0; got < len(want); got += len(burst) {
		var err error
		if burst, err = c.RecvFrames(burst[:0]); err != nil {
			t.Fatalf("after %d frames: %v", got, err)
		}
		if len(burst) == 0 {
			t.Fatalf("after %d frames: RecvFrames returned neither a frame nor an error", got)
		}
		if got+len(burst) > len(want) {
			t.Fatalf("got %d frames, want %d", got+len(burst), len(want))
		}
		for i, f := range burst {
			if !bytes.Equal(f, want[got+i]) {
				t.Fatalf("frame %d: got %d bytes, want %d, or content differs", got+i, len(f), len(want[got+i]))
			}
		}
		bursts = append(bursts, len(burst))
	}
	return bursts
}

// TestFramedConnRecvFramesLargeFrame: a frame too big to carve is read
// on its own path, so it ends the batch it would have joined and starts
// the next; a frame of BatchBytes or more travels alone.
func TestFramedConnRecvFramesLargeFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	want := [][]byte{
		[]byte("s1"), []byte("s2"),
		patterned(1, arenaMaxCarve+1), // complete in the chunk, still not carved
		[]byte("s3"),
		patterned(2, BatchBytes),
		[]byte("s4"),
	}
	feed(t, a, onWire(want...))
	bursts := recvBursts(t, NewFramedConn(b), want)
	if bursts[0] != 2 {
		t.Fatalf("bursts %v: the large frame did not end the first batch after the two small ones", bursts)
	}
	if bursts[1] != 2 {
		t.Fatalf("bursts %v: the large frame did not take the buffered small frame behind it along", bursts)
	}
	if bursts[2] != 1 {
		t.Fatalf("bursts %v: a frame of BatchBytes did not travel alone", bursts)
	}
}

// TestFramedConnRecvFramesDeadline: complete frames in the receive
// chunk are delivered under an expired deadline, the partial frame
// behind them survives the timeout, and nothing is lost or repeated.
func TestFramedConnRecvFramesDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three"), patterned(9, 300)}
	stream := onWire(want...)
	cut := len(stream) - 100 // all of one..three, most of the fourth
	feed(t, a, stream[:cut])
	fc := NewFramedConn(b)
	if got, err := fc.RecvFrame(); err != nil || string(got) != "one" {
		t.Fatalf("first frame: %q, %v", got, err)
	}
	if err := fc.SetDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	got, err := fc.RecvFrames(nil)
	if err != nil || len(got) != 2 || string(got[0]) != "two" || string(got[1]) != "three" {
		t.Fatalf("buffered complete frames under an expired deadline: %q, %v", got, err)
	}
	if err := fc.SetDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got, err := fc.RecvFrames(got); !errors.Is(err, os.ErrDeadlineExceeded) || len(got) != 2 {
		t.Fatalf("partial frame buffered: %d frames, err = %v, want the two passed in and deadline exceeded", len(got), err)
	}
	if err := fc.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	feed(t, a, stream[cut:])
	if got, err := fc.RecvFrames(nil); err != nil || len(got) != 1 || !bytes.Equal(got[0], want[3]) {
		t.Fatalf("frame resumed after the timeout: %d frames, %v", len(got), err)
	}
}

// gatherConn makes a burst deterministic on any inner connection: its
// RecvFrames waits until n frames have arrived and returns them as one.
type gatherConn struct {
	Conn
	n int
}

func (c *gatherConn) RecvFrames(dst [][]byte) ([][]byte, error) {
	for i := 0; i < c.n; i++ {
		f, err := c.Conn.RecvFrame()
		if err != nil {
			return dst, err
		}
		dst = append(dst, f)
	}
	return dst, nil
}

// TestSecureConnRecvFramesTamperedRecord: the k-th record of a burst is
// corrupted. The k-1 records ahead of it are delivered by the call that
// met it; the failure is reported by the next call, at once and for
// good — the receive direction does not outlive a forged record.
func TestSecureConnRecvFramesTamperedRecord(t *testing.T) {
	const n = 5
	for _, k := range []int{1, 3, n} {
		a, b := NewChanPipe()
		mitm := &tamperConn{Conn: b}
		cli, srv := securePairOver(t, a, &gatherConn{Conn: mitm, n: n})
		mitm.armed = k
		var sent [][]byte
		for i := 0; i < n; i++ {
			sent = append(sent, patterned(i, 10+i))
		}
		go func() { _ = cli.SendFrames(sent) }()

		got, err := srv.RecvFrames(nil)
		if k == 1 {
			if !errors.Is(err, ErrRecordTampered) || len(got) != 0 {
				t.Fatalf("k=1: %d frames, err = %v, want none and ErrRecordTampered", len(got), err)
			}
		} else {
			if err != nil || len(got) != k-1 {
				t.Fatalf("k=%d: %d frames, err = %v, want %d and no error yet", k, len(got), err, k-1)
			}
			for i := range got {
				if !bytes.Equal(got[i], sent[i]) {
					t.Fatalf("k=%d: frame %d differs", k, i)
				}
			}
			if got, err := srv.RecvFrames(got); !errors.Is(err, ErrRecordTampered) || len(got) != k-1 {
				t.Fatalf("k=%d: next call: %d frames, err = %v, want ErrRecordTampered", k, len(got), err)
			}
		}
		// Nothing is pending on the pipe, so a call that went to it
		// would block: the failure must come from the connection's state.
		if _, err := srv.RecvFrame(); !errors.Is(err, ErrRecordTampered) {
			t.Fatalf("k=%d: RecvFrame after the failure: %v", k, err)
		}
	}
}

// TestChanConnRecvFramesDrainsOnPeerClose: what the peer queued before
// closing is still delivered, then io.EOF; a frame that is queued when
// the call starts comes back with the one the call blocked for.
func TestChanConnRecvFramesDrainsOnPeerClose(t *testing.T) {
	a, b := NewChanPipe()
	if err := a.SendFrame([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	_ = a.Close()
	got, err := b.RecvFrames(nil)
	if err != nil || len(got) != 1 || string(got[0]) != "queued" {
		t.Fatalf("frame queued before the peer closed: %q, %v", got, err)
	}
	if got, err := b.RecvFrames(got); err != io.EOF || len(got) != 1 {
		t.Fatalf("after the drain: %d frames, err = %v, want io.EOF", len(got), err)
	}

	// A stream of frames followed by a close arrives whole and in order
	// however the bursts fall.
	c, d := NewChanPipe()
	const n = 50
	go func() {
		for i := 0; i < n; i++ {
			if err := c.SendFrame(patterned(i, 5+i)); err != nil {
				return
			}
		}
		_ = c.Close()
	}()
	var all [][]byte
	for {
		if all, err = d.RecvFrames(all); err != nil {
			break
		}
	}
	if err != io.EOF || len(all) != n {
		t.Fatalf("drained %d of %d frames, err = %v", len(all), n, err)
	}
	for i := range all {
		if !bytes.Equal(all[i], patterned(i, 5+i)) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

// piecesConn is a stream that hands out its bytes in fixed pieces, one
// piece at most per Read, then io.EOF.
type piecesConn struct {
	net.Conn // nil: only Read is used
	pieces   [][]byte
}

func (c *piecesConn) Read(p []byte) (int, error) {
	for len(c.pieces) > 0 && len(c.pieces[0]) == 0 {
		c.pieces = c.pieces[1:]
	}
	if len(c.pieces) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.pieces[0])
	c.pieces[0] = c.pieces[0][n:]
	return n, nil
}

// referenceCarve is the one-frame-at-a-time reading of a stream: the
// frames in order and how the stream ends.
func referenceCarve(stream []byte) (frames [][]byte, tooLarge bool) {
	for len(stream) >= frameHeaderLen {
		n := binary.BigEndian.Uint32(stream)
		if n > MaxFrameSize {
			return frames, true
		}
		if uint64(len(stream)-frameHeaderLen) < uint64(n) {
			break
		}
		frames = append(frames, stream[frameHeaderLen:frameHeaderLen+int(n)])
		stream = stream[frameHeaderLen+int(n):]
	}
	return frames, false
}

// FuzzFramedConnRecvFrames feeds FramedConn arbitrary stream bytes at
// arbitrary read boundaries and takes them out with an arbitrary mix of
// RecvFrames and RecvFrame calls. Whatever the boundaries and the mix,
// the frames must be exactly those of the reference carver, in order,
// when they are handed out — after which the test overwrites them, as
// their owner may, and the connection must neither miss the bytes nor
// move to another receive chunk — and the stream must end the way the
// reference says it ends.
func FuzzFramedConnRecvFrames(f *testing.F) {
	small := onWire([]byte("first"), nil, []byte("x"), patterned(3, 40))
	f.Add(small, []byte{0}, byte(0))
	f.Add(small, []byte{1, 2, 3}, byte(0b0101))
	f.Add(small[:len(small)-3], []byte{4}, byte(0xff))
	var straddling [][]byte
	for i := 0; len(onWire(straddling...)) < 2*arenaChunkSize+arenaChunkSize/2; i++ {
		straddling = append(straddling, patterned(i, 1500+(i%7)*997))
	}
	f.Add(onWire(straddling...), []byte{255, 3, 200}, byte(0b0011))
	f.Add(onWire([]byte("a"), patterned(1, arenaMaxCarve+1), []byte("b"), patterned(2, 3*arenaChunkSize), []byte("c")), []byte{250}, byte(0))
	f.Add(binary.BigEndian.AppendUint32(onWire([]byte("fine")), MaxFrameSize+1), []byte{2}, byte(0))
	f.Add(binary.BigEndian.AppendUint32(onWire([]byte("fine")), arenaMaxCarve+5), []byte{9}, byte(1))
	f.Add([]byte{0, 0}, []byte{}, byte(0))
	// Pieces that always end inside a frame: the chunk is never found
	// consumed, so every refill moves a partial frame to its front.
	f.Add(onWire(straddling...), []byte{40, 41, 37}, byte(0b0110))

	f.Fuzz(func(t *testing.T, stream, cuts []byte, mix byte) {
		// cuts[i] sets the length of the i-th piece (cycling), from one
		// byte to more than a receive chunk.
		var pieces [][]byte
		for rest, i := stream, 0; len(rest) > 0; i++ {
			n := len(rest)
			if len(cuts) > 0 {
				c := int(cuts[i%len(cuts)])
				n = min(n, 1+c*c)
			}
			pieces = append(pieces, rest[:n])
			rest = rest[n:]
		}
		want, tooLarge := referenceCarve(stream)

		fc := NewFramedConn(&piecesConn{pieces: pieces})
		var chunk *byte
		var burst [][]byte
		var err error
		got := 0
		for call := 0; err == nil; call++ {
			if mix>>(call%8)&1 == 0 {
				burst, err = fc.RecvFrames(burst[:0])
				if (err == nil) == (len(burst) == 0) {
					t.Fatalf("RecvFrames appended %d frames with err = %v", len(burst), err)
				}
			} else {
				var frame []byte
				burst = burst[:0]
				if frame, err = fc.RecvFrame(); err == nil {
					burst = append(burst, frame)
				}
			}
			if got+len(burst) > len(want) {
				t.Fatalf("%d frames, reference carved %d", got+len(burst), len(want))
			}
			for _, frame := range burst {
				if !bytes.Equal(frame, want[got]) {
					t.Fatalf("frame %d: %d bytes, reference %d, or content differs", got, len(frame), len(want[got]))
				}
				if cap(frame) != len(frame) {
					t.Fatalf("frame %d: capacity %d beyond its length %d reaches into its neighbour", got, cap(frame), len(frame))
				}
				got++
			}
			for _, frame := range burst {
				for i := range frame {
					frame[i] = poisonByte
				}
			}
			if fc.rbuf != nil {
				if chunk == nil {
					chunk = &fc.rbuf[0]
				}
				if &fc.rbuf[0] != chunk || cap(fc.rbuf) != arenaChunkSize {
					t.Fatalf("after %d frames the connection reads into another chunk (cap %d)", got, cap(fc.rbuf))
				}
			}
		}
		if tooLarge != errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("stream ended with %v, reference says oversized frame: %v", err, tooLarge)
		}
		if !tooLarge && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream ended with %v, want an end-of-stream error", err)
		}
		if got != len(want) {
			t.Fatalf("%d frames, reference carved %d (final error %v)", got, len(want), err)
		}
	})
}

// endlessFrames is a stream of frames without end whose every Read ends
// inside a frame, so its reader always has a partial frame standing in
// its chunk. Frame i is pattern[i%251:][:sizes[i%len(sizes)]].
type endlessFrames struct {
	net.Conn // nil: only Read is used
	sizes    []int
	pattern  []byte
	idx      int    // frames encoded so far
	cur      []byte // the last frame encoded, as it goes on the wire
	pos      int    // how much of cur has been read
	reads    int
}

func (c *endlessFrames) frame(i int) []byte {
	return c.pattern[i%251:][:c.sizes[i%len(c.sizes)]]
}

func (c *endlessFrames) Read(p []byte) (int, error) {
	// Reads come small, middling and as large as the reader asks for.
	limit := [...]int{50, 3000, len(p)}[c.reads%3]
	c.reads++
	n := 0
	for {
		if c.pos == len(c.cur) {
			body := c.frame(c.idx)
			c.cur = binary.BigEndian.AppendUint32(c.cur[:0], uint32(len(body)))
			c.cur, c.pos = append(c.cur, body...), 0
			c.idx++
		}
		rest := c.cur[c.pos:]
		if len(p)-n > len(rest) && (n == 0 || n+len(rest) < limit) {
			n += copy(p[n:], rest)
			c.pos = len(c.cur)
			continue
		}
		// Some of this frame, never all of it.
		k := min(len(p)-n, len(rest)-1, 1+c.idx*7919%6000)
		n += copy(p[n:], rest[:k])
		c.pos += k
		return n, nil
	}
}

// TestFramedConnChunkStaysBounded: a connection reads a million frames
// of mixed sizes, a partial frame always standing, into the one chunk
// its first read made, and a receive call allocates nothing.
func TestFramedConnChunkStaysBounded(t *testing.T) {
	const frames = 1_000_000
	src := &endlessFrames{
		sizes:   []int{0, 1, 17, 300, 1500, 64, 4000, 2, arenaMaxCarve, 700, 33},
		pattern: patterned(5, 251+arenaMaxCarve),
	}
	fc := NewFramedConn(src)
	var burst [][]byte
	var err error
	recv := func() {
		if burst, err = fc.RecvFrames(burst[:0]); err != nil {
			t.Fatal(err)
		}
	}
	recv()
	chunk := &fc.rbuf[0]
	for got := 0; got < frames; recv() {
		for _, f := range burst {
			if !bytes.Equal(f, src.frame(got)) {
				t.Fatalf("frame %d: %d bytes, want %d, or content differs", got, len(f), len(src.frame(got)))
			}
			got++
		}
		if fc.rend == fc.rpos {
			t.Fatalf("after %d frames: test lost its point, no partial frame is standing", got)
		}
		if &fc.rbuf[0] != chunk || cap(fc.rbuf) != arenaChunkSize {
			t.Fatalf("after %d frames the connection reads into another chunk (cap %d)", got, cap(fc.rbuf))
		}
	}
	if allocs := testing.AllocsPerRun(1000, recv); allocs != 0 {
		t.Fatalf("RecvFrames allocates %v objects per call, want 0", allocs)
	}
}
