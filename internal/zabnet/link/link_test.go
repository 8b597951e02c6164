package link

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// drain returns what Take hands the writer, copied, with the frames
// reported written.
func drain(c *Core) [][]byte {
	var out [][]byte
	frames := c.Take()
	for _, f := range frames {
		out = append(out, bytes.Clone(f))
	}
	c.Wrote(len(frames))
	return out
}

func upCore(maxFrames, chunk int) *Core {
	c := New(maxFrames, chunk)
	c.Up()
	return c
}

// TestFramesMatchTheWire: the frames of a message are byte for byte
// what the mesh sent before its link rules became this core — recorded
// from that code's send buffer (enqueue and appendFragments), for a
// message of exactly one chunk, one a byte over, one of three chunks,
// and a 2.5 MiB one in the mesh's 1 MiB chunks.
func TestFramesMatchTheWire(t *testing.T) {
	for _, tc := range []struct {
		body string
		want string // hex of the frames back to back
		ends []int
	}{
		{"single!!", "0273696e676c652121", []int{9}},
		{"nine-byte", "0300000000000000096e696e652d6279740565", []int{17, 19}},
		{"0123456789abcdefghij", "0300000000000000143031323334353637043839616263646566056768696a", []int{17, 26, 31}},
	} {
		c := upCore(64, 8)
		if st := c.Enqueue([]byte(tc.body)); st != Queued {
			t.Fatalf("%q: status %d", tc.body, st)
		}
		var got []byte
		var ends []int
		for _, f := range c.Take() {
			got = append(got, f...)
			ends = append(ends, len(got))
		}
		if hex.EncodeToString(got) != tc.want || !slices.Equal(ends, tc.ends) {
			t.Errorf("%q: frames %x ending at %v, want %s ending at %v", tc.body, got, ends, tc.want, tc.ends)
		}
	}

	body := make([]byte, 5<<19+3)
	for i := range body {
		body[i] = byte(i % 251)
	}
	c := upCore(4096, 1<<20)
	c.Enqueue(body)
	h := sha256.New()
	var ends []int
	n := 0
	for _, f := range c.Take() {
		h.Write(f)
		n += len(f)
		ends = append(ends, n)
	}
	const want = "efa4f6d7b73a26f40f6e3ecffc31fc82de17f212d7d3b25d10c421b7ad5895cf"
	if got := hex.EncodeToString(h.Sum(nil)); got != want || !slices.Equal(ends, []int{1048585, 2097162, 2621454}) {
		t.Errorf("2.5 MiB message: frames hash to %s ending at %v", got, ends)
	}
}

// TestOutboxOverflowSheds: a message that would take the frames queued
// past the bound is shed whole, a fragmented one included, and the
// queue keeps what it had; a link that is down takes nothing.
func TestOutboxOverflowSheds(t *testing.T) {
	c := New(4, 8)
	if st := c.Enqueue([]byte("x")); st != Down {
		t.Fatalf("enqueue on a link never up: status %d, want Down", st)
	}
	c.Up()
	for i := 0; i < 2; i++ {
		if st := c.Enqueue([]byte{byte(i)}); st != Queued {
			t.Fatalf("frame %d: status %d", i, st)
		}
	}
	if st := c.Enqueue(make([]byte, 17)); st != Shed { // three fragments, two places
		t.Fatalf("a 3-frame message behind 2 of 4: status %d, want Shed", st)
	}
	if st := c.Enqueue(make([]byte, 16)); st != Queued { // two fragments fit
		t.Fatalf("a 2-frame message behind 2 of 4: status %d", st)
	}
	if st := c.Enqueue([]byte{9}); st != Shed {
		t.Fatalf("a 5th frame: status %d, want Shed", st)
	}
	if got := drain(c); len(got) != 4 || got[0][1] != 0 || got[1][1] != 1 || got[2][0] != FrameFragBegin || got[3][0] != FrameFragEnd {
		t.Fatalf("queue after the sheds: %x", got)
	}
}

// TestOutboxBoundCountsFramesBeingWritten: the frames the writer took
// occupy the queue until it reports them written, so a link to a peer
// that stopped reading holds the bound's frames, not that many behind
// the write and as many again inside it.
func TestOutboxBoundCountsFramesBeingWritten(t *testing.T) {
	c := upCore(4, 512)
	for i := byte(1); i <= 3; i++ {
		c.Enqueue([]byte{i})
	}
	if n := len(c.Take()); n != 3 {
		t.Fatalf("writer took %d frames, want the 3 queued", n)
	}
	if d := c.Depth(); d != 3 {
		t.Fatalf("depth %d while 3 frames are being written, want 3", d)
	}
	if st := c.Enqueue([]byte{4}); st != Queued {
		t.Fatalf("4th frame of 4: status %d", st)
	}
	if st := c.Enqueue([]byte{5}); st != Shed {
		t.Fatalf("5th frame behind a write of 3: status %d, want Shed", st)
	}
	if d := c.Depth(); d != 4 {
		t.Fatalf("depth %d, want 4", d)
	}
	c.Wrote(3) // the write of 3 completes,
	if got := c.Take(); len(got) != 1 || got[0][1] != 4 {
		t.Fatalf("second take: %x, want the 4th frame alone", got)
	}
	for i := byte(6); i <= 8; i++ {
		if st := c.Enqueue([]byte{i}); st != Queued {
			t.Fatalf("frame %d after the first write completed: status %d", i, st)
		}
	}
}

// TestSendBufferRetentionIsBounded: a 3 MiB message's buffer serves the
// write cycle that carries it and is not kept; ordinary traffic keeps
// both buffers and, once they have grown, allocates nothing.
func TestSendBufferRetentionIsBounded(t *testing.T) {
	c := upCore(4096, 1<<20)
	cycle := func(body []byte) {
		c.Enqueue(body)
		c.Wrote(len(c.Take()))
	}
	for round := 0; round < 2; round++ { // once through each of the two buffers
		cycle(make([]byte, 3<<20))
		cycle([]byte("commit"))
		cycle([]byte("commit"))
		if cap(c.queue) > retainBytes || cap(c.taken) > retainBytes {
			t.Fatalf("round %d: the core keeps send buffers of %d and %d bytes after a 3 MiB message", round, cap(c.queue), cap(c.taken))
		}
	}
	small := make([]byte, 1024)
	if n := testing.AllocsPerRun(100, func() { cycle(small) }); n != 0 {
		t.Fatalf("a send cycle of ordinary traffic allocated %v objects", n)
	}
	if cap(c.queue) == 0 || cap(c.taken) == 0 {
		t.Fatal("ordinary traffic did not keep both send buffers")
	}
}

// TestFIFOWholeMessages: seeded streams of messages of every size class
// — empty, one chunk, one byte over, many chunks — cross a pair of cores
// in order and intact, whatever portions the writer takes them in.
func TestFIFOWholeMessages(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tx, rx := upCore(64, 16), upCore(64, 16)
		var sent, got [][]byte
		for step := 0; step < 200; step++ {
			if rng.Intn(3) > 0 {
				body := make([]byte, []int{0, 1, 16, 17, 32, 100}[rng.Intn(6)])
				rng.Read(body)
				if tx.Enqueue(body) == Queued {
					sent = append(sent, body)
				}
				continue
			}
			for _, f := range tx.Take() {
				msg, err := rx.Received(f)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if msg != nil {
					got = append(got, bytes.Clone(msg))
				}
			}
			tx.Wrote(tx.Depth())
		}
		for _, f := range tx.Take() {
			if msg, _ := rx.Received(f); msg != nil {
				got = append(got, bytes.Clone(msg))
			}
		}
		if len(got) != len(sent) {
			t.Fatalf("seed %d: %d messages sent, %d received", seed, len(sent), len(got))
		}
		for i := range sent {
			if !bytes.Equal(sent[i], got[i]) {
				t.Fatalf("seed %d: message %d differs", seed, i)
			}
		}
	}
}

// TestReceivedRejectsBrokenFraming: each sequence a peer could send
// that breaks the framing is an error at its last frame.
func TestReceivedRejectsBrokenFraming(t *testing.T) {
	begin := func(total uint64, chunk string) []byte {
		return append(binary.BigEndian.AppendUint64([]byte{FrameFragBegin}, total), chunk...)
	}
	for name, frames := range map[string][][]byte{
		"empty frame":                {{}},
		"unknown type":               {{0x07, 1}},
		"short fragment start":       {{FrameFragBegin, 0, 0}},
		"zero total":                 {begin(0, "")},
		"total past the bound":       {begin(MaxMessage+1, "x")},
		"message inside fragments":   {begin(4, "ab"), {FrameMsg, 1}},
		"start inside fragments":     {begin(4, "ab"), begin(4, "ab")},
		"continuation with no start": {{FrameFragCont, 1}},
		"end with no start":          {{FrameFragEnd, 1}},
		"overrun":                    {begin(4, "ab"), {FrameFragCont, 'c', 'd', 'e'}},
		"underrun":                   {begin(4, "ab"), {FrameFragEnd, 'c'}},
	} {
		c := upCore(8, 8)
		var err error
		for i, f := range frames {
			_, err = c.Received(f)
			if (err != nil) != (i == len(frames)-1) {
				t.Fatalf("%s: frame %d: err %v", name, i, err)
			}
		}
	}
	// A start claiming the largest message costs what has arrived.
	c := upCore(8, 8)
	if _, err := c.Received(begin(MaxMessage, "x")); err != nil {
		t.Fatal(err)
	}
	if cap(c.asm) > 64 {
		t.Fatalf("a 1-byte chunk announcing %d bytes reserved %d", MaxMessage, cap(c.asm))
	}
}

// TestRedial: after a live link dies the dial side may redial at once;
// after each failed attempt it waits out a backoff from RedialMin
// doubling to RedialMax; a connection made resets it. What was queued,
// taken or being reassembled is lost with the link.
func TestRedial(t *testing.T) {
	c := New(8, 8)
	if at := c.Next(5); at != 5 {
		t.Fatalf("a fresh core dials at %d, want at once (5)", at)
	}
	now, wait := int64(100), RedialMin
	for i := 0; i < 8; i++ {
		c.Down(now) // attempt i failed
		if at := c.Next(now); at != now+wait {
			t.Fatalf("failure %d: next attempt at +%d, want +%d", i, at-now, wait)
		}
		now, wait = now+wait, min(2*wait, RedialMax)
	}
	if wait != RedialMax {
		t.Fatalf("backoff reached %d, want the cap %d", wait, RedialMax)
	}
	c.Up()
	c.Enqueue([]byte("queued"))
	c.Received(append(binary.BigEndian.AppendUint64([]byte{FrameFragBegin}, 4), 'a'))
	c.Down(now)
	if at := c.Next(now); at != now {
		t.Fatalf("a live link died: next attempt at +%d, want at once", at-now)
	}
	c.Down(now) // the first attempt after it fails: the backoff starts over
	if at := c.Next(now); at != now+RedialMin {
		t.Fatalf("first failure after a live link: +%d, want +%d", at-now, RedialMin)
	}
	c.Up()
	if n := len(c.Take()); n != 0 || c.Depth() != 0 {
		t.Fatalf("%d frames survived the link going down", n)
	}
	if msg, err := c.Received([]byte{FrameMsg, 'm'}); err != nil || string(msg) != "m" {
		t.Fatalf("a reassembly survived the link going down: %q, %v", msg, err)
	}
}

// TestCoreIsClockless keeps the core what the simulator needs it to be:
// no goroutine, select, channel, lock, timer, socket or clock read.
func TestCoreIsClockless(t *testing.T) {
	banned := map[string]bool{"time": true, "sync": true, "sync/atomic": true, "runtime": true, "net": true, "os": true,
		"securekeeper/internal/obs": true}
	fset := token.NewFileSet()
	names, _ := filepath.Glob("*.go")
	files := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files++
		bad := func(n ast.Node, what string) { t.Errorf("%s: %s in the link core", fset.Position(n.Pos()), what) }
		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
				bad(imp, "import of "+path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				bad(n, "go statement")
			case *ast.SelectStmt:
				bad(n, "select")
			case *ast.ChanType:
				bad(n, "channel type")
			case *ast.SendStmt:
				bad(n, "channel send")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					bad(n, "channel receive")
				}
			}
			return true
		})
	}
	if files == 0 {
		t.Fatal("no core file parsed")
	}
}
