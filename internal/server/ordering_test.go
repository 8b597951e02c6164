package server

// Session-ordering invariants: a read executes on the session's reader
// goroutine or, when it had to wait, on its writer goroutine, but
// release order stays strictly FIFO per session, and a read never
// observes state older than the session's own preceding writes — even
// while other sessions mutate the same znodes concurrently.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
)

// TestInterleavedReadAfterOwnWrite pipelines W,R,R,...,R rounds on one
// session while sibling sessions hammer the same znode, and asserts
// every read observed at least the version its own preceding write
// produced (read-after-own-write) and that versions never go backwards
// within the session (monotonic reads). Run with -race: this is the
// digest-verified ordering check for the split pipeline.
func TestInterleavedReadAfterOwnWrite(t *testing.T) {
	tc := newTestCluster(t, 3)
	cl := tc.connect(0, client.Options{})
	defer cl.Close()

	if _, err := cl.Create(ctxbg, "/rw", []byte("v0"), 0); err != nil {
		t.Fatal(err)
	}

	// Contending sessions: keep writing the same znode from other
	// replicas so parked-read wakeups interleave with foreign commits.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		noisy := tc.connect(i%3, client.Options{})
		defer noisy.Close()
		wg.Add(1)
		go func(cl *client.Client, tag int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Set(ctxbg, "/rw", []byte(fmt.Sprintf("noise-%d-%d", tag, n)), -1); err != nil {
					return // cluster shutting down
				}
			}
		}(noisy, i)
	}

	const rounds = 40
	const readsPerRound = 4
	type round struct {
		set   *client.Future
		reads [readsPerRound]*client.Future
	}
	var rs [rounds]round
	for i := range rs {
		rs[i].set = cl.SetAsync("/rw", []byte(fmt.Sprintf("mine-%d", i)), -1)
		for j := range rs[i].reads {
			rs[i].reads[j] = cl.GetAsync("/rw", false)
		}
	}

	prev := int32(-1)
	for i := range rs {
		setRes := rs[i].set.Wait()
		if setRes.Err != nil {
			t.Fatalf("round %d: set: %v", i, setRes.Err)
		}
		wrote := setRes.Stat.Version
		for j, f := range rs[i].reads {
			res := f.Wait()
			if res.Err != nil {
				t.Fatalf("round %d read %d: %v", i, j, res.Err)
			}
			if res.Stat.Version < wrote {
				t.Fatalf("round %d read %d observed version %d, own write produced %d (read overtook own write)",
					i, j, res.Stat.Version, wrote)
			}
			if res.Stat.Version < prev {
				t.Fatalf("round %d read %d: version went backwards %d -> %d", i, j, prev, res.Stat.Version)
			}
			prev = res.Stat.Version
		}
	}
	close(stop)
	wg.Wait()
}

// TestResponseXidOrder drives the wire protocol directly (no client
// xid-matching map in the way) and asserts responses are released in
// exactly the request submission order, writes and reads interleaved.
// The entry enclave's response-matching queue depends on this release
// order, so it is pinned at the transport level.
func TestResponseXidOrder(t *testing.T) {
	tc := newTestCluster(t, 3)
	a, b := transport.NewChanPipe()
	tc.wg.Add(1)
	go func() {
		defer tc.wg.Done()
		_ = tc.replicas[0].ServeConn(b, nil)
	}()
	defer a.Close()

	// Handshake.
	if err := a.SendFrame(wire.Marshal(&wire.ConnectRequest{TimeoutMillis: 10000})); err != nil {
		t.Fatal(err)
	}
	frame, err := a.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	var connResp wire.ConnectResponse
	if err := wire.Unmarshal(frame, &connResp); err != nil {
		t.Fatal(err)
	}

	send := func(xid int32, op wire.OpCode, body wire.Record) {
		t.Helper()
		if err := a.SendFrame(wire.MarshalPair(&wire.RequestHeader{Xid: xid, Op: op}, body)); err != nil {
			t.Fatalf("send xid %d: %v", xid, err)
		}
	}

	const n = 120
	send(1, wire.OpCreate, &wire.CreateRequest{Path: "/xo", Data: []byte("v")})
	for xid := int32(2); xid <= n; xid++ {
		// A write every 8th request keeps reads parking and resuming.
		if xid%8 == 0 {
			send(xid, wire.OpSetData, &wire.SetDataRequest{Path: "/xo", Data: []byte("w"), Version: -1})
		} else {
			send(xid, wire.OpGetData, &wire.GetDataRequest{Path: "/xo"})
		}
	}

	for want := int32(1); want <= n; want++ {
		frame, err := a.RecvFrame()
		if err != nil {
			t.Fatalf("recv (want xid %d): %v", want, err)
		}
		var hdr wire.ReplyHeader
		d := wire.NewDecoder(frame)
		if err := hdr.Deserialize(d); err != nil {
			t.Fatal(err)
		}
		if hdr.Xid == wire.WatcherEventXid {
			want--
			continue
		}
		if hdr.Xid != want {
			t.Fatalf("response released out of order: got xid %d, want %d", hdr.Xid, want)
		}
		if hdr.Err != wire.ErrOK {
			t.Fatalf("xid %d failed: %v", hdr.Xid, hdr.Err)
		}
	}
}

// TestRepeatedXidInFlight: a client that reuses an xid while its first
// use is still in flight gets both replies, in order. The session queue
// is the only record of a write on its origin replica, so a commit finds
// "the first unanswered write with this xid", and a second use cannot
// overwrite the first. On a follower, so both writes are forwarded.
func TestRepeatedXidInFlight(t *testing.T) {
	tc := newTestCluster(t, 3)
	leader := tc.waitLeader(time.Second)
	follower := tc.replicas[int(leader.ID())%3]
	a, b := transport.NewChanPipe()
	tc.wg.Add(1)
	go func() {
		defer tc.wg.Done()
		_ = follower.ServeConn(b, nil)
	}()
	defer a.Close()
	if err := a.SendFrame(wire.Marshal(&wire.ConnectRequest{TimeoutMillis: 10000})); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecvFrame(); err != nil {
		t.Fatal(err)
	}

	paths := []string{"/dup-a", "/dup-b"}
	var burst [][]byte
	for _, p := range paths {
		burst = append(burst, wire.MarshalPair(&wire.RequestHeader{Xid: 7, Op: wire.OpCreate},
			&wire.CreateRequest{Path: p, Data: []byte("v")}))
	}
	if err := a.SendFrames(burst); err != nil {
		t.Fatal(err)
	}
	replies := make(chan []byte)
	go func() {
		defer close(replies)
		for range paths {
			frame, err := a.RecvFrame()
			if err != nil {
				return
			}
			replies <- append([]byte(nil), frame...)
		}
	}()
	for i, p := range paths {
		select {
		case frame, ok := <-replies:
			if !ok {
				t.Fatalf("reply %d: connection closed", i)
			}
			var hdr wire.ReplyHeader
			var resp wire.CreateResponse
			d := wire.NewDecoder(frame)
			if err := hdr.Deserialize(d); err != nil || hdr.Xid != 7 || hdr.Err != wire.ErrOK {
				t.Fatalf("reply %d: header %+v, %v", i, hdr, err)
			}
			if err := resp.Deserialize(d); err != nil || resp.Path != p {
				t.Fatalf("reply %d: created %q (%v), want %q: replies out of order", i, resp.Path, err, p)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("reply %d never came", i)
		}
		if _, err := leader.Tree().Exists(p); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

// countingInterceptor passes messages through and counts its calls: one
// call is what costs the entry enclave one crossing.
type countingInterceptor struct {
	reqCalls, reqMsgs, respCalls, respMsgs atomic.Int64
}

func (ci *countingInterceptor) OnRequests(msgs [][]byte) ([][]byte, error) {
	ci.reqCalls.Add(1)
	ci.reqMsgs.Add(int64(len(msgs)))
	return msgs, nil
}

func (ci *countingInterceptor) OnResponses(msgs [][]byte) ([][]byte, error) {
	ci.respCalls.Add(1)
	ci.respMsgs.Add(int64(len(msgs)))
	return msgs, nil
}

// TestResponseXidOrderOverTCPPipelined is TestResponseXidOrder on the
// path that batches: a loopback TCP connection whose client keeps a
// window of requests in flight and refills it in bursts, so the session
// reader takes several requests out of one read and through the
// interceptor in one call, and the writer finds several responses (and
// watch events) due in one pass and releases them with one call and one
// write. Release order must still be exactly submission order, every
// watch armed by a read must fire exactly once, and nothing may be lost
// between frames that shared a call or a write. At window 16 the
// interceptor must be called less than once per op; at window 1 the
// same code degenerates to one-element bursts: exactly one call per
// request and one per release pass.
func TestResponseXidOrderOverTCPPipelined(t *testing.T) {
	for _, window := range []int{16, 1} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			responseXidOrderOverTCP(t, window)
		})
	}
}

func responseXidOrderOverTCP(t *testing.T, window int) {
	tc := newTestCluster(t, 3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	icept := &countingInterceptor{}
	tc.wg.Add(1)
	go func() {
		defer tc.wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// The server's end overwrites every request frame at its next
		// receive: a read that waits in the queue behind a write of its
		// session is executed from the copy it took, or not at all.
		_ = tc.replicas[0].ServeConn(transport.NewPoisonConn(transport.NewFramedConn(conn)), icept)
	}()
	tcp, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	_ = tcp.SetDeadline(time.Now().Add(30 * time.Second)) // a lost frame fails the test instead of hanging it
	a := transport.NewFramedConn(tcp)

	if err := a.SendFrame(wire.Marshal(&wire.ConnectRequest{TimeoutMillis: 10000})); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecvFrame(); err != nil {
		t.Fatal(err)
	}

	// A watch is armed on /xw by a read and fired by a write sent more
	// than a window later, so the read has been answered (the watch is
	// set) before the write even leaves: every armed watch fires once.
	const n, fireAfter = 240, 19
	armed := 0
	request := func(xid int32) []byte {
		hdr := wire.RequestHeader{Xid: xid, Op: wire.OpGetData}
		var body wire.Record = &wire.GetDataRequest{Path: "/xo"}
		switch {
		case xid == 1:
			hdr.Op, body = wire.OpCreate, &wire.CreateRequest{Path: "/xo", Data: []byte("v")}
		case xid == 2:
			hdr.Op, body = wire.OpCreate, &wire.CreateRequest{Path: "/xw", Data: []byte("v")}
		case xid%32 == 5 && xid+fireAfter <= n:
			body = &wire.GetDataRequest{Path: "/xw", Watch: true}
			armed++
		case xid%32 == 5+fireAfter:
			hdr.Op, body = wire.OpSetData, &wire.SetDataRequest{Path: "/xw", Data: []byte("fire"), Version: -1}
		case xid%8 == 0:
			// A write every 8th request keeps reads parking and resuming
			// in groups.
			hdr.Op, body = wire.OpSetData, &wire.SetDataRequest{Path: "/xo", Data: []byte("w"), Version: -1}
		}
		return wire.MarshalPair(&hdr, body)
	}

	// refill sends the next k requests as one burst.
	next := int32(1)
	var burst [][]byte
	refill := func(k int) {
		t.Helper()
		burst = burst[:0]
		for ; k > 0 && next <= n; k-- {
			burst = append(burst, request(next))
			next++
		}
		if err := a.SendFrames(burst); err != nil {
			t.Fatalf("send up to xid %d: %v", next-1, err)
		}
	}
	refill(window)
	events := 0
	var frames [][]byte
	for want := int32(1); want <= n || events < armed; {
		frames, err = a.RecvFrames(frames[:0])
		if err != nil {
			t.Fatalf("recv (want xid %d, %d of %d watch events seen): %v", want, events, armed, err)
		}
		answered := 0
		for _, frame := range frames {
			var hdr wire.ReplyHeader
			d := wire.NewDecoder(frame)
			if err := hdr.Deserialize(d); err != nil {
				t.Fatal(err)
			}
			if hdr.Xid == wire.WatcherEventXid {
				var ev wire.WatcherEvent
				if err := ev.Deserialize(d); err != nil || ev.Path != "/xw" {
					t.Fatalf("watch event %d: %+v, %v", events, ev, err)
				}
				events++
				continue
			}
			if hdr.Xid != want {
				t.Fatalf("response released out of order: got xid %d, want %d", hdr.Xid, want)
			}
			if hdr.Err != wire.ErrOK {
				t.Fatalf("xid %d failed: %v", hdr.Xid, hdr.Err)
			}
			want++
			answered++
		}
		refill(answered)
	}
	if events != armed {
		t.Fatalf("%d watch events for %d armed watches", events, armed)
	}
	h := tc.replicas[0].framesPerRelease.Snapshot()
	if h.Sum < int64(n+armed) {
		t.Fatalf("server_frames_per_release_write counted %d frames, session released at least %d", h.Sum, n+armed)
	}
	if h := tc.replicas[0].framesPerRead.Snapshot(); h.Sum != n {
		t.Fatalf("server_frames_per_request_read counted %d frames, session sent %d", h.Sum, n)
	}
	reqCalls, respCalls := icept.reqCalls.Load(), icept.respCalls.Load()
	if got := icept.reqMsgs.Load(); got != n {
		t.Fatalf("interceptor saw %d requests, session sent %d", got, n)
	}
	if got := icept.respMsgs.Load(); got != int64(n+armed) {
		t.Fatalf("interceptor saw %d responses and events, session released %d", got, n+armed)
	}
	t.Logf("%d ops: %d request calls, %d release calls, %d frames in %d writes", n, reqCalls, respCalls, h.Sum, h.Count)
	if window == 1 {
		// One in flight: every burst has one element. A watch event may
		// share a pass with a response or get its own.
		if reqCalls != n || respCalls < n || respCalls > int64(n+armed) {
			t.Fatalf("window 1: %d request calls and %d release calls for %d ops and %d events, want one per op",
				reqCalls, respCalls, n, armed)
		}
	} else if reqCalls+respCalls >= n {
		t.Fatalf("window %d: %d interceptor calls for %d ops — bursts were taken apart", window, reqCalls+respCalls, n)
	}
}

// TestParkedReadsFailOnLeaderLoss pins the failover contract of parked
// reads: a read waiting on an uncommitted same-session write must fail
// with CONNECTIONLOSS when leadership is lost — never hang, and never
// complete as if its read-after-own-write baseline still held.
func TestParkedReadsFailOnLeaderLoss(t *testing.T) {
	tc := newTestCluster(t, 3)
	leader := tc.waitLeader(5 * time.Second)
	leaderIdx := int(leader.ID()) - 1
	followerIdx := (leaderIdx + 1) % 3

	cl := tc.connect(followerIdx, client.Options{})
	defer cl.Close()
	if _, err := cl.Create(ctxbg, "/park", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}

	// Kill the leader, then immediately pipeline a write (forwarded
	// into the void) followed by reads that park behind it. The
	// follower only learns about the loss at its election timeout; the
	// parked reads must ride the role-change abort out as
	// CONNECTIONLOSS rather than waiting for a commit that never comes.
	leader.Close()
	setF := cl.SetAsync("/park", []byte("v2"), -1)
	var reads []*client.Future
	for i := 0; i < 8; i++ {
		reads = append(reads, cl.GetAsync("/park", false))
	}

	deadline := time.After(10 * time.Second)
	wait := func(f *client.Future, what string) client.Result {
		select {
		case res := <-f.Done():
			return res
		case <-deadline:
			t.Fatalf("%s hung: parked request not failed on leader loss", what)
			return client.Result{}
		}
	}
	if res := wait(setF, "write"); res.Err == nil {
		// The write may sneak in if the dying leader committed it
		// before closing; then reads legitimately complete too.
		t.Log("write committed before leader fully closed; reads served normally")
		for i, f := range reads {
			if res := wait(f, fmt.Sprintf("read %d", i)); res.Err != nil && !isConnLoss(res.Err) {
				t.Fatalf("read %d: unexpected error %v", i, res.Err)
			}
		}
		return
	} else if !isConnLoss(res.Err) {
		t.Fatalf("write failed with %v, want CONNECTIONLOSS", res.Err)
	}
	for i, f := range reads {
		res := wait(f, fmt.Sprintf("read %d", i))
		if res.Err == nil {
			t.Fatalf("read %d completed although its preceding write was aborted", i)
		}
		if !isConnLoss(res.Err) {
			t.Fatalf("read %d failed with %v, want CONNECTIONLOSS", i, res.Err)
		}
	}
}

func isConnLoss(err error) bool {
	var pe *wire.ProtocolError
	return errors.As(err, &pe) && pe.Code == wire.ErrConnectionLoss
}

// readBodyOf returns the body of a GetData request for path, as the
// session reader would hand it to handleRead.
func readBodyOf(t *testing.T, path string) []byte {
	t.Helper()
	msg := wire.MarshalPair(&wire.RequestHeader{Op: wire.OpGetData}, &wire.GetDataRequest{Path: path})
	d := wire.NewDecoder(msg)
	var hdr wire.RequestHeader
	if err := hdr.Deserialize(d); err != nil {
		t.Fatal(err)
	}
	return msg[d.Offset():]
}

// releasedReply is one response gatherDue released, decoded.
type releasedReply struct {
	xid     int32
	err     wire.ErrCode
	version int32 // GetData replies only
}

func decodeReleased(t *testing.T, due [][]byte, isRead func(xid int32) bool) []releasedReply {
	t.Helper()
	out := make([]releasedReply, 0, len(due))
	for _, msg := range due {
		var hdr wire.ReplyHeader
		d := wire.NewDecoder(msg)
		if err := hdr.Deserialize(d); err != nil {
			t.Fatal(err)
		}
		rel := releasedReply{xid: hdr.Xid, err: hdr.Err}
		if hdr.Err == wire.ErrOK && isRead(hdr.Xid) {
			var resp wire.GetDataResponse
			if err := resp.Deserialize(d); err != nil {
				t.Fatal(err)
			}
			rel.version = resp.Stat.Version
		}
		out = append(out, rel)
	}
	return out
}

// TestWatermarkOutOfOrderAbort is the white-box check of the one-queue
// rule when writes complete out of order (a later forwarded write is
// rejected while an earlier one is still with the leader): the abort of
// the later write must neither release nor fail the read waiting behind
// the still-pending earlier write — only the read behind the aborted
// write fails — and the earlier write's commit releases everything in
// request order.
func TestWatermarkOutOfOrderAbort(t *testing.T) {
	tc := newTestCluster(t, 1)
	r := tc.replicas[0]
	if _, err := r.tree.Create("/wm", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	s := unstartedSession(r, 4242)

	admit := func(xid int32, op wire.OpCode, body []byte) uint64 {
		seq, _, runNow, ok := s.admit(xid, op, body)
		if runNow || !ok {
			t.Fatalf("xid %d: admit = (runNow %v, ok %v), want queued", xid, runNow, ok)
		}
		return seq
	}
	admit(1, wire.OpSetData, nil)
	r1 := admit(3, wire.OpGetData, readBodyOf(t, "/wm"))
	admit(2, wire.OpSetData, nil)
	r2 := admit(4, wire.OpGetData, readBodyOf(t, "/wm"))

	// W2 aborts out of order while W1 is still pending.
	s.abort(2)
	if due, _, _ := s.gatherDue(nil); len(due) != 0 {
		t.Fatalf("released %d responses past still-pending write 1", len(due))
	}
	if isAnswered(s, r1) {
		t.Fatal("read behind pending write 1 answered on write 2's abort")
	}
	if !isAnswered(s, r2) {
		t.Fatal("read behind aborted write 2 not failed")
	}
	s.mu.Lock()
	waiting := s.waiting
	s.mu.Unlock()
	if waiting != 2 {
		t.Fatalf("waiting = %d with write 1 and its read pending, want 2", waiting)
	}

	// W1 commits: one pass executes r1 and releases all four in order.
	commitSet(s, 1, 9, false)
	due, n, closing := s.gatherDue(nil)
	if closing {
		t.Fatal("pass reported CloseSession")
	}
	got := decodeReleased(t, due, func(xid int32) bool { return xid >= 3 })
	want := []releasedReply{
		{xid: 1, err: wire.ErrOK},
		{xid: 3, err: wire.ErrOK},
		{xid: 2, err: wire.ErrConnectionLoss},
		{xid: 4, err: wire.ErrConnectionLoss},
	}
	if len(got) != len(want) {
		t.Fatalf("released %d responses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("release %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	s.release(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.waiting != 0 || s.head != s.tail {
		t.Fatalf("waiting = %d, %d requests unreleased after everything was released", s.waiting, s.tail-s.head)
	}
}

// TestSessionQueueSeededSchedules is the session's model. An unstarted
// session is driven through seeded random schedules of every operation
// its reader, its writer and its completions perform, and checked after
// every step against a reference that keeps each request's fate by seq:
//   - the reader admits a read or a write (a quarter of the writes reuse
//     an earlier write's xid), and finishes, later, a read it was given
//     to run at once — drain passes run in between;
//   - a commit on the plain and on the durable path, a flush that
//     succeeded or failed, a reject (abort), a failed submit (refuse), a
//     role change (abortWrites), each also after the write it names was
//     answered, released and its slot reused;
//   - a watch event fires.
//
// The checks: waiting is the count of pending slots, and the ring holds
// each unreleased request in the reference's state; each request is
// answered and released once, in admission order, and a pass's watch
// events follow its replies intact; a read never executes before an
// earlier write was answered, and exactly the reads queued behind an
// aborted write fail. The znode's version is bumped before every step
// that can answer a write, so a read's reply says when it executed.
func TestSessionQueueSeededSchedules(t *testing.T) {
	const seeds, steps = 2000, 120
	tc := newTestCluster(t, 1)
	r := tc.replicas[0]
	if _, err := r.tree.Create("/wm", nil, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	body := readBodyOf(t, "/wm")
	var version int32 // of /wm
	bump := func() {
		stat, err := r.tree.SetData("/wm", nil, -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		version = stat.Version
	}
	event := func(n int) wire.WatcherEvent {
		return wire.WatcherEvent{Type: wire.EventNodeDataChanged, State: 3, Path: "/e" + strconv.Itoa(n)}
	}
	// req is the reference's record of one request, by seq.
	type req struct {
		xid      int32
		write    bool
		state    slotState
		staged   int64
		zxid     int64 // a committed write's reply carries it
		failed   bool  // answered with CONNECTIONLOSS
		resolved int32 // a write: the version when it was answered
		version  int32 // a read that executed: the version it saw
	}
	type flush struct {
		xid  int32
		zxid int64
	}
	// Coverage: a schedule set that never reaches these would not test
	// what the model is for.
	var grows, wrappedRefuses, runningDrains, lateFlushes int

	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := unstartedSession(r, 5000+seed)
		var reqs []*req
		var writes []int    // seqs of the writes
		var flushes []flush // staged commits whose flush has not run
		head, runSeq := 0, -1
		var runDst []byte
		var zxid int64
		var lastResolved int32 // of the released writes
		events, eventsReleased := 0, 0
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
		}

		pendingCount := func() int {
			n := 0
			for _, q := range reqs[head:] {
				if q.state == pending {
					n++
				}
			}
			return n
		}
		// find is the reference's lookup of the write a completion names.
		find := func(xid int32, staged int64) int {
			for i := head; i < len(reqs); i++ {
				if q := reqs[i]; q.write && q.state == pending && q.xid == xid && q.staged == staged {
					return i
				}
			}
			return -1
		}
		answer := func(i int, aborted bool) {
			w := reqs[i]
			w.state, w.staged, w.failed, w.resolved = answered, 0, aborted, version
			for _, q := range reqs[i+1:] {
				if aborted && !q.write && q.state == pending {
					q.state, q.failed = answered, true
				}
			}
		}
		drawXid := func() (int32, bool) {
			if len(writes) == 0 {
				return 0, false
			}
			if i := head + rng.Intn(len(reqs)-head+1); i < len(reqs) && rng.Intn(5) > 0 && reqs[i].write {
				return reqs[i].xid, true
			}
			return reqs[writes[rng.Intn(len(writes))]].xid, true
		}
		drain := func() int {
			if runSeq >= 0 {
				runningDrains++
			}
			due, n, closing := s.gatherDue(nil)
			want := 0
			for _, q := range reqs[head:] {
				if q.state == running || q.write && q.state == pending {
					break
				}
				if q.state == pending { // a queued read, executed by this pass
					q.state, q.version = answered, version
				}
				want++
			}
			if int(n) != want || len(due) != want+events-eventsReleased || closing {
				fail("a pass released %d requests and %d messages (closing %v), want %d requests and %d watch events",
					n, len(due), closing, want, events-eventsReleased)
			}
			for k, msg := range due {
				if k >= want {
					eventsReleased++
					ev := event(eventsReleased)
					if string(msg) != string(wire.MarshalPair(&wire.ReplyHeader{Xid: wire.WatcherEventXid}, &ev)) {
						fail("watch event %d released as % x", eventsReleased, msg)
					}
					continue
				}
				q := reqs[head+k]
				var hdr wire.ReplyHeader
				d := wire.NewDecoder(msg)
				if err := hdr.Deserialize(d); err != nil {
					fail("seq %d: released % x: %v", head+k, msg, err)
				}
				if hdr.Xid != q.xid {
					fail("seq %d released with xid %d, want %d (admission order)", head+k, hdr.Xid, q.xid)
				}
				if q.failed != (hdr.Err == wire.ErrConnectionLoss) || !q.failed && hdr.Err != wire.ErrOK {
					fail("seq %d (xid %d) answered %v, want failed = %v", head+k, q.xid, hdr.Err, q.failed)
				}
				switch {
				case q.write:
					if !q.failed && hdr.Zxid != q.zxid {
						fail("write seq %d released the reply of zxid %d, want %d", head+k, hdr.Zxid, q.zxid)
					}
					lastResolved = max(lastResolved, q.resolved)
				case !q.failed:
					var resp wire.GetDataResponse
					if err := resp.Deserialize(d); err != nil {
						fail("read seq %d: %v", head+k, err)
					}
					if v := resp.Stat.Version; v < lastResolved || v != q.version {
						fail("read seq %d executed at version %d, want %d, after the writes ahead of it were answered (by %d)",
							head+k, v, q.version, lastResolved)
					}
				}
			}
			s.release(n)
			head += want
			return len(due)
		}
		check := func(step int) {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.head != uint64(head) || s.tail != uint64(len(reqs)) {
				fail("step %d: ring holds seqs [%d, %d), want [%d, %d)", step, s.head, s.tail, head, len(reqs))
			}
			n := 0
			for seq := s.head; seq < s.tail; seq++ {
				e, q := s.at(seq), reqs[seq]
				if e.xid != q.xid || e.state != q.state || e.staged != q.staged {
					fail("step %d: seq %d holds xid %d in state %d staged at %d, want xid %d in state %d staged at %d",
						step, seq, e.xid, e.state, e.staged, q.xid, q.state, q.staged)
				}
				if e.state == pending {
					n++
				}
			}
			if s.waiting != n || n != pendingCount() {
				fail("step %d: waiting = %d with %d pending slots, want %d", step, s.waiting, n, pendingCount())
			}
		}

		for step := 0; step < steps; step++ {
			switch op := rng.Intn(100); {
			case op < 40 && runSeq < 0: // the reader admits
				write := rng.Intn(2) == 0
				xid, opc := int32(len(reqs)+1), wire.OpGetData
				if write {
					opc = wire.OpSetData
					if len(writes) > 0 && rng.Intn(4) == 0 {
						xid = reqs[writes[rng.Intn(len(writes))]].xid
					}
					writes = append(writes, len(reqs))
				}
				s.mu.Lock()
				full := s.tail-s.head == uint64(len(s.ring)) && s.head > 0
				s.mu.Unlock()
				if full {
					grows++
				}
				wantRun := !write && pendingCount() == 0
				seq, dst, runNow, ok := s.admit(xid, opc, body)
				if !ok || seq != uint64(len(reqs)) || runNow != wantRun {
					fail("admit of xid %d = (seq %d, runNow %v, ok %v), want (%d, %v, true)", xid, seq, runNow, ok, len(reqs), wantRun)
				}
				q := &req{xid: xid, write: write}
				if runNow {
					q.state, runSeq, runDst = running, len(reqs), dst
				}
				reqs = append(reqs, q)
			case op < 40: // the reader finishes the read it runs
				q := reqs[runSeq]
				s.ran(uint64(runSeq), r.handleRead(s, runDst, q.xid, wire.OpGetData, body))
				q.state, q.version, runSeq = answered, version, -1
			case op < 60: // a commit
				xid, ok := drawXid()
				if !ok {
					break
				}
				durable := rng.Intn(2) == 0
				if !durable {
					bump()
				}
				zxid++
				i := find(xid, 0)
				if staged := commitSet(s, xid, zxid, durable); staged != (durable && i >= 0) {
					fail("commit of xid %d at zxid %d staged = %v, want %v", xid, zxid, staged, durable && i >= 0)
				}
				switch {
				case i < 0:
				case durable:
					reqs[i].staged, reqs[i].zxid = zxid, zxid
					flushes = append(flushes, flush{xid, zxid})
				default:
					reqs[i].zxid = zxid
					answer(i, false)
				}
			case op < 68 && len(flushes) > 0: // a flush returns
				k := rng.Intn(len(flushes))
				f := flushes[k]
				flushes = append(flushes[:k], flushes[k+1:]...)
				bump()
				var err error
				if rng.Intn(4) == 0 {
					err = errFlush
				}
				i := find(f.xid, f.zxid)
				s.flushed(f.xid, f.zxid, err)
				if i < 0 {
					lateFlushes++
				} else {
					answer(i, err != nil)
				}
			case op < 74: // a reject
				xid, ok := drawXid()
				if !ok {
					break
				}
				bump()
				i := find(xid, 0)
				s.abort(xid)
				if i >= 0 {
					answer(i, true)
				}
			case op < 78 && runSeq < 0 && len(writes) > 0: // a failed submit
				seq := writes[rng.Intn(len(writes))]
				s.mu.Lock()
				size := len(s.ring)
				s.mu.Unlock()
				for i := max(head, seq+size); i < len(reqs); i += size {
					if reqs[i].state == pending {
						wrappedRefuses++
					}
				}
				bump()
				s.refuse(uint64(seq))
				if reqs[seq].state == pending {
					answer(seq, true)
				}
			case op < 80: // a role change
				bump()
				s.abortWrites()
				for i := head; i < len(reqs); i++ {
					if reqs[i].write && reqs[i].state == pending {
						answer(i, true)
					}
				}
			case op < 84:
				events++
				s.Notify(event(events))
			default:
				drain()
			}
			check(step)
		}
		// The reader finishes, a role change answers every write, and the
		// writer releases the rest.
		if runSeq >= 0 {
			q := reqs[runSeq]
			s.ran(uint64(runSeq), r.handleRead(s, runDst, q.xid, wire.OpGetData, body))
			q.state, q.version, runSeq = answered, version, -1
		}
		bump()
		s.abortWrites()
		for i := head; i < len(reqs); i++ {
			if reqs[i].write && reqs[i].state == pending {
				answer(i, true)
			}
		}
		for drain() > 0 {
		}
		check(steps)
		if head != len(reqs) || eventsReleased != events {
			fail("released %d of %d requests and %d of %d watch events", head, len(reqs), eventsReleased, events)
		}
	}
	if grows == 0 || wrappedRefuses == 0 || runningDrains == 0 || lateFlushes == 0 {
		t.Fatalf("schedules grew a used ring %d times, refused a seq whose slot held a pending request %d times, drained during a running read %d times and flushed late %d times; each must happen",
			grows, wrappedRefuses, runningDrains, lateFlushes)
	}
	t.Logf("%d seeds: %d ring growths, %d refuses of a reused slot, %d drains during a running read, %d late flushes",
		seeds, grows, wrappedRefuses, runningDrains, lateFlushes)
}

// TestParkedReadsResumeOnCommit asserts the wakeup path: reads parked
// behind a slow write all complete once that write commits, and they
// observe the write's effect.
func TestParkedReadsResumeOnCommit(t *testing.T) {
	tc := newTestCluster(t, 3)
	cl := tc.connect(0, client.Options{})
	defer cl.Close()

	if _, err := cl.Create(ctxbg, "/wake", []byte("v0"), 0); err != nil {
		t.Fatal(err)
	}
	const readers = 16
	setF := cl.SetAsync("/wake", []byte("v1"), -1)
	var fs [readers]*client.Future
	for i := range fs {
		fs[i] = cl.GetAsync("/wake", false)
	}
	setRes := setF.Wait()
	if setRes.Err != nil {
		t.Fatal(setRes.Err)
	}
	for i, f := range fs {
		res := f.Wait()
		if res.Err != nil {
			t.Fatalf("read %d: %v", i, res.Err)
		}
		if res.Stat.Version < setRes.Stat.Version {
			t.Fatalf("read %d observed version %d before own write's %d", i, res.Stat.Version, setRes.Stat.Version)
		}
	}
}

// TestConcurrentSessionsReadThroughput sanity-checks the scale-out
// property the split exists for: many sessions reading concurrently all
// make progress while one session's writes are in flight (no global
// serialization point in the read path).
func TestConcurrentSessionsReadThroughput(t *testing.T) {
	tc := newTestCluster(t, 3)
	setup := tc.connect(0, client.Options{})
	if _, err := setup.Create(ctxbg, "/tp", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	_ = setup.Close()

	const sessions = 8
	const opsPer = 200
	var total atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		cl := tc.connect(i%3, client.Options{})
		defer cl.Close()
		wg.Add(1)
		go func(cl *client.Client, id int) {
			defer wg.Done()
			// A follower applies a commit after the leader has
			// acknowledged it: SYNC is how a session gets to read what
			// another session wrote through another replica.
			if err := cl.Sync(ctxbg, "/tp"); err != nil {
				t.Errorf("session %d sync: %v", id, err)
				return
			}
			for n := 0; n < opsPer; n++ {
				if id == 0 && n%10 == 0 {
					if _, err := cl.Set(ctxbg, "/tp", []byte("w"), -1); err != nil {
						t.Errorf("session %d set: %v", id, err)
						return
					}
					continue
				}
				if _, _, err := cl.Get(ctxbg, "/tp"); err != nil {
					t.Errorf("session %d get: %v", id, err)
					return
				}
				total.Add(1)
			}
		}(cl, i)
	}
	wg.Wait()
	if total.Load() == 0 {
		t.Fatal("no reads completed")
	}
}
