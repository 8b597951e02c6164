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

func decodeReleased(t *testing.T, due [][]byte, isRead func(i int, xid int32) bool) []releasedReply {
	t.Helper()
	out := make([]releasedReply, 0, len(due))
	for i, msg := range due {
		var hdr wire.ReplyHeader
		d := wire.NewDecoder(msg)
		if err := hdr.Deserialize(d); err != nil {
			t.Fatal(err)
		}
		rel := releasedReply{xid: hdr.Xid, err: hdr.Err}
		if hdr.Err == wire.ErrOK && isRead(i, hdr.Xid) {
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
	conn, _ := transport.NewChanPipe()
	s := newSession(r, 4242, conn, NopInterceptor{})

	admit := func(xid int32, op wire.OpCode, body []byte) *inflightReq {
		e, runNow, ok := s.admit(xid, op, body)
		if runNow || !ok {
			t.Fatalf("xid %d: admit = (runNow %v, ok %v), want queued", xid, runNow, ok)
		}
		return e
	}
	admit(1, wire.OpSetData, nil)
	r1 := admit(3, wire.OpGetData, readBodyOf(t, "/wm"))
	admit(2, wire.OpSetData, nil)
	r2 := admit(4, wire.OpGetData, readBodyOf(t, "/wm"))

	// W2 aborts out of order while W1 is still pending.
	s.abort(2)
	if due, _ := s.gatherDue(nil); len(due) != 0 {
		t.Fatalf("released %d responses past still-pending write 1", len(due))
	}
	s.mu.Lock()
	r1answered, r2answered, waiting := r1.answered, r2.answered, s.waiting
	s.mu.Unlock()
	if r1answered {
		t.Fatal("read behind pending write 1 answered on write 2's abort")
	}
	if !r2answered {
		t.Fatal("read behind aborted write 2 not failed")
	}
	if waiting != 2 {
		t.Fatalf("waiting = %d with write 1 and its read unanswered, want 2", waiting)
	}

	// W1 commits: one pass executes r1 and releases all four in order.
	s.writeDone(1, errorReply(nil, 1, 0, wire.ErrOK))
	due, closing := s.gatherDue(nil)
	if closing {
		t.Fatal("pass reported CloseSession")
	}
	got := decodeReleased(t, due, func(_ int, xid int32) bool { return xid >= 3 })
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.waiting != 0 || len(s.queue) != 0 {
		t.Fatalf("waiting = %d, queue = %d after everything was released", s.waiting, len(s.queue))
	}
}

// TestSessionQueueSeededSchedules drives an unstarted session through
// random schedules — reads and writes submitted, commits and aborts
// arriving in any order, drain passes at random points — and checks the
// one-queue rule from outside: responses leave in submission order; a
// read executes only after every write ahead of it was resolved;
// exactly the reads that were waiting behind a write when it aborted
// fail; nothing is left waiting. A write is resolved the way deliver, a
// reject and a role change find it — the first unanswered write with the
// xid — and a quarter of the writes reuse the xid of one still in
// flight, so that lookup has to pick the oldest. The znode's version is
// bumped before every step, so a read's reply says at which step it
// executed.
func TestSessionQueueSeededSchedules(t *testing.T) {
	tc := newTestCluster(t, 1)
	r := tc.replicas[0]
	if _, err := r.tree.Create("/wm", nil, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	type req struct {
		entry     *inflightReq // valid until released: entries are recycled
		xid       int32
		write     bool
		submitted int32 // step of submission
		resolved  int32 // writes: step of writeDone, 0 while pending
		aborted   bool
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		conn, _ := transport.NewChanPipe()
		s := newSession(r, 5000+seed, conn, NopInterceptor{})
		var reqs []*req
		var pending []*req // unresolved writes
		var released []releasedReply
		var step int32

		resolve := func() {
			// Any write in flight, not the oldest: commits come in order,
			// rejects and aborts need not. pending is in submission order.
			xid := pending[rng.Intn(len(pending))].xid
			i := 0
			for pending[i].xid != xid {
				i++
			}
			w := pending[i]
			s.mu.Lock()
			got := s.find(xid, 0)
			s.mu.Unlock()
			if got != w.entry {
				t.Fatalf("seed %d: find(%d) = %p, want the oldest unanswered write with that xid, %p", seed, xid, got, w.entry)
			}
			pending = append(pending[:i], pending[i+1:]...)
			w.resolved = step
			if w.aborted = rng.Intn(3) == 0; w.aborted {
				s.abort(xid)
			} else {
				s.writeDone(xid, errorReply(nil, xid, 0, wire.ErrOK))
			}
		}
		drain := func() int {
			due, _ := s.gatherDue(nil)
			base := len(released)
			released = append(released, decodeReleased(t, due, func(i int, _ int32) bool { return !reqs[base+i].write })...)
			s.recycle() // as the writer does once the pass is sent
			return len(due)
		}
		nextStep := func() {
			stat, err := r.tree.SetData("/wm", nil, -1, 0)
			if err != nil {
				t.Fatal(err)
			}
			step = stat.Version
		}
		for i := 0; i < 300; i++ {
			nextStep()
			switch action := rng.Intn(10); {
			case action < 6: // submit, as session.submit does
				q := &req{write: rng.Intn(2) == 0, submitted: step}
				xid, op := int32(len(reqs)+1), wire.OpGetData
				if q.write {
					op = wire.OpSetData
					if len(pending) > 0 && rng.Intn(4) == 0 {
						xid = pending[rng.Intn(len(pending))].xid
					}
				}
				entry, runNow, ok := s.admit(xid, op, readBodyOf(t, "/wm"))
				if !ok {
					t.Fatalf("seed %d: open session refused xid %d", seed, xid)
				}
				q.entry, q.xid = entry, xid
				if q.write {
					pending = append(pending, q)
				}
				reqs = append(reqs, q)
				if runNow {
					s.push(q.entry, r.handleRead(s, q.entry))
				}
			case action < 8 && len(pending) > 0:
				resolve()
			default:
				drain()
			}
		}
		for len(pending) > 0 {
			nextStep()
			resolve()
		}
		nextStep()
		for drain() > 0 {
		}

		if len(released) != len(reqs) {
			t.Fatalf("seed %d: released %d of %d requests", seed, len(released), len(reqs))
		}
		for i, rel := range released {
			q := reqs[i]
			if rel.xid != q.xid {
				t.Fatalf("seed %d: release %d has xid %d, want %d (submission order)", seed, i, rel.xid, q.xid)
			}
			if q.write {
				continue
			}
			// The reads a write's abort fails are those submitted after
			// the write and before the abort: none of them can have
			// executed, the write ahead of them was unresolved.
			wantFail := false
			for _, w := range reqs[:i] {
				if !w.write {
					continue
				}
				if w.aborted && q.submitted < w.resolved {
					wantFail = true
				}
				if rel.err == wire.ErrOK && rel.version <= w.resolved {
					t.Fatalf("seed %d: read xid %d executed at step %d, write xid %d ahead of it was resolved at step %d",
						seed, rel.xid, rel.version, w.xid, w.resolved)
				}
			}
			if wantFail != (rel.err == wire.ErrConnectionLoss) || (!wantFail && rel.err != wire.ErrOK) {
				t.Fatalf("seed %d: read xid %d answered %v, want failed = %v", seed, rel.xid, rel.err, wantFail)
			}
		}
		s.mu.Lock()
		if s.waiting != 0 || len(s.queue) != 0 {
			t.Fatalf("seed %d: waiting = %d, queue = %d at the end", seed, s.waiting, len(s.queue))
		}
		s.mu.Unlock()
		if _, ok := s.inflight(1); ok {
			t.Fatalf("seed %d: inflight finds xid 1 with everything answered", seed)
		}
	}
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
