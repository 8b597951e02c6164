package server

// Session-ordering invariants of the commit-processor split: reads
// execute off the session FIFO (reader goroutine / resume pool) but
// release order stays strictly FIFO per session, and a read never
// observes state older than the session's own preceding writes — even
// while other sessions mutate the same znodes concurrently.

import (
	"errors"
	"fmt"
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
		_ = tc.replicas[0].ServeConn(transport.NewFramedConn(conn), icept)
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

// TestWatermarkOutOfOrderAbort is the white-box check for contiguous
// watermark advancement: writes can complete out of order (a later
// forwarded write is rejected while an earlier one is still with the
// leader), and the abort of the later write must neither unblock reads
// barriered on the still-pending earlier write nor fail them — only
// reads whose barrier includes the aborted write fail.
func TestWatermarkOutOfOrderAbort(t *testing.T) {
	tc := newTestCluster(t, 1)
	r := tc.replicas[0]
	if _, err := r.tree.Create("/wm", []byte("v"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	conn, _ := transport.NewChanPipe()
	s := newSession(r, 4242, conn, NopInterceptor{})

	readBody := func() []byte {
		msg := wire.MarshalPair(&wire.RequestHeader{Xid: 0, Op: wire.OpGetData},
			&wire.GetDataRequest{Path: "/wm"})
		d := wire.NewDecoder(msg)
		var hdr wire.RequestHeader
		if err := hdr.Deserialize(d); err != nil {
			t.Fatal(err)
		}
		return msg[d.Offset():]
	}
	w1 := &inflightReq{xid: 1, op: wire.OpSetData, seq: 1}
	w2 := &inflightReq{xid: 2, op: wire.OpSetData, seq: 2}
	r1 := &inflightReq{xid: 3, op: wire.OpGetData, seq: 1, body: readBody()}
	r2 := &inflightReq{xid: 4, op: wire.OpGetData, seq: 2, body: readBody()}
	r1.park()
	r2.park()
	s.mu.Lock()
	s.writeSeq = 2
	s.queue = []*inflightReq{w1, r1, w2, r2}
	s.parked = []*inflightReq{r1, r2}
	s.mu.Unlock()

	// W2 aborts out of order while W1 is still pending.
	s.writeDone(w2, errorReply(w2.xid, 0, wire.ErrConnectionLoss), true)

	s.mu.Lock()
	watermark := s.committedSeq
	s.mu.Unlock()
	if watermark != 0 {
		t.Fatalf("committedSeq advanced to %d past still-pending write 1", watermark)
	}
	if _, done := r1.result(); done {
		t.Fatal("read barriered on pending write 1 completed on write 2's abort")
	}
	resp, done := r2.result()
	if !done {
		t.Fatal("read barriered on aborted write 2 not failed")
	}
	var hdr wire.ReplyHeader
	if err := hdr.Deserialize(wire.NewDecoder(resp)); err != nil {
		t.Fatal(err)
	}
	if hdr.Err != wire.ErrConnectionLoss {
		t.Fatalf("aborted-barrier read failed with %v, want CONNECTIONLOSS", hdr.Err)
	}

	// W1 commits: the watermark jumps the recorded gap and the parked
	// read executes via the resume pool.
	s.writeDone(w1, errorReply(w1.xid, 0, wire.ErrOK), false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, done := r1.result(); done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("read barriered on committed write 1 never executed")
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	watermark = s.committedSeq
	s.mu.Unlock()
	if watermark != 2 {
		t.Fatalf("committedSeq = %d after both writes completed, want 2", watermark)
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
