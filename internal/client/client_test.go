package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
)

// ctxbg is the background context used by tests that exercise no
// cancellation behaviour.
var ctxbg = context.Background()

// fakeServer answers the session protocol over a ChanConn: a connect
// handshake, then scripted per-op responses.
type fakeServer struct {
	t    *testing.T
	conn transport.Conn
	wg   sync.WaitGroup

	mu   sync.Mutex
	held []wire.ReplyHeader // responses parked for paths under /slow
	xids []int32            // every request's xid, in arrival order
}

func newFakePair(t *testing.T) (*Client, *fakeServer) {
	return newFakePairConn(t, Options{})
}

func newFakePairConn(t *testing.T, opts Options) (*Client, *fakeServer) {
	t.Helper()
	a, b := transport.NewChanPipe()
	srv := &fakeServer{t: t, conn: b}
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		srv.serve()
	}()
	// The client's end overwrites every reply and event frame at its next
	// receive: whatever a Result or a watch event keeps must be a copy.
	cl, err := NewSession(transport.NewPoisonConn(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		srv.wg.Wait()
	})
	return cl, srv
}

// serve implements a trivial echo-ish server: GET returns the path as
// data; SET returns a Stat with version 7; errors for path "/missing".
func (f *fakeServer) serve() {
	frame, err := f.conn.RecvFrame()
	if err != nil {
		return
	}
	var connReq wire.ConnectRequest
	if err := wire.Unmarshal(frame, &connReq); err != nil {
		f.t.Errorf("connect parse: %v", err)
		return
	}
	resp := wire.ConnectResponse{SessionID: 99, TimeoutMillis: connReq.TimeoutMillis}
	if err := f.conn.SendFrame(wire.Marshal(&resp)); err != nil {
		return
	}
	for {
		frame, err := f.conn.RecvFrame()
		if err != nil {
			return
		}
		d := wire.NewDecoder(frame)
		var hdr wire.RequestHeader
		if err := hdr.Deserialize(d); err != nil {
			return
		}
		f.mu.Lock()
		f.xids = append(f.xids, hdr.Xid)
		f.mu.Unlock()
		switch hdr.Op {
		case wire.OpGetData:
			var req wire.GetDataRequest
			_ = req.Deserialize(d)
			if req.Path == "/missing" {
				rh := wire.ReplyHeader{Xid: hdr.Xid, Err: wire.ErrNoNode}
				_ = f.conn.SendFrame(wire.MarshalPair(&rh, nil))
				continue
			}
			if strings.HasPrefix(req.Path, "/slow") {
				// Park the response until releaseHeld: lets tests cancel
				// a context with the call genuinely in flight.
				f.mu.Lock()
				f.held = append(f.held, wire.ReplyHeader{Xid: hdr.Xid, Zxid: 5})
				f.mu.Unlock()
				continue
			}
			rh := wire.ReplyHeader{Xid: hdr.Xid, Zxid: 5}
			body := wire.GetDataResponse{Data: []byte(req.Path), Stat: wire.Stat{Version: 3}}
			_ = f.conn.SendFrame(wire.MarshalPair(&rh, &body))
		case wire.OpMulti:
			var req wire.MultiRequest
			if err := req.Deserialize(d); err != nil {
				f.t.Errorf("multi decode: %v", err)
				return
			}
			resp := wire.MultiResponse{Results: make([]wire.MultiOpResult, len(req.Ops))}
			rh := wire.ReplyHeader{Xid: hdr.Xid, Zxid: 8}
			failing := -1
			for i, op := range req.Ops {
				if op.Op == wire.OpCheck && op.Path == "/missing" {
					failing = i // scripted abort
				}
			}
			for i, op := range req.Ops {
				resp.Results[i] = wire.MultiOpResult{Op: op.Op}
				switch {
				case failing == i:
					resp.Results[i].Err = wire.ErrNoNode
				case failing >= 0:
					resp.Results[i].Err = wire.ErrRuntimeInconsistency
				case op.Op == wire.OpCreate:
					resp.Results[i].Path = op.Path + "0000000002"
				}
			}
			if failing >= 0 {
				rh.Err = wire.ErrNoNode
			}
			_ = f.conn.SendFrame(wire.MarshalPair(&rh, &resp))
		case wire.OpSetData:
			rh := wire.ReplyHeader{Xid: hdr.Xid, Zxid: 6}
			body := wire.SetDataResponse{Stat: wire.Stat{Version: 7}}
			_ = f.conn.SendFrame(wire.MarshalPair(&rh, &body))
		case wire.OpCreate:
			var req wire.CreateRequest
			_ = req.Deserialize(d)
			rh := wire.ReplyHeader{Xid: hdr.Xid, Zxid: 7}
			body := wire.CreateResponse{Path: req.Path + "0000000001"}
			_ = f.conn.SendFrame(wire.MarshalPair(&rh, &body))
		case wire.OpCloseSession:
			return
		default:
			rh := wire.ReplyHeader{Xid: hdr.Xid, Err: wire.ErrUnimplemented}
			_ = f.conn.SendFrame(wire.MarshalPair(&rh, nil))
		}
	}
}

// sendEvent pushes a watch notification to the client out of band.
func (f *fakeServer) sendEvent(ev wire.WatcherEvent) {
	rh := wire.ReplyHeader{Xid: wire.WatcherEventXid}
	_ = f.conn.SendFrame(wire.MarshalPair(&rh, &ev))
}

// releaseHeld answers every parked /slow response.
func (f *fakeServer) releaseHeld() {
	f.mu.Lock()
	held := f.held
	f.held = nil
	f.mu.Unlock()
	for _, rh := range held {
		body := wire.GetDataResponse{Data: []byte("late"), Stat: wire.Stat{Version: 3}}
		_ = f.conn.SendFrame(wire.MarshalPair(&rh, &body))
	}
}

func TestClientSyncOps(t *testing.T) {
	cl, _ := newFakePair(t)
	if cl.SessionID() != 99 {
		t.Fatalf("session = %d", cl.SessionID())
	}
	data, stat, err := cl.Get(ctxbg, "/some/path")
	if err != nil || !bytes.Equal(data, []byte("/some/path")) || stat.Version != 3 {
		t.Fatalf("get = %q, %+v, %v", data, stat, err)
	}
	stat, err = cl.Set(ctxbg, "/x", []byte("v"), -1)
	if err != nil || stat.Version != 7 {
		t.Fatalf("set = %+v, %v", stat, err)
	}
	path, err := cl.Create(ctxbg, "/c-", nil, wire.FlagSequential)
	if err != nil || path != "/c-0000000001" {
		t.Fatalf("create = %q, %v", path, err)
	}
}

func TestClientErrorMapping(t *testing.T) {
	cl, _ := newFakePair(t)
	_, _, err := cl.Get(ctxbg, "/missing")
	var pe *wire.ProtocolError
	if !errors.As(err, &pe) || pe.Code != wire.ErrNoNode {
		t.Fatalf("err = %v", err)
	}
}

func TestClientAsyncPipelining(t *testing.T) {
	cl, _ := newFakePair(t)
	futures := make([]*Future, 20)
	for i := range futures {
		futures[i] = cl.GetAsync("/p", false)
	}
	for i, f := range futures {
		res := f.Wait()
		if res.Err != nil {
			t.Fatalf("future %d: %v", i, res.Err)
		}
	}
}

func TestClientWatchCallback(t *testing.T) {
	cl, srv := newFakePair(t)
	_, _, w, err := cl.GetW(ctxbg, "/born")
	if err != nil {
		t.Fatal(err)
	}
	srv.sendEvent(wire.WatcherEvent{Type: wire.EventNodeCreated, Path: "/born"})
	select {
	case ev := <-w.Events():
		if ev.Type != wire.EventNodeCreated || ev.Path != "/born" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event not delivered")
	}
}

func TestClientClosedRejectsCalls(t *testing.T) {
	cl, _ := newFakePair(t)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Get(ctxbg, "/x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Closing twice is fine.
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClientServerDisconnectFailsPending(t *testing.T) {
	a, b := transport.NewChanPipe()
	srv := &fakeServer{t: t, conn: b}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Handshake then drop the connection with a request in flight.
		frame, _ := srv.conn.RecvFrame()
		var connReq wire.ConnectRequest
		_ = wire.Unmarshal(frame, &connReq)
		_ = srv.conn.SendFrame(wire.Marshal(&wire.ConnectResponse{SessionID: 1}))
		_, _ = srv.conn.RecvFrame() // swallow the request
		_ = srv.conn.Close()
	}()
	cl, err := NewSession(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := cl.GetAsync("/never", false).Wait()
	if res.Err == nil {
		t.Fatal("pending call must fail on disconnect")
	}
	<-done
	_ = cl.Close()
}

func TestFutureDoneChannel(t *testing.T) {
	cl, _ := newFakePair(t)
	f := cl.GetAsync("/p", false)
	select {
	case res := <-f.Done():
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("future never resolved")
	}
}

func TestUnimplementedOpSurfaces(t *testing.T) {
	cl, _ := newFakePair(t)
	if err := cl.Sync(ctxbg, "/x"); err == nil {
		t.Fatal("fake server answers UNIMPLEMENTED for sync")
	}
}

// TestDecodeResultAllocations pins what a reply costs the client: the
// fields its Result keeps past the receive buffer — a GET's Data, a
// CREATE's Path — and nothing for the record or the decoder.
func TestDecodeResultAllocations(t *testing.T) {
	cases := []struct {
		name string
		op   wire.OpCode
		body []byte
		want float64
	}{
		{"get", wire.OpGetData, wire.Marshal(&wire.GetDataResponse{Data: make([]byte, 1024), Stat: wire.Stat{Version: 3}}), 1},
		{"create", wire.OpCreate, wire.Marshal(&wire.CreateResponse{Path: "/app/lock-0000000007"}), 1},
		{"set", wire.OpSetData, wire.Marshal(&wire.SetDataResponse{Stat: wire.Stat{Version: 7}}), 0},
		{"delete", wire.OpDelete, nil, 0},
	}
	for _, tc := range cases {
		var res Result
		got := testing.AllocsPerRun(200, func() {
			res = decodeResult(tc.op, wire.ReplyHeader{Xid: 1, Zxid: 9}, tc.body)
		})
		if res.Err != nil {
			t.Fatalf("%s: %v", tc.name, res.Err)
		}
		if got != tc.want {
			t.Errorf("%s reply: %v allocs, want %v", tc.name, got, tc.want)
		}
	}
	if res := decodeResult(wire.OpSetData, wire.ReplyHeader{}, append(cases[2].body, 0)); !errors.Is(res.Err, ErrShortReply) {
		t.Fatalf("trailing byte behind a SET reply: err = %v, want ErrShortReply", res.Err)
	}
}

// TestXidWrapsToOne starts the xid counter just below MaxInt32. The
// counter must go on at 1, never through 0 and the negative xids the
// server uses (a reply under WatcherEventXid would be dispatched as a
// watch event and its caller would hang), and every reply must still
// reach its caller.
func TestXidWrapsToOne(t *testing.T) {
	cl, srv := newFakePair(t)
	cl.mu.Lock()
	cl.xid = math.MaxInt32 - 1
	cl.mu.Unlock()
	ctx, cancel := context.WithTimeout(ctxbg, 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		path := fmt.Sprintf("/wrap/%d", i)
		data, _, err := cl.Get(ctx, path)
		if err != nil || string(data) != path {
			t.Fatalf("get %s across the wrap = %q, %v", path, data, err)
		}
	}
	if res := cl.SetAsync("/wrap", nil, -1).Wait(); res.Err != nil || res.Stat.Version != 7 {
		t.Fatalf("async set after the wrap = %+v", res)
	}
	srv.mu.Lock()
	got := slices.Clone(srv.xids[len(srv.xids)-4:])
	srv.mu.Unlock()
	if want := []int32{math.MaxInt32, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("xids across the wrap = %v, want %v", got, want)
	}
}

// replyConn is a transport.Conn whose far end answers each request at
// once with a canned reply under the request's xid, and allocates
// nothing doing so: what a call allocates is then the client's alone.
// It serves one request at a time.
type replyConn struct {
	replies map[wire.OpCode][]byte // reply frames, header first
	ready   chan []byte
	closed  chan struct{}
	once    sync.Once
}

func newReplyConn() *replyConn {
	c := &replyConn{
		replies: make(map[wire.OpCode][]byte),
		ready:   make(chan []byte, 1),
		closed:  make(chan struct{}),
	}
	c.ready <- wire.Marshal(&wire.ConnectResponse{SessionID: 1}) // the handshake
	reply := func(op wire.OpCode, body wire.Record) {
		c.replies[op] = wire.MarshalPair(&wire.ReplyHeader{Zxid: 5}, body)
	}
	reply(wire.OpGetData, &wire.GetDataResponse{Data: make([]byte, 1024), Stat: wire.Stat{Version: 3}})
	reply(wire.OpSetData, &wire.SetDataResponse{Stat: wire.Stat{Version: 7}})
	return c
}

func (c *replyConn) SendFrame(req []byte) error {
	var hdr wire.RequestHeader
	var d wire.Decoder
	d.Reset(req)
	if hdr.Deserialize(&d) != nil {
		return nil // the connect request
	}
	if reply, ok := c.replies[hdr.Op]; ok {
		binary.BigEndian.PutUint32(reply, uint32(hdr.Xid)) // the reply header's xid
		c.ready <- reply
	}
	return nil
}

func (c *replyConn) SendFrames(frames [][]byte) error {
	for _, f := range frames {
		_ = c.SendFrame(f)
	}
	return nil
}

func (c *replyConn) RecvFrame() ([]byte, error) {
	select {
	case f := <-c.ready:
		return f, nil
	case <-c.closed:
		return nil, transport.ErrClosed
	}
}

func (c *replyConn) RecvFrames(dst [][]byte) ([][]byte, error) {
	f, err := c.RecvFrame()
	if err != nil {
		return dst, err
	}
	return append(dst, f), nil
}

func (c *replyConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestClientRequestAllocations pins what a call costs the client: a
// synchronous Get allocates its reply's Data and nothing else; Set, and
// SetAsync followed by Wait, allocate nothing. The request record is
// serialized by a concrete call into a pooled encoder, and the future
// comes from the pool and goes back to it.
func TestClientRequestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pools at random, so allocation counts mean nothing")
	}
	cl, err := NewSession(newReplyConn(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	payload := make([]byte, 1024)
	cases := []struct {
		name string
		call func() error
		want float64
	}{
		{"Get", func() error { _, _, err := cl.Get(ctxbg, "/app/key"); return err }, 1},
		{"Set", func() error { _, err := cl.Set(ctxbg, "/app/key", payload, -1); return err }, 0},
		{"SetAsync+Wait", func() error { return cl.SetAsync("/app/key", payload, -1).Wait().Err }, 0},
	}
	for _, tc := range cases {
		var err error
		got := testing.AllocsPerRun(1000, func() {
			if e := tc.call(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: %v allocs per call, want %v", tc.name, got, tc.want)
		}
	}
}

// TestReissueRetriesConnectionLossOnly: Reissue runs an op again after
// CONNECTIONLOSS, wrapped or not, and hands back any other outcome, or
// the last CONNECTIONLOSS once its context ends.
func TestReissueRetriesConnectionLossOnly(t *testing.T) {
	loss := &wire.ProtocolError{Code: wire.ErrConnectionLoss}
	calls := 0
	err := Reissue(context.Background(), func() error {
		if calls++; calls < 3 {
			return fmt.Errorf("op: %w", loss)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("after two losses: err %v in %d calls, want nil in 3", err, calls)
	}
	noNode := &wire.ProtocolError{Code: wire.ErrNoNode}
	calls = 0
	if err := Reissue(context.Background(), func() error { calls++; return noNode }); err != noNode || calls != 1 {
		t.Fatalf("NONODE: err %v in %d calls, want it back from 1", err, calls)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Reissue(ctx, func() error { return loss }); err != loss {
		t.Fatalf("ended context: err %v, want the loss", err)
	}
}
