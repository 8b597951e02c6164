package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/obs"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
)

// testCluster boots n replicas over an in-process network. Every
// replica gets its own metrics registry (as in production, one per
// host), so the whole suite doubles as instrumentation coverage.
type testCluster struct {
	t        *testing.T
	net      *zab.Network
	replicas []*Replica
	regs     []*obs.Registry
	wg       sync.WaitGroup
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, net: zab.NewNetwork()}
	ids := make([]zab.PeerID, n)
	for i := range ids {
		ids[i] = zab.PeerID(i + 1)
	}
	for i := 0; i < n; i++ {
		reg := obs.NewRegistry()
		tc.regs = append(tc.regs, reg)
		tc.replicas = append(tc.replicas, NewReplica(Config{
			ID:              ids[i],
			Peers:           ids,
			Transport:       tc.net.Endpoint(ids[i]),
			TickInterval:    5 * time.Millisecond,
			ElectionTimeout: 80 * time.Millisecond,
			Obs:             reg,
		}))
	}
	t.Cleanup(func() {
		for _, r := range tc.replicas {
			r.Close()
		}
		tc.net.Close()
		tc.wg.Wait()
	})
	tc.waitSettled(5 * time.Second)
	return tc
}

// waitSettled blocks until one replica leads and every other follows
// it. Waiting for the leader's role alone is not enough: a replica
// reports LEADING the moment its election tally is unanimous, while the
// others still sit out their finalize wait, and until a quorum of them
// has synced it refuses writes — legally (zab's
// TestScheduleFreshEnsembleFirstWrite), but the first write of a test
// that started that early failed about once in 300 starts.
func (tc *testCluster) waitSettled(timeout time.Duration) {
	tc.t.Helper()
	leader := tc.waitLeader(timeout)
	deadline := time.Now().Add(timeout)
	for _, r := range tc.replicas {
		for r != leader && (r.Peer().Role() != zab.RoleFollowing || r.Peer().Leader() != leader.Peer().ID()) {
			if time.Now().After(deadline) {
				tc.t.Fatalf("replica %d is %s of %d, not following leader %d", r.Peer().ID(), r.Peer().Role(), r.Peer().Leader(), leader.Peer().ID())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func (tc *testCluster) waitLeader(timeout time.Duration) *Replica {
	tc.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, r := range tc.replicas {
			if r.IsLeader() {
				return r
			}
		}
		time.Sleep(time.Millisecond)
	}
	tc.t.Fatal("no leader")
	return nil
}

// connect opens a plaintext client to replica i.
func (tc *testCluster) connect(i int, opts client.Options) *client.Client {
	tc.t.Helper()
	a, b := transport.NewChanPipe()
	tc.wg.Add(1)
	go func() {
		defer tc.wg.Done()
		_ = tc.replicas[i].ServeConn(b, nil)
	}()
	cl, err := client.NewSession(a, opts)
	if err != nil {
		tc.t.Fatalf("connect to replica %d: %v", i, err)
	}
	return cl
}

func TestBasicOpsAgainstLeaderAndFollower(t *testing.T) {
	tc := newTestCluster(t, 3)
	leader := tc.waitLeader(time.Second)
	leaderIdx := int(leader.ID()) - 1
	followerIdx := (leaderIdx + 1) % 3

	for _, idx := range []int{leaderIdx, followerIdx} {
		cl := tc.connect(idx, client.Options{})
		path := fmt.Sprintf("/via-%d", idx)
		if _, err := cl.Create(ctxbg, path, []byte("v"), 0); err != nil {
			t.Fatalf("create via %d: %v", idx, err)
		}
		data, stat, err := cl.Get(ctxbg, path)
		if err != nil || !bytes.Equal(data, []byte("v")) {
			t.Fatalf("get via %d: %q, %v", idx, data, err)
		}
		if stat.Version != 0 {
			t.Fatalf("version = %d", stat.Version)
		}
		if err := cl.Delete(ctxbg, path, -1); err != nil {
			t.Fatal(err)
		}
		_ = cl.Close()
	}
}

func TestSessionFIFOReadYourWrites(t *testing.T) {
	// ZooKeeper's session guarantee: a pipelined GET never observes
	// state older than the session's own preceding SETs (it may observe
	// newer committed state). The data version encodes the SET count.
	tc := newTestCluster(t, 3)
	cl := tc.connect(0, client.Options{})
	defer cl.Close()

	if _, err := cl.Create(ctxbg, "/fifo", []byte("v0"), 0); err != nil {
		t.Fatal(err)
	}
	const rounds = 30
	futures := make([]*client.Future, 0, rounds*2)
	for i := 0; i < rounds; i++ {
		val := []byte(fmt.Sprintf("v%d", i+1))
		futures = append(futures, cl.SetAsync("/fifo", val, -1))
		futures = append(futures, cl.GetAsync("/fifo", false))
	}
	prevVersion := int32(-1)
	for i := 0; i < rounds; i++ {
		setRes := futures[2*i].Wait()
		getRes := futures[2*i+1].Wait()
		if setRes.Err != nil || getRes.Err != nil {
			t.Fatalf("round %d: set=%v get=%v", i, setRes.Err, getRes.Err)
		}
		// Read-your-writes: at least i+1 SETs visible.
		if getRes.Stat.Version < int32(i+1) {
			t.Fatalf("round %d: GET observed version %d, want >= %d (read overtook write)",
				i, getRes.Stat.Version, i+1)
		}
		// Monotonic reads within the session.
		if getRes.Stat.Version < prevVersion {
			t.Fatalf("round %d: version went backwards %d -> %d", i, prevVersion, getRes.Stat.Version)
		}
		prevVersion = getRes.Stat.Version
	}
}

func TestSequentialNodesUniqueUnderContention(t *testing.T) {
	tc := newTestCluster(t, 3)
	setup := tc.connect(0, client.Options{})
	if _, err := setup.Create(ctxbg, "/seq", nil, 0); err != nil {
		t.Fatal(err)
	}
	_ = setup.Close()

	const workers, each = 6, 10
	paths := make(chan string, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := tc.connect(w%3, client.Options{})
			defer cl.Close()
			for i := 0; i < each; i++ {
				p, err := cl.Create(ctxbg, "/seq/n-", nil, wire.FlagSequential)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				paths <- p
			}
		}(w)
	}
	wg.Wait()
	close(paths)
	seen := make(map[string]bool)
	for p := range paths {
		if seen[p] {
			t.Fatalf("duplicate sequential path %q", p)
		}
		seen[p] = true
	}
	if len(seen) != workers*each {
		t.Fatalf("created %d unique nodes, want %d", len(seen), workers*each)
	}
}

func TestWatchDeliveredAcrossReplicas(t *testing.T) {
	tc := newTestCluster(t, 3)
	watcher := tc.connect(1, client.Options{})
	defer watcher.Close()
	writer := tc.connect(2, client.Options{})
	defer writer.Close()

	if _, err := writer.Create(ctxbg, "/w", []byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	// Watch may race the commit propagation to replica 1.
	var watch *client.Watch
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, w, err := watcher.GetW(ctxbg, "/w")
		if err == nil {
			watch = w
			break
		}
		// A GetW attempt that ran before the create reached this
		// replica registered an exist watch; its NodeCreated firing is
		// legitimate, and belongs to that attempt's handle.
		w.Cancel()
		if time.Now().After(deadline) {
			t.Fatal("node never appeared on follower")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := writer.Set(ctxbg, "/w", []byte("b"), -1); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-watch.Events():
		if ev.Type != wire.EventNodeDataChanged || ev.Path != "/w" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch event not delivered")
	}
}

func TestEphemeralCleanupOnDisconnect(t *testing.T) {
	tc := newTestCluster(t, 3)
	owner := tc.connect(0, client.Options{})
	observer := tc.connect(1, client.Options{})
	defer observer.Close()

	if _, err := owner.Create(ctxbg, "/eph", []byte("x"), wire.FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	// Visible from another replica.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := observer.Exists(ctxbg, "/eph"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ephemeral never appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = owner.Close()

	// After the owner disconnects the node disappears everywhere.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := observer.Exists(ctxbg, "/eph"); err != nil {
			return // gone
		}
		if time.Now().After(deadline) {
			t.Fatal("ephemeral not cleaned up after session close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEphemeralCleanupWhenSessionDiesDuringElection: a session that
// drops while its replica knows no leader still gets its CloseSession
// agreed once there is one — the session is listed as closing, not
// counted as live, and the close is submitted again until it is
// delivered. The follower the client is attached to is held LOOKING (its
// leader closed, its link to the other follower cut) for as long as the
// session takes to die, so the first attempt fails every time.
func TestEphemeralCleanupWhenSessionDiesDuringElection(t *testing.T) {
	tc := newTestCluster(t, 3)
	leader := tc.waitLeader(time.Second)
	var followers []int
	for i, r := range tc.replicas {
		if r != leader {
			followers = append(followers, i)
		}
	}
	home, other := tc.replicas[followers[0]], tc.replicas[followers[1]]

	a, b := transport.NewChanPipe()
	served := make(chan struct{})
	tc.wg.Add(1)
	go func() {
		defer tc.wg.Done()
		defer close(served)
		_ = home.ServeConn(b, nil)
	}()
	owner, err := client.NewSession(a, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Create(ctxbg, "/eph-election", []byte("x"), wire.FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	if err := owner.Sync(ctxbg, "/"); err != nil {
		t.Fatal(err)
	}

	tc.net.Cut(home.ID(), other.ID(), true)
	leader.Close()
	deadline := time.Now().Add(5 * time.Second)
	for home.Peer().Role() != zab.RoleLooking {
		if time.Now().After(deadline) {
			t.Fatalf("replica %d still %s after its leader closed", home.ID(), home.Peer().Role())
		}
		time.Sleep(time.Millisecond)
	}
	_ = owner.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("session did not end")
	}
	if n := mntrValue(t, tc.regs[followers[0]], "server_sessions"); n != 0 {
		t.Fatalf("server_sessions = %d with the only session closing, want live sessions only", n)
	}

	tc.net.Cut(home.ID(), other.ID(), false)
	deadline = time.Now().Add(10 * time.Second)
	for _, r := range []*Replica{home, other} {
		for {
			if _, err := r.Tree().Exists("/eph-election"); err != nil {
				break // gone
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d (%s) still has the dead session's ephemeral node", r.ID(), r.Peer().Role())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for closing := 1; closing != 0; time.Sleep(time.Millisecond) {
		home.mu.Lock()
		closing = len(home.closing)
		home.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still listed as closing after the close was delivered", closing)
		}
	}
}

func TestVersionConflictsSurface(t *testing.T) {
	tc := newTestCluster(t, 3)
	cl := tc.connect(0, client.Options{})
	defer cl.Close()
	if _, err := cl.Create(ctxbg, "/v", []byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Set(ctxbg, "/v", []byte("b"), 42); err == nil {
		t.Fatal("bad version SET must fail")
	}
	if err := cl.Delete(ctxbg, "/v", 42); err == nil {
		t.Fatal("bad version DELETE must fail")
	}
	if _, err := cl.Set(ctxbg, "/v", []byte("b"), 0); err != nil {
		t.Fatal(err)
	}
}

func TestErrorReplies(t *testing.T) {
	tc := newTestCluster(t, 3)
	cl := tc.connect(0, client.Options{})
	defer cl.Close()

	if _, _, err := cl.Get(ctxbg, "/missing"); err == nil {
		t.Fatal("GET missing must fail")
	}
	if _, err := cl.Create(ctxbg, "/missing/child", nil, 0); err == nil {
		t.Fatal("CREATE under missing parent must fail")
	}
	if _, err := cl.Create(ctxbg, "/dup", nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create(ctxbg, "/dup", nil, 0); err == nil {
		t.Fatal("duplicate CREATE must fail")
	}
	if _, err := cl.Children(ctxbg, "/missing"); err == nil {
		t.Fatal("LS missing must fail")
	}
	if _, err := cl.Create(ctxbg, "bad-relative-path", nil, 0); err == nil {
		t.Fatal("relative path must fail")
	}
}

func TestSyncOperation(t *testing.T) {
	tc := newTestCluster(t, 3)
	cl := tc.connect(1, client.Options{})
	defer cl.Close()
	if err := cl.Sync(ctxbg, "/"); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func TestReplicasConvergeUnderLoad(t *testing.T) {
	tc := newTestCluster(t, 3)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := tc.connect(w, client.Options{})
			defer cl.Close()
			for i := 0; i < 30; i++ {
				path := fmt.Sprintf("/load-%d-%d", w, i)
				if _, err := cl.Create(ctxbg, path, []byte("x"), 0); err != nil {
					t.Errorf("create %s: %v", path, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// All replicas converge to the same tree.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		d0 := tc.replicas[0].Tree().Digest()
		if tc.replicas[1].Tree().Digest() == d0 && tc.replicas[2].Tree().Digest() == d0 {
			if tc.replicas[0].Tree().Count() != 91 { // 90 nodes + root
				t.Fatalf("count = %d", tc.replicas[0].Tree().Count())
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replicas did not converge: %d/%d/%d nodes",
		tc.replicas[0].Tree().Count(), tc.replicas[1].Tree().Count(), tc.replicas[2].Tree().Count())
}

func TestOpsCounters(t *testing.T) {
	tc := newTestCluster(t, 1)
	cl := tc.connect(0, client.Options{})
	defer cl.Close()
	if _, err := cl.Create(ctxbg, "/ops", nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Get(ctxbg, "/ops"); err != nil {
		t.Fatal(err)
	}
	reads, writes := mntrValue(t, tc.regs[0], "server_reads_total"), mntrValue(t, tc.regs[0], "server_writes_total")
	if reads < 1 || writes < 1 {
		t.Fatalf("ops = %d reads, %d writes", reads, writes)
	}
}

func TestPlainSequenceAppender(t *testing.T) {
	p, err := PlainSequenceAppender("/a/b-", 7)
	if err != nil || p != "/a/b-0000000007" {
		t.Fatalf("got %q, %v", p, err)
	}
}

// burstConn is a scripted transport.Conn: the connect handshake one
// frame at a time, then every RecvFrames call returns the next scripted
// burst whole, so a test decides exactly which requests share an
// interceptor call. Sent frames are recorded.
type burstConn struct {
	connect chan []byte
	bursts  chan [][]byte
	closed  chan struct{}
	once    sync.Once

	mu   sync.Mutex
	sent [][]byte
}

func newBurstConn(bursts ...[][]byte) *burstConn {
	c := &burstConn{
		connect: make(chan []byte, 1),
		bursts:  make(chan [][]byte, len(bursts)),
		closed:  make(chan struct{}),
	}
	c.connect <- wire.Marshal(&wire.ConnectRequest{TimeoutMillis: 10000})
	for _, b := range bursts {
		c.bursts <- b
	}
	return c
}

func (c *burstConn) RecvFrame() ([]byte, error) { return <-c.connect, nil }

func (c *burstConn) RecvFrames(dst [][]byte) ([][]byte, error) {
	select {
	case b := <-c.bursts:
		return append(dst, b...), nil
	case <-c.closed:
		return dst, transport.ErrClosed
	}
}

func (c *burstConn) SendFrame(f []byte) error { return c.SendFrames([][]byte{f}) }

func (c *burstConn) SendFrames(frames [][]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range frames {
		c.sent = append(c.sent, append([]byte(nil), f...))
	}
	return nil
}

func (c *burstConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// sentXids returns the xids of the replies sent after the connect
// response.
func (c *burstConn) sentXids(t *testing.T) []int32 {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var xids []int32
	for _, f := range c.sent[1:] {
		var hdr wire.ReplyHeader
		if err := hdr.Deserialize(wire.NewDecoder(f)); err != nil {
			t.Fatal(err)
		}
		xids = append(xids, hdr.Xid)
	}
	return xids
}

// faultyInterceptor fails where a test tells it to: the request whose
// xid is rejectXid (the requests ahead of it in the burst pass), and
// any release pass that holds the reply to failReplyXid.
type faultyInterceptor struct {
	rejectXid    int32
	failReplyXid int32
}

func (fi faultyInterceptor) OnRequests(msgs [][]byte) ([][]byte, error) {
	for i, m := range msgs {
		var hdr wire.RequestHeader
		if err := hdr.Deserialize(wire.NewDecoder(m)); err != nil {
			return msgs[:i], err
		}
		if hdr.Xid == fi.rejectXid {
			return msgs[:i], fmt.Errorf("rejected xid %d", hdr.Xid)
		}
	}
	return msgs, nil
}

func (fi faultyInterceptor) OnResponses(msgs [][]byte) ([][]byte, error) {
	for _, m := range msgs {
		var hdr wire.ReplyHeader
		if err := hdr.Deserialize(wire.NewDecoder(m)); err != nil {
			return nil, err
		}
		if hdr.Xid == fi.failReplyXid {
			return nil, fmt.Errorf("refused to release xid %d", hdr.Xid)
		}
	}
	return msgs, nil
}

// TestInterceptorBatchFailure pins what a failing interceptor call
// means for the burst it was given: exactly what single calls did. A
// request rejected at index i lets the i requests ahead of it into the
// pipeline before the session is dropped; a refused release pass sends
// none of its frames and shuts the session down.
func TestInterceptorBatchFailure(t *testing.T) {
	create := func(xid int32, path string) []byte {
		return wire.MarshalPair(&wire.RequestHeader{Xid: xid, Op: wire.OpCreate},
			&wire.CreateRequest{Path: path, Data: []byte("v")})
	}
	burst := func() [][]byte {
		return [][]byte{create(1, "/b1"), create(2, "/b2"), create(3, "/b3"), create(4, "/b4")}
	}
	cases := []struct {
		name        string
		icept       faultyInterceptor
		wantErr     bool  // ServeConn reports the failure
		wantCreated int   // /b1../bN reach the tree; after a rejection the rest never do
		maxSentXid  int32 // no reply above this xid may leave the session
	}{
		{name: "request rejected at index 0", icept: faultyInterceptor{rejectXid: 1}, wantErr: true, wantCreated: 0, maxSentXid: 0},
		{name: "request rejected at index 2", icept: faultyInterceptor{rejectXid: 3}, wantErr: true, wantCreated: 2, maxSentXid: 2},
		{name: "release pass refused", icept: faultyInterceptor{failReplyXid: 2}, wantCreated: 2, maxSentXid: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cluster := newTestCluster(t, 1)
			r := cluster.replicas[0]
			conn := newBurstConn(burst())
			done := make(chan error, 1)
			go func() { done <- r.ServeConn(conn, tc.icept) }()
			select {
			case err := <-done:
				if (err != nil) != tc.wantErr {
					t.Fatalf("ServeConn = %v, want error: %v", err, tc.wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("session did not terminate")
			}
			select {
			case <-conn.closed:
			default:
				t.Fatal("session ended without closing its connection")
			}

			// Requests that were submitted commit whether or not their
			// session lives to see it.
			deadline := time.Now().Add(5 * time.Second)
			for i := 1; i <= tc.wantCreated; i++ {
				for {
					if _, err := r.Tree().Exists(fmt.Sprintf("/b%d", i)); err == nil {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("/b%d was ahead of the failure but never reached the tree", i)
					}
					time.Sleep(time.Millisecond)
				}
			}
			for i := tc.wantCreated + 1; tc.wantErr && i <= 4; i++ {
				if _, err := r.Tree().Exists(fmt.Sprintf("/b%d", i)); err == nil {
					t.Fatalf("/b%d was at or behind the rejected request but reached the tree", i)
				}
			}
			for _, xid := range conn.sentXids(t) {
				if xid > tc.maxSentXid {
					t.Fatalf("reply to xid %d was sent (replies sent: %v)", xid, conn.sentXids(t))
				}
			}
		})
	}
}
