package server

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/obs"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
)

// appCounter counts the APP messages a replica sends.
type appCounter struct {
	zab.Transport
	apps atomic.Int64
}

func (c *appCounter) Send(to zab.PeerID, msg zab.Message) error {
	if msg.Kind == zab.KindApp {
		c.apps.Add(1)
	}
	return c.Transport.Send(to, msg)
}

// newCountedCluster is newTestCluster with the APP messages of replica
// i counted in counters[i].
func newCountedCluster(t *testing.T, n int) (*testCluster, []*appCounter) {
	t.Helper()
	var counters []*appCounter
	tc := newWrappedCluster(t, n, func(tr zab.Transport) zab.Transport {
		c := &appCounter{Transport: tr}
		counters = append(counters, c)
		return c
	})
	return tc, counters
}

// followerIndex returns the index of a replica that follows.
func (tc *testCluster) followerIndex() int {
	tc.t.Helper()
	for i, r := range tc.replicas {
		if r.peer.Role() == zab.RoleFollowing {
			return i
		}
	}
	tc.t.Fatal("no follower")
	return -1
}

// indexOf returns the index of replica r.
func (tc *testCluster) indexOf(r *Replica) int {
	for i := range tc.replicas {
		if tc.replicas[i] == r {
			return i
		}
	}
	return -1
}

// serve runs a session of replica i over conn until it ends.
func (tc *testCluster) serve(i int, conn *burstConn) <-chan error {
	done := make(chan error, 1)
	tc.wg.Add(1)
	go func() {
		defer tc.wg.Done()
		done <- tc.replicas[i].ServeConn(conn, nil)
	}()
	return done
}

func request(xid int32, op wire.OpCode, body wire.Record) []byte {
	return wire.MarshalPair(&wire.RequestHeader{Xid: xid, Op: op}, body)
}

func createReq(xid int32, path string, flags wire.CreateFlags) []byte {
	return request(xid, wire.OpCreate, &wire.CreateRequest{Path: path, Flags: flags})
}

func getReq(xid int32, path string) []byte {
	return request(xid, wire.OpGetData, &wire.GetDataRequest{Path: path})
}

// waitReplies waits for n replies after the connect response and
// returns their headers.
func waitReplies(t *testing.T, conn *burstConn, n int) []wire.ReplyHeader {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn.mu.Lock()
		sent := conn.sent
		conn.mu.Unlock()
		if len(sent) > n {
			hdrs := make([]wire.ReplyHeader, n)
			for i := range hdrs {
				if err := hdrs[i].Deserialize(wire.NewDecoder(sent[i+1])); err != nil {
					t.Fatal(err)
				}
			}
			return hdrs
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d replies after 5s", len(sent)-1, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForwardedBurstIsOneAppMessage: a follower session's burst of 16
// writes reaches the leader as one APP message, and each write is
// answered, in order.
func TestForwardedBurstIsOneAppMessage(t *testing.T) {
	tc, counters := newCountedCluster(t, 3)
	leader := tc.waitLeader(time.Second)
	fi := tc.followerIndex()
	var burst [][]byte
	for i := 0; i < 16; i++ {
		burst = append(burst, createReq(int32(i+1), fmt.Sprintf("/b%02d", i), 0))
	}
	before, rejects := counters[fi].apps.Load(), counters[tc.indexOf(leader)].apps.Load()
	conn := newBurstConn(burst)
	tc.serve(fi, conn)
	for i, hdr := range waitReplies(t, conn, len(burst)) {
		if hdr.Xid != int32(i+1) || hdr.Err != wire.ErrOK {
			t.Fatalf("reply %d: xid %d %v, want xid %d OK", i, hdr.Xid, hdr.Err, i+1)
		}
	}
	if got := counters[fi].apps.Load() - before; got != 1 {
		t.Fatalf("the follower sent %d APP messages for a burst of 16 writes, want 1", got)
	}
	if got := counters[tc.indexOf(leader)].apps.Load() - rejects; got != 0 {
		t.Fatalf("the leader sent %d APP messages, want none", got)
	}
	if got := leader.fwdQueued.Load(); got != 0 {
		t.Fatalf("%d forwarded writes still counted as queued", got)
	}
	_ = conn.Close()
}

// TestForwardQueueFullRejectsBurst: a burst the leader's forward queue
// cannot take is rejected whole, with one APP message of rejects: every
// write of it fails with CONNECTIONLOSS, in order, and so do the reads
// queued behind those writes; the read ahead of them is answered.
func TestForwardQueueFullRejectsBurst(t *testing.T) {
	tc, counters := newCountedCluster(t, 3)
	leader := tc.waitLeader(time.Second)
	li, fi := tc.indexOf(leader), tc.followerIndex()
	leader.fwdQueued.Store(maxForwardWrites) // the queue is full
	before := counters[li].apps.Load()
	conn := newBurstConn([][]byte{
		getReq(1, "/"),
		createReq(2, "/q1", 0),
		getReq(3, "/"),
		createReq(4, "/q2", 0),
		getReq(5, "/"),
	})
	tc.serve(fi, conn)
	for i, hdr := range waitReplies(t, conn, 5) {
		want := wire.ErrConnectionLoss
		if i == 0 {
			want = wire.ErrOK
		}
		if hdr.Xid != int32(i+1) || hdr.Err != want {
			t.Fatalf("reply %d: xid %d %v, want xid %d %v", i, hdr.Xid, hdr.Err, i+1, want)
		}
	}
	if got := counters[li].apps.Load() - before; got != 1 {
		t.Fatalf("the leader sent %d APP messages to reject one burst, want 1", got)
	}
	if got := leader.fwdQueued.Load(); got != maxForwardWrites {
		t.Fatalf("a rejected burst left the queue at %d writes, want %d", got, maxForwardWrites)
	}
	for _, path := range []string{"/q1", "/q2"} {
		if _, err := leader.Tree().Exists(path, nil); err == nil {
			t.Fatalf("%s was rejected but reached the tree", path)
		}
	}
	_ = conn.Close()
}

// TestBurstEndingInCloseSessionForwardsWrites: the writes of a burst
// that ends in the session's CloseSession are forwarded before the
// session stops.
func TestBurstEndingInCloseSessionForwardsWrites(t *testing.T) {
	tc := newTestCluster(t, 3)
	leader := tc.waitLeader(time.Second)
	conn := newBurstConn([][]byte{
		createReq(1, "/c1", 0),
		createReq(2, "/c2", 0),
		wire.Marshal(&wire.RequestHeader{Xid: 3, Op: wire.OpCloseSession}),
	})
	select {
	case err := <-tc.serve(tc.followerIndex(), conn):
		if err != nil {
			t.Fatalf("ServeConn = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the session did not stop at its CloseSession")
	}
	for _, path := range []string{"/c1", "/c2"} {
		waitFor(t, path+" on the leader", func() bool {
			_, err := leader.Tree().Exists(path, nil)
			return err == nil
		})
	}
}

// TestLeaderLossBetweenAdmitAndFlushRefusesBurst: a follower that loses
// its leader after its reader admitted a burst and before it hands the
// burst on refuses the burst whole: every write fails with
// CONNECTIONLOSS, in order, and so does the read queued behind them.
func TestLeaderLossBetweenAdmitAndFlushRefusesBurst(t *testing.T) {
	tc := newTestCluster(t, 3)
	leader := tc.waitLeader(time.Second)
	follower := tc.replicas[tc.followerIndex()]
	s := unstartedSession(follower, 7100)
	for _, msg := range [][]byte{createReq(1, "/lost1", 0), getReq(2, "/"), createReq(3, "/lost2", 0)} {
		if stop, err := s.submit(msg); stop || err != nil {
			t.Fatalf("submit = %v, %v", stop, err)
		}
	}
	tc.net.SetDown(follower.ID(), true)
	waitFor(t, "the follower to lose its leader", func() bool { return follower.peer.Leader() < 0 })
	s.handOn()
	got := release(t, s)
	if len(got) != 3 {
		t.Fatalf("released %d replies, want 3", len(got))
	}
	for i, hdr := range got {
		if hdr.Xid != int32(i+1) || hdr.Err != wire.ErrConnectionLoss {
			t.Fatalf("reply %d: xid %d %v, want xid %d CONNECTIONLOSS", i, hdr.Xid, hdr.Err, i+1)
		}
	}
	for _, path := range []string{"/lost1", "/lost2"} {
		if _, err := leader.Tree().Exists(path, nil); err == nil {
			t.Fatalf("%s was refused but reached the tree", path)
		}
	}
}

// TestCloseProposesOneCloseSession: a client's Close is one CloseSession
// on every replica — the one the session's reader hands on — not that
// and a second one submitted when the connection ends. One session on
// each replica closes, the cluster is otherwise idle, and every replica
// applies three transactions, then nothing for longer than the
// closing-session retry takes to fire.
func TestCloseProposesOneCloseSession(t *testing.T) {
	tc := newTestCluster(t, 3)
	var sessions []*client.Client
	for i := range tc.replicas {
		sessions = append(sessions, tc.connect(i, client.Options{}))
	}
	applied := func(r *Replica) int64 { return r.applyHist.Snapshot().Count }
	before := make([]int64, len(tc.replicas))
	for i, r := range tc.replicas {
		before[i] = applied(r)
	}
	for _, cl := range sessions {
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range tc.replicas {
		waitFor(t, fmt.Sprintf("replica %d to apply the closes", r.ID()), func() bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			return applied(r)-before[i] >= 3 && len(r.sessions) == 0 && len(r.closing) == 0
		})
	}
	time.Sleep(3 * closeRetryInterval)
	for i, r := range tc.replicas {
		if n := applied(r) - before[i]; n != 3 {
			t.Errorf("replica %d applied %d transactions for 3 closed sessions, want 3", r.ID(), n)
		}
	}
}

// TestDegradedFollowerClosesDroppedSession: a degraded replica refuses
// client writes, but the CloseSession of a session that drops from it
// still reaches the leader, so the session's ephemeral node goes away
// everywhere instead of outliving its owner.
func TestDegradedFollowerClosesDroppedSession(t *testing.T) {
	tc := newTestCluster(t, 3)
	leader := tc.waitLeader(time.Second)
	fi := tc.followerIndex()
	follower := tc.replicas[fi]
	owner := tc.connect(fi, client.Options{})
	if _, err := owner.Create(ctxbg, "/eph-degraded", []byte("x"), wire.FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	follower.enterDegraded(errors.New("injected persistence failure"))
	if _, err := owner.Create(ctxbg, "/refused", nil, 0); err == nil {
		t.Fatal("a degraded replica took a client write")
	}
	_ = owner.Close()
	waitFor(t, "the ephemeral to leave the leader", func() bool {
		_, err := leader.Tree().Exists("/eph-degraded", nil)
		return err != nil
	})
}

// TestManyClosingSessionsOnFollower: more sessions close at once on a
// follower than the leader's forward queue holds. The follower forwards
// their CloseSessions in messages the queue can take, so every one of
// them is delivered.
func TestManyClosingSessionsOnFollower(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.waitLeader(time.Second)
	follower := tc.replicas[tc.followerIndex()]
	n := maxForwardWrites + 904
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(1_000_000 + i)
	}
	follower.mu.Lock()
	for _, id := range ids {
		follower.closing[id] = obs.Now()
	}
	follower.mu.Unlock()
	follower.submitCloses(ids)
	deadline := time.Now().Add(20 * time.Second)
	for {
		follower.mu.Lock()
		left := len(follower.closing)
		follower.mu.Unlock()
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d closing sessions still undelivered after 20s", left, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
