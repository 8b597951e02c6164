package server

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/obs"
	"securekeeper/internal/storage"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/ztree"
)

// newDurableSingle boots a single-replica ensemble persisting to dir.
func newDurableSingle(t *testing.T, net *zab.Network, dir string) *Replica {
	t.Helper()
	r := NewReplica(Config{
		ID:              1,
		Peers:           []zab.PeerID{1},
		Transport:       net.Endpoint(1),
		TickInterval:    5 * time.Millisecond,
		ElectionTimeout: 60 * time.Millisecond,
		DataDir:         dir,
		SnapshotEvery:   10,
		Obs:             obs.NewRegistry(),
	})
	deadline := time.Now().Add(5 * time.Second)
	for !r.IsLeader() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !r.IsLeader() {
		t.Fatal("single replica did not lead")
	}
	return r
}

func connectTo(t *testing.T, r *Replica) *client.Client {
	t.Helper()
	a, b := transport.NewChanPipe()
	go func() { _ = r.ServeConn(b, nil) }()
	cl, err := client.NewSession(a, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestReplicaRestartRecoversState kills a durable replica and restarts
// it from its data directory: all committed writes must survive,
// spanning both snapshots and the log suffix.
func TestReplicaRestartRecoversState(t *testing.T) {
	dir := t.TempDir()

	// First life: write 25 nodes (snapshot every 10 -> snapshot + log
	// suffix both exercised).
	net1 := zab.NewNetwork()
	r1 := newDurableSingle(t, net1, dir)
	cl := connectTo(t, r1)
	for i := 0; i < 25; i++ {
		if _, err := cl.Create(ctxbg, fmt.Sprintf("/d%02d", i), []byte{byte(i)}, 0); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	wantDigest := r1.Tree().Digest()
	wantCount := r1.Tree().Count()
	_ = cl.Close()
	r1.Close()
	net1.Close()

	// Second life: a fresh process recovers from disk.
	net2 := zab.NewNetwork()
	r2 := newDurableSingle(t, net2, dir)
	defer func() {
		r2.Close()
		net2.Close()
	}()
	if r2.Tree().Count() != wantCount {
		t.Fatalf("recovered %d nodes, want %d", r2.Tree().Count(), wantCount)
	}
	if r2.Tree().Digest() != wantDigest {
		t.Fatal("recovered tree diverges from pre-crash state")
	}

	// And it keeps serving: reads see old data, writes continue with
	// higher zxids.
	cl2 := connectTo(t, r2)
	defer cl2.Close()
	data, _, err := cl2.Get(ctxbg, "/d07")
	if err != nil || !bytes.Equal(data, []byte{7}) {
		t.Fatalf("recovered read = %v, %v", data, err)
	}
	if _, err := cl2.Create(ctxbg, "/post-restart", []byte("new"), 0); err != nil {
		t.Fatalf("post-restart write: %v", err)
	}
}

// TestPersistFailureDegradesReplica: when the WAL dies, the replica
// must stop acknowledging writes — loudly degraded and read-only —
// instead of pretending commits are durable.
func TestPersistFailureDegradesReplica(t *testing.T) {
	net := zab.NewNetwork()
	r := newDurableSingle(t, net, t.TempDir())
	defer func() {
		r.Close()
		net.Close()
	}()
	cl := connectTo(t, r)
	defer cl.Close()
	if _, err := cl.Create(ctxbg, "/pre", []byte("ok"), 0); err != nil {
		t.Fatalf("pre-failure write: %v", err)
	}

	// Kill the disk out from under the replica.
	r.persister.Fail(errors.New("injected disk failure"))

	// The replica degraded at the failure: the write fails, unacknowledged.
	if _, err := cl.Create(ctxbg, "/lost", nil, 0); err == nil {
		t.Fatal("write acknowledged after persistence failure")
	}
	if !r.Degraded() {
		t.Fatal("replica not degraded after persistence failure")
	}
	// Subsequent writes are refused up front...
	if _, err := cl.Set(ctxbg, "/pre", []byte("nope"), -1); err == nil {
		t.Fatal("write accepted while degraded")
	}
	// ...but reads keep serving from the in-memory tree.
	if data, _, err := cl.Get(ctxbg, "/pre"); err != nil || !bytes.Equal(data, []byte("ok")) {
		t.Fatalf("degraded read = %q, %v", data, err)
	}
}

// TestPersistFailureDegradesIdleReplica: a replica none of whose
// clients waits on a record — here it has none at all — degrades the
// moment its disk fails, not at the next write one of them sends.
func TestPersistFailureDegradesIdleReplica(t *testing.T) {
	net := zab.NewNetwork()
	r := newDurableSingle(t, net, t.TempDir())
	defer func() {
		r.Close()
		net.Close()
	}()
	r.persister.Fail(errors.New("injected disk failure"))
	if !r.Degraded() {
		t.Fatal("replica with no session not degraded after persistence failure")
	}
}

// TestDurableFollowerSnapSyncPersists: a durable follower that receives
// a snapshot sync persists it, so a restart from its data dir reflects
// it. The follower is down while the ensemble commits more and restarts
// into a new epoch, whose leader holds no diff for it, so it syncs by
// snapshot; then its data dir alone must recover the leader's tree.
func TestDurableFollowerSnapSyncPersists(t *testing.T) {
	net := zab.NewNetwork()
	ids := []zab.PeerID{1, 2, 3}
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	replicas := make([]*Replica, 3)
	start := func(i int) {
		net.Flush(ids[i]) // what the previous incarnation was sent
		replicas[i] = NewReplica(Config{
			ID:              ids[i],
			Peers:           ids,
			Transport:       net.Endpoint(ids[i]),
			TickInterval:    5 * time.Millisecond,
			ElectionTimeout: 80 * time.Millisecond,
			DataDir:         dirs[i],
			SnapshotEvery:   1000,
		})
		net.SetDown(ids[i], false)
	}
	stop := func(i int) {
		net.SetDown(ids[i], true)
		replicas[i].Close()
		replicas[i] = nil
	}
	// settled waits for a leader that the other live replicas follow, so
	// a quorum has synced and the first write is not refused.
	settled := func() *Replica {
		var live []*Replica
		for _, r := range replicas {
			if r != nil {
				live = append(live, r)
			}
		}
		tc := &testCluster{t: t, replicas: live}
		tc.waitSettled(5 * time.Second)
		return tc.waitLeader(time.Second)
	}
	create := func(leader *Replica, from, to int) {
		cl := connectTo(t, leader)
		defer cl.Close()
		for i := from; i < to; i++ {
			if _, err := cl.Create(ctxbg, fmt.Sprintf("/s%02d", i), nil, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range replicas {
		start(i)
	}
	defer func() {
		for _, r := range replicas {
			if r != nil {
				r.Close()
			}
		}
		net.Close()
	}()

	leader := settled()
	create(leader, 0, 10)
	f := (int(leader.ID()) % 3) // a follower's index
	stop(f)
	create(leader, 10, 15) // the follower misses these
	for i := range replicas {
		if i != f {
			stop(i)
		}
	}
	for i := range replicas {
		if i != f {
			start(i)
		}
	}
	leader = settled() // a new epoch, whose log starts empty
	start(f)
	want := leader.Tree().Digest()
	deadline := time.Now().Add(5 * time.Second)
	for replicas[f].Tree().Digest() != want {
		if time.Now().After(deadline) {
			t.Fatal("the restarted follower did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop(f)

	if snaps, _ := filepath.Glob(filepath.Join(dirs[f], "snapshot.*")); len(snaps) != 1 {
		t.Fatalf("the follower's data dir holds snapshots %v, want the one of its snapshot sync", snaps)
	}
	tree := ztree.New()
	p, _, err := storage.Recover(storage.PersisterConfig{Dir: dirs[f], Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if tree.Digest() != want {
		t.Fatal("the follower's data dir does not recover the leader's tree")
	}
}

// TestFlushRuleCountsQueuedReads: on a durable replica, a read that a
// session queues behind its own unanswered write counts toward the
// persister's flush rule, because the flush that makes the write durable
// answers the read too. Under a 100 ms fsync stall a pipelined session
// sends a lone write and, while its flush runs, [w w w w w r]: one batch
// of five records and the read. Then [w w w w r r], six requests again,
// and the hold before they go down ends when all six have arrived, far
// under the stall. Counting records alone, it waited for a fifth write
// until the bound.
func TestFlushRuleCountsQueuedReads(t *testing.T) {
	const stall = 100 * time.Millisecond
	net := zab.NewNetwork()
	r := newDurableSingle(t, net, t.TempDir())
	defer func() {
		r.Close()
		net.Close()
	}()
	a, b := transport.NewChanPipe()
	go func() { _ = r.ServeConn(b, nil) }()
	defer a.Close()
	if err := a.SendFrame(wire.Marshal(&wire.ConnectRequest{TimeoutMillis: 10000})); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecvFrame(); err != nil {
		t.Fatal(err)
	}

	var xid int32
	sent := 0
	send := func(ops ...wire.OpCode) {
		t.Helper()
		var burst [][]byte
		for _, op := range ops {
			xid++
			var body wire.Record = &wire.GetDataRequest{Path: "/f"}
			switch op {
			case wire.OpCreate:
				body = &wire.CreateRequest{Path: "/f"}
			case wire.OpSetData:
				body = &wire.SetDataRequest{Path: "/f", Data: []byte("v"), Version: -1}
			}
			burst = append(burst, wire.MarshalPair(&wire.RequestHeader{Xid: xid, Op: op}, body))
		}
		if err := a.SendFrames(burst); err != nil {
			t.Fatal(err)
		}
		sent += len(ops)
	}
	replies := func() {
		t.Helper()
		for ; sent > 0; sent-- {
			frame, err := a.RecvFrame()
			if err != nil {
				t.Fatal(err)
			}
			var hdr wire.ReplyHeader
			if err := hdr.Deserialize(wire.NewDecoder(frame)); err != nil || hdr.Err != wire.ErrOK {
				t.Fatalf("reply %+v, %v", hdr, err)
			}
		}
	}
	w, rd := wire.OpSetData, wire.OpGetData

	send(wire.OpCreate)
	replies()
	r.Persister().StallFsync(stall)
	send(w)
	time.Sleep(stall / 5) // its flush has started
	send(w, w, w, w, w, rd)
	replies()
	send(w, w, w, w, rd, rd)
	replies()

	if held := heldSeconds(t, r.cfg.Obs); held > (stall / 2).Seconds() {
		t.Fatalf("the flush rule held the queue %.3f s in all, want far under the %v stall", held, stall)
	}
}

// heldSeconds sums storage_flush_hold_seconds over all of its series.
func heldSeconds(t *testing.T, reg *obs.Registry) float64 {
	t.Helper()
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(text.String(), "\n") {
		if series, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(series, "storage_flush_hold_seconds_sum") {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
	}
	return sum
}
