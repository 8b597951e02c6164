package server

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/transport"
	"securekeeper/internal/zab"
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
// a snapshot sync persists it, so a subsequent restart reflects it.
func TestDurableFollowerSnapSyncPersists(t *testing.T) {
	net := zab.NewNetwork()
	ids := []zab.PeerID{1, 2, 3}
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	replicas := make([]*Replica, 3)
	for i := range replicas {
		replicas[i] = NewReplica(Config{
			ID:              ids[i],
			Peers:           ids,
			Transport:       net.Endpoint(ids[i]),
			TickInterval:    5 * time.Millisecond,
			ElectionTimeout: 80 * time.Millisecond,
			DataDir:         dirs[i],
			SnapshotEvery:   1000,
		})
	}
	defer func() {
		for _, r := range replicas {
			if r != nil {
				r.Close()
			}
		}
		net.Close()
	}()

	// Wait for a leader and write through it.
	var leaderIdx int
	deadline := time.Now().Add(5 * time.Second)
	for {
		leaderIdx = -1
		for i, r := range replicas {
			if r.IsLeader() {
				leaderIdx = i
			}
		}
		if leaderIdx >= 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
		time.Sleep(time.Millisecond)
	}
	cl := connectTo(t, replicas[leaderIdx])
	defer cl.Close()
	for i := 0; i < 10; i++ {
		if _, err := cl.Create(ctxbg, fmt.Sprintf("/s%02d", i), nil, 0); err != nil {
			t.Fatal(err)
		}
	}

	// All replicas converge and each data dir is non-empty.
	deadline = time.Now().Add(5 * time.Second)
	want := replicas[leaderIdx].Tree().Digest()
	for time.Now().Before(deadline) {
		ok := true
		for _, r := range replicas {
			if r.Tree().Digest() != want {
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("durable ensemble did not converge")
}
