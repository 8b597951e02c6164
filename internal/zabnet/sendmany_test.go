package zabnet

import (
	"net"
	"runtime"
	"testing"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/zabnet/link"
	"securekeeper/internal/ztree"
)

// TestMeshSendMany: one SendMany call delivers the same message to
// every listed peer; self and unknown ids are skipped silently, and
// per-peer delivery is independent (a dead link does not prevent the
// others' delivery).
func TestMeshSendMany(t *testing.T) {
	meshes := newTestMeshes(t, 4, nil)
	waitFor(t, 5*time.Second, "full mesh", func() bool {
		for _, m := range meshes {
			for id := zab.PeerID(1); id <= 4; id++ {
				if id != m.ID() && !m.Connected(id) {
					return false
				}
			}
		}
		return true
	})

	txn := &ztree.Txn{Zxid: 7, Type: ztree.TxnSetData, Path: "/fan", Data: []byte("out")}
	msg := zab.Message{
		Kind:  zab.KindProposeBatch,
		Epoch: 1,
		Zxid:  6,
		Batch: []zab.ProposalRecord{{Txn: *txn}},
	}
	// Include self (1) and a bogus peer: both skipped without error.
	if err := meshes[0].SendMany([]zab.PeerID{1, 2, 3, 4, 99}, msg); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		select {
		case got := <-meshes[i].Receive():
			if got.Kind != zab.KindProposeBatch || got.From != 1 || len(got.Batch) != 1 ||
				got.Batch[0].Txn.Path != "/fan" || string(got.Batch[0].Txn.Data) != "out" {
				t.Fatalf("peer %d got %+v", i+1, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("peer %d never received the multicast", i+1)
		}
	}
	select {
	case got := <-meshes[0].Receive():
		t.Fatalf("sender received its own multicast: %+v", got)
	case <-time.After(50 * time.Millisecond):
	}

	// SendToMany falls back to per-peer Send for plain transports and
	// uses the mesh fast path here — both must deliver.
	zab.SendToMany(meshes[1], []zab.PeerID{1, 3}, zab.Message{Kind: zab.KindPing, Zxid: 42})
	for _, i := range []int{0, 2} {
		select {
		case got := <-meshes[i].Receive():
			if got.Kind != zab.KindPing || got.From != 2 || got.Zxid != 42 {
				t.Fatalf("peer %d got %+v", i+1, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("peer %d never received the ping", i+1)
		}
	}

	// Closed mesh refuses.
	_ = meshes[3].Close()
	if err := meshes[3].SendMany([]zab.PeerID{1}, zab.Message{Kind: zab.KindPing}); err != ErrMeshClosed {
		t.Fatalf("SendMany on closed mesh = %v", err)
	}
}

// TestNetworkSendToManyFallback: the in-process transport has no
// MultiSender; SendToMany must fan out per peer.
func TestNetworkSendToManyFallback(t *testing.T) {
	net := zab.NewNetwork()
	e1 := net.Endpoint(1)
	e2 := net.Endpoint(2)
	e3 := net.Endpoint(3)
	zab.SendToMany(e1, []zab.PeerID{2, 3}, zab.Message{Kind: zab.KindCommit, Zxid: 9})
	for i, e := range []*zab.NetworkEndpoint{e2, e3} {
		select {
		case got := <-e.Receive():
			if got.Kind != zab.KindCommit || got.Zxid != 9 || got.From != 1 {
				t.Fatalf("endpoint %d got %+v", i+2, got)
			}
		default:
			t.Fatalf("endpoint %d empty", i+2)
		}
	}
}

// proposeSender is the send hop of a leader's fan-out: a mesh, as peer
// 3, linked to two followers that are raw sockets answering the hello
// and then reading and discarding, so nothing but the send hop
// allocates. send(i) hands SendMany the i-th PROPOSE of one 1 KB record
// for both followers, and waits while either link has more than
// maxDepth frames queued, as a leader whose followers keep up does. So a
// link never holds more than maxDepth+1 frames, queued and being
// written together.
//
// Before it returns, both send buffers of both links, the cores' frame
// lists, the connections' send scratch and the encoder are at the size
// that bound allows: twice, maxDepth+1 PROPOSEs are queued on each link
// while its writer is held off, and then written in one batch, and 4096
// sends are made. Without the held-off batches, a counted window in
// which a loaded box let the writers fall further behind than they had
// in the warm-up grew those buffers to a new peak: 16 to 19 objects
// (each link's send buffer and its frame ends, the frame list the
// writer takes and the connection's send scratch, doubling on two
// links).
func proposeSender(tb testing.TB) (send func(i int), m *Mesh) {
	peers := make(map[zab.PeerID]string)
	for id := zab.PeerID(1); id <= 2; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = ln.Close() })
		peers[id] = ln.Addr().String()
		go func(id zab.PeerID) {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			fc := transport.NewFramedConn(conn)
			if _, err := fc.RecvFrame(); err != nil {
				return
			}
			h := newHello(id, false, nil)
			if err := sendHello(fc, &h); err != nil {
				return
			}
			sink := make([]byte, 64<<10)
			for {
				if _, err := conn.Read(sink); err != nil {
					return
				}
			}
		}(id)
	}
	own, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	peers[3] = own.Addr().String()
	m, err = NewMesh(Config{ID: 3, Peers: peers, Listener: own, Obs: obs.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = m.Close() })
	waitFor(tb, 5*time.Second, "links to both followers", func() bool { return m.Connected(1) && m.Connected(2) })

	const maxDepth = 32
	followers := []zab.PeerID{1, 2}
	links := []*peer{m.peer(1), m.peer(2)}
	batch := []zab.ProposalRecord{{Txn: ztree.Txn{Type: ztree.TxnSetData, Path: "/bench/key", Data: make([]byte, 1024), Version: -1}}}
	propose := func(i int) zab.Message {
		batch[0].Txn.Zxid = int64(i + 1)
		return zab.Message{Kind: zab.KindProposeBatch, Epoch: 1, Zxid: int64(i), Batch: batch}
	}
	drained := func() {
		for _, l := range links {
			for l.depth() > maxDepth {
				runtime.Gosched()
			}
		}
	}
	send = func(i int) {
		_ = m.SendMany(followers, propose(i))
		drained()
	}
	e := wire.NewEncoder(2048)
	for round := 0; round < 2; round++ {
		e.Reset()
		msg := propose(0)
		msg.From = 3
		msg.Serialize(e)
		for _, l := range links {
			l.mu.Lock() // the writer cannot take what is queued
			for k := 0; k <= maxDepth; k++ {
				if st := l.core.Enqueue(e.Bytes()); st != link.Queued {
					tb.Fatalf("warm-up batch: status %d", st)
				}
			}
			select {
			case l.conn.wake <- struct{}{}:
			default:
			}
			l.mu.Unlock()
		}
		for _, l := range links {
			for l.depth() > 0 {
				runtime.Gosched()
			}
		}
	}
	for i := 0; i < 4096; i++ {
		send(i)
	}
	return send, m
}

// BenchmarkMeshSendPropose measures the send hop of the leader's
// fan-out (proposeSender): one op is one PROPOSE of one 1 KB record
// handed to SendMany for two followers and written to their loopback
// sockets by the link writers. In steady state the hop allocates
// nothing (TestMeshSendProposeAllocations): the message is serialized
// into a pooled encoder, appended to each link's send buffer and
// length-prefixed into the connection's send scratch.
func BenchmarkMeshSendPropose(b *testing.B) {
	send, m := proposeSender(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(4096 + i)
	}
	b.StopTimer()
	if shed := m.outboxShed.Value(); shed != 0 {
		b.Fatalf("%d messages shed: the benchmark did not measure the send hop", shed)
	}
}

// TestMeshSendProposeAllocations: 20 000 PROPOSEs fanned out to two
// followers, after the warm-up, allocate no object.
func TestMeshSendProposeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the encoder is pooled, and the race detector empties pools at random")
	}
	send, m := proposeSender(t)
	next := 4096
	got := testing.AllocsPerRun(1, func() {
		for i := 0; i < 20_000; i++ {
			send(next)
			next++
		}
	})
	if got != 0 {
		t.Errorf("20000 PROPOSE sends allocated %v objects, want 0", got)
	}
	if shed := m.outboxShed.Value(); shed != 0 {
		t.Fatalf("%d messages shed: the test did not count the send hop", shed)
	}
}
