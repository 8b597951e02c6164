package zabnet

import (
	"net"
	"runtime"
	"testing"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/transport"
	"securekeeper/internal/zab"
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

// BenchmarkMeshSendPropose measures the send hop of the leader's
// fan-out: one op is one PROPOSE of one 1 KB record handed to SendMany
// for two followers and written to their loopback sockets by the link
// writers. The followers are raw sockets that answer the hello and then
// read and discard, so nothing but the send hop allocates; the sender
// keeps at most 32 frames queued per link, as a leader whose followers
// keep up does. In steady state the hop allocates nothing: the message
// is serialized into a pooled encoder, appended to each link's send
// buffer and length-prefixed into the connection's send scratch.
func BenchmarkMeshSendPropose(b *testing.B) {
	peers := make(map[zab.PeerID]string)
	for id := zab.PeerID(1); id <= 2; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
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
		b.Fatal(err)
	}
	peers[3] = own.Addr().String()
	reg := obs.NewRegistry()
	m, err := NewMesh(Config{ID: 3, Peers: peers, Listener: own, Obs: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	waitFor(b, 5*time.Second, "links to both followers", func() bool { return m.Connected(1) && m.Connected(2) })

	followers := []zab.PeerID{1, 2}
	links := []*link{m.link(1), m.link(2)}
	batch := []zab.ProposalRecord{{Txn: ztree.Txn{Type: ztree.TxnSetData, Path: "/bench/key", Data: make([]byte, 1024), Version: -1}}}
	send := func(i int) {
		batch[0].Txn.Zxid = int64(i + 1)
		_ = m.SendMany(followers, zab.Message{Kind: zab.KindProposeBatch, Epoch: 1, Zxid: int64(i), Batch: batch})
		for _, l := range links {
			for l.depth() > 32 {
				runtime.Gosched()
			}
		}
	}
	// Both buffers of both links, the connections' send scratch and the
	// encoder reach their working size before the clock starts.
	for i := 0; i < 4096; i++ {
		send(i)
	}
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
