package zabnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/zabnet/link"
	"securekeeper/internal/ztree"
)

// The link core's frame types and bound, as this package's tests name
// them.
const (
	frameMsg            = link.FrameMsg
	frameFragBegin      = link.FrameFragBegin
	maxReassembledBytes = link.MaxMessage
)

// newTestMeshes builds n connected meshes on ephemeral ports.
func newTestMeshes(t *testing.T, n int, tweak func(*Config)) []*Mesh {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make(map[zab.PeerID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		peers[zab.PeerID(i+1)] = ln.Addr().String()
	}
	meshes := make([]*Mesh, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			ID:       zab.PeerID(i + 1),
			Peers:    peers,
			Listener: listeners[i],
		}
		if tweak != nil {
			tweak(&cfg)
		}
		m, err := NewMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		meshes[i] = m
	}
	return meshes
}

func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitConnected(t *testing.T, meshes []*Mesh) {
	t.Helper()
	waitFor(t, 5*time.Second, "full mesh connectivity", func() bool {
		for _, m := range meshes {
			for _, other := range meshes {
				if m.ID() == other.ID() {
					continue
				}
				if !m.Connected(other.ID()) {
					return false
				}
			}
		}
		return true
	})
}

// sendUntilDelivered retries a best-effort Send until the receiver
// yields a message (links may still be handshaking).
func recvMsg(t *testing.T, m *Mesh, timeout time.Duration) zab.Message {
	t.Helper()
	select {
	case msg := <-m.Receive():
		return msg
	case <-time.After(timeout):
		t.Fatalf("mesh %d: no message within %v", m.ID(), timeout)
		return zab.Message{}
	}
}

func TestMeshDeliveryBothDirections(t *testing.T) {
	meshes := newTestMeshes(t, 2, nil)
	waitConnected(t, meshes)

	// Dial-side (2, higher id) to accept-side (1).
	if err := meshes[1].Send(1, zab.Message{Kind: zab.KindPing, Epoch: 7, Zxid: 42}); err != nil {
		t.Fatal(err)
	}
	got := recvMsg(t, meshes[0], 2*time.Second)
	if got.Kind != zab.KindPing || got.Epoch != 7 || got.Zxid != 42 || got.From != 2 {
		t.Fatalf("mesh 1 got %+v", got)
	}

	// Accept-side back over the same link.
	if err := meshes[0].Send(2, zab.Message{Kind: zab.KindPong, Zxid: 43}); err != nil {
		t.Fatal(err)
	}
	got = recvMsg(t, meshes[1], 2*time.Second)
	if got.Kind != zab.KindPong || got.Zxid != 43 || got.From != 1 {
		t.Fatalf("mesh 2 got %+v", got)
	}
}

// TestMeshFromIsLinkIdentity: the receive path must stamp From with the
// handshaken link identity regardless of what the sender claims.
func TestMeshFromIsLinkIdentity(t *testing.T) {
	meshes := newTestMeshes(t, 2, nil)
	waitConnected(t, meshes)
	if err := meshes[1].Send(1, zab.Message{Kind: zab.KindApp, From: 99, App: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	got := recvMsg(t, meshes[0], 2*time.Second)
	if got.From != 2 {
		t.Fatalf("From = %d, want link identity 2", got.From)
	}
}

func TestMeshSendToUnknownOrSelf(t *testing.T) {
	meshes := newTestMeshes(t, 2, nil)
	if err := meshes[0].Send(1, zab.Message{Kind: zab.KindPing}); err == nil {
		t.Fatal("send to self must fail")
	}
	if err := meshes[0].Send(99, zab.Message{Kind: zab.KindPing}); err == nil {
		t.Fatal("send to unknown peer must fail")
	}
}

// TestMeshObserverHello: a topology that marks a member as observer
// still reaches full connectivity — the role byte round-trips on both
// the dial and accept sides and validates consistently.
func TestMeshObserverHello(t *testing.T) {
	meshes := newTestMeshes(t, 3, func(cfg *Config) {
		cfg.Observers = map[zab.PeerID]bool{3: true}
	})
	waitConnected(t, meshes)

	// Traffic flows to and from the observer exactly like any peer.
	if err := meshes[2].Send(1, zab.Message{Kind: zab.KindFollowerInfo, Zxid: 5}); err != nil {
		t.Fatal(err)
	}
	got := recvMsg(t, meshes[0], 2*time.Second)
	if got.Kind != zab.KindFollowerInfo || got.Zxid != 5 || got.From != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestMeshReconnectAfterLinkLoss(t *testing.T) {
	meshes := newTestMeshes(t, 2, nil)
	waitConnected(t, meshes)

	// Kill the shared TCP link from the accept side; the dialer (mesh
	// 2) must re-establish it.
	meshes[0].KillLink(2)
	waitFor(t, 5*time.Second, "reconnect", func() bool {
		if !meshes[0].Connected(2) || !meshes[1].Connected(1) {
			return false
		}
		// Prove the new link carries traffic.
		if err := meshes[1].Send(1, zab.Message{Kind: zab.KindPing, Zxid: 1}); err != nil {
			return false
		}
		select {
		case <-meshes[0].Receive():
			return true
		case <-time.After(20 * time.Millisecond):
			return false
		}
	})
}

// TestMeshChunkedSnapshotTransfer sends a snapshot of more than two
// chunks and verifies the fragmented frames — a start, a continuation
// and an end — reassemble exactly.
func TestMeshChunkedSnapshotTransfer(t *testing.T) {
	meshes := newTestMeshes(t, 2, nil)
	waitConnected(t, meshes)

	snap := &ztree.Snapshot{}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 2<<10) // 32 KiB/node
	for i := 0; i < 100; i++ {
		snap.Nodes = append(snap.Nodes, ztree.SnapshotNode{
			Path: fmt.Sprintf("/chunky/node-%04d", i),
			Data: payload,
			Stat: wire.Stat{Czxid: int64(i), DataLength: int32(len(payload))},
		})
	}
	sent := zab.Message{Kind: zab.KindSyncSnap, Epoch: 3, Zxid: zab.MakeZxid(3, 9), Snapshot: snap}
	if err := meshes[1].Send(1, sent); err != nil {
		t.Fatal(err)
	}
	got := recvMsg(t, meshes[0], 5*time.Second)
	sent.From = 2
	if !reflect.DeepEqual(sent, got) {
		t.Fatalf("chunked snapshot mismatch: got %d nodes, want %d (kind=%v zxid=%#x)",
			len(got.Snapshot.Nodes), len(snap.Nodes), got.Kind, got.Zxid)
	}

	// The link must remain usable for ordinary frames afterwards.
	if err := meshes[1].Send(1, zab.Message{Kind: zab.KindPing, Zxid: 5}); err != nil {
		t.Fatal(err)
	}
	if got := recvMsg(t, meshes[0], 2*time.Second); got.Kind != zab.KindPing {
		t.Fatalf("post-snapshot frame = %+v", got)
	}
}

// TestFragmentStartReservesNothingOnThePeersWord: the total a fragment
// sequence announces is a claim. A 14-byte frame that claims the largest
// message the mesh reassembles must cost the receiver what has arrived,
// not the 256 MiB it speaks of.
func TestFragmentStartReservesNothingOnThePeersWord(t *testing.T) {
	own, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMesh(Config{ID: 1, Peers: map[zab.PeerID]string{1: own.Addr().String(), 2: ""}, Listener: own})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := transport.NewFramedConn(conn)
	_ = fc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := fc.SendFrame(helloFrame(newHello(2, false, nil))); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.RecvFrame(); err != nil {
		t.Fatalf("the mesh's hello: %v", err)
	}
	waitFor(t, 3*time.Second, "the link", func() bool { return m.Connected(2) })

	// TotalAlloc, not HeapAlloc: what the read loop allocates is counted
	// whether or not a collection has run since.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := binary.BigEndian.AppendUint64([]byte{frameFragBegin}, maxReassembledBytes)
	if err := fc.SendFrame(append(begin, 'x')); err != nil {
		t.Fatal(err)
	}
	// A whole message in the middle of a fragment sequence makes the mesh
	// hang up: once it has, it has taken the fragment start in.
	if err := fc.SendFrame([]byte{frameMsg}); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.RecvFrame(); err == nil {
		t.Fatal("the mesh kept a link that interleaved a message with fragments")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 4<<20 {
		t.Fatalf("a 1-byte chunk announcing %d bytes made the mesh allocate %d", maxReassembledBytes, grown)
	}
}

// --- full protocol over TCP ---

// tcpPeer bundles a zab.Peer with its mesh and a recorded commit log.
type tcpPeer struct {
	mesh *Mesh
	peer *zab.Peer

	mu        sync.Mutex
	delivered []int64
}

func (p *tcpPeer) committed() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int64(nil), p.delivered...)
}

// newTCPEnsemble starts n zab peers connected by real TCP meshes.
func newTCPEnsemble(t *testing.T, n int, tweakMesh func(*Config)) []*tcpPeer {
	t.Helper()
	meshes := newTestMeshes(t, n, tweakMesh)
	ids := make([]zab.PeerID, n)
	for i := range ids {
		ids[i] = zab.PeerID(i + 1)
	}
	ensemble := make([]*tcpPeer, n)
	for i := 0; i < n; i++ {
		tp := &tcpPeer{mesh: meshes[i]}
		tp.peer = zab.NewPeer(zab.Config{
			ID:        ids[i],
			Peers:     ids,
			Transport: meshes[i],
			Deliver: func(c zab.Committed) {
				tp.mu.Lock()
				tp.delivered = append(tp.delivered, c.Txn.Zxid)
				tp.mu.Unlock()
			},
			Snapshot:        func() *ztree.Snapshot { return &ztree.Snapshot{} },
			Restore:         func(*ztree.Snapshot) {},
			TickInterval:    5 * time.Millisecond,
			ElectionTimeout: 300 * time.Millisecond,
		})
		tp.peer.Start()
		t.Cleanup(tp.peer.Stop)
		ensemble[i] = tp
	}
	return ensemble
}

func leaderOf(t *testing.T, ensemble []*tcpPeer) *tcpPeer {
	t.Helper()
	var leader *tcpPeer
	waitFor(t, 10*time.Second, "leader election over TCP", func() bool {
		for _, p := range ensemble {
			if p.peer.Role() == zab.RoleLeading {
				leader = p
				return true
			}
		}
		return false
	})
	return leader
}

// submitRetry retries a submission while the just-elected leader is
// still assembling its synced quorum (followers' FOLLOWERINFO retries
// are paced, so activation can lag the LEADING role by a beat).
func submitRetry(t *testing.T, p *zab.Peer, txn ztree.Txn, origin zab.Origin) {
	t.Helper()
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err = p.Submit(txn, origin); err == nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("submit never accepted: %v", err)
}

func TestZabEnsembleOverTCP(t *testing.T) {
	ensemble := newTCPEnsemble(t, 3, nil)
	leader := leaderOf(t, ensemble)

	const txns = 50
	for i := 0; i < txns; i++ {
		submitRetry(t, leader.peer, ztree.Txn{Type: ztree.TxnSync, Path: "/t"},
			zab.Origin{Peer: leader.peer.ID()})
	}
	waitFor(t, 10*time.Second, "all replicas to commit all txns", func() bool {
		for _, p := range ensemble {
			if len(p.committed()) != txns {
				return false
			}
		}
		return true
	})
	// Zxid order must agree everywhere.
	want := ensemble[0].committed()
	for _, p := range ensemble[1:] {
		if got := p.committed(); !reflect.DeepEqual(got, want) {
			t.Fatalf("divergent commit order:\n%v\n%v", want, got)
		}
	}
}

// TestZabTCPResyncAfterGap severs the leader->follower TCP link while
// the leader commits a burst, and asserts what zab promises across a
// gap: the follower converges on the leader's commits and is still
// FOLLOWING it. Whether it gets there by a resync is not this test's to
// say: the dial side redials at once after a live link dies (about a
// millisecond on loopback), so whether any of the burst is shed while
// the link is down is a race. The case where proposals are shed and the
// follower resyncs is pinned as a deterministic schedule on the link
// core instead (zab's TestScheduleLinkResyncAfterGap).
func TestZabTCPResyncAfterGap(t *testing.T) {
	ensemble := newTCPEnsemble(t, 3, nil)
	leader := leaderOf(t, ensemble)

	// Wait for BOTH followers to sync and replicate a warm-up commit:
	// cutting the only synced follower would cost the leader its
	// activation quorum and force a re-election instead of a resync.
	submitRetry(t, leader.peer, ztree.Txn{Type: ztree.TxnSync, Path: "/warm"}, zab.Origin{})
	waitFor(t, 5*time.Second, "warm-up commit on every replica", func() bool {
		for _, p := range ensemble {
			if len(p.committed()) != 1 {
				return false
			}
		}
		return true
	})
	var follower *tcpPeer
	for _, p := range ensemble {
		if p != leader && p.peer.Role() == zab.RoleFollowing {
			follower = p
			break
		}
	}
	if follower == nil {
		t.Fatal("no follower")
	}

	// Sever both ends of the shared link so sends shed immediately.
	leader.mesh.KillLink(follower.peer.ID())
	follower.mesh.KillLink(leader.peer.ID())

	// Commit a burst while the follower is cut off. The other follower
	// keeps the quorum alive.
	const burst = 20
	for i := 0; i < burst; i++ {
		if err := leader.peer.Submit(ztree.Txn{Type: ztree.TxnSync, Path: "/gap"}, zab.Origin{}); err != nil {
			t.Fatalf("submit during partition: %v", err)
		}
	}
	waitFor(t, 5*time.Second, "leader to commit the burst", func() bool {
		return leader.peer.LastCommitted() >= 0 && len(leader.committed()) == 1+burst
	})

	// After reconnect the follower must converge.
	waitFor(t, 10*time.Second, "follower to converge after the gap", func() bool {
		return follower.peer.LastCommitted() == leader.peer.LastCommitted() &&
			len(follower.committed()) >= 1 // snapshot sync may compact the log
	})
	if follower.peer.Role() != zab.RoleFollowing {
		t.Fatalf("follower role = %v after the gap", follower.peer.Role())
	}
}

// rawPeer dials m as peer id, answers with a plaintext hello and reads
// until the mesh hangs up. It never redials.
func rawPeer(t *testing.T, m *Mesh, id zab.PeerID) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	fc := transport.NewFramedConn(conn)
	if err := fc.SendFrame(helloFrame(newHello(id, false, nil))); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.RecvFrame(); err != nil {
		t.Fatalf("the mesh's hello: %v", err)
	}
	go func() {
		for {
			if _, err := fc.RecvFrame(); err != nil {
				return
			}
		}
	}()
	return conn
}

// TestConnectedIsExact: a link that KillLink or RemovePeer took down is
// not Connected from the moment the call returns, not once its reader
// has noticed. The peer is a raw socket that never redials, so nothing
// brings the link back.
func TestConnectedIsExact(t *testing.T) {
	own, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMesh(Config{ID: 1, Peers: map[zab.PeerID]string{1: own.Addr().String(), 2: ""}, Listener: own})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	for round := 0; round < 20; round++ {
		rawPeer(t, m, 2)
		waitFor(t, 3*time.Second, "the link", func() bool { return m.Connected(2) })
		m.KillLink(2)
		if m.Connected(2) {
			t.Fatalf("round %d: Connected right after KillLink", round)
		}
		if err := m.Send(2, zab.Message{Kind: zab.KindPing}); err == nil {
			t.Fatalf("round %d: a send right after KillLink was queued", round)
		}
	}
	rawPeer(t, m, 2)
	waitFor(t, 3*time.Second, "the link", func() bool { return m.Connected(2) })
	m.RemovePeer(2)
	if m.Connected(2) {
		t.Fatal("Connected right after RemovePeer")
	}
}

// TestOutboxHoldsTheLargestMessage: every message a receiving core
// would reassemble fits an empty link's queue, so none is shed for its
// size alone.
func TestOutboxHoldsTheLargestMessage(t *testing.T) {
	if frames := (link.MaxMessage + chunkBytes - 1) / chunkBytes; frames > outboxFrames {
		t.Fatalf("a %d-byte message takes %d frames; a link queues %d", link.MaxMessage, frames, outboxFrames)
	}
}
