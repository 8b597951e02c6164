package zabnet

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/sgx"
	"securekeeper/internal/transport"
	"securekeeper/internal/zab"
)

// testMeshSeed is the deployment secret (the storage key, in core's
// wiring) the attestation root derives from.
var testMeshSeed = []byte("test-deployment-storage-key-0001")

const testMeshCode = "securekeeper-mesh"

func testSecureConfig(t *testing.T) *SecureConfig {
	t.Helper()
	id, err := transport.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	return &SecureConfig{
		Signer:   sgx.NewSeededQuoteSigner(testMeshSeed, testMeshCode),
		Identity: id,
	}
}

func secureTweak(t *testing.T) func(*Config) {
	return func(cfg *Config) {
		cfg.Secure = testSecureConfig(t)
	}
}

func TestSecureMeshDelivery(t *testing.T) {
	meshes := newTestMeshes(t, 3, secureTweak(t))
	waitConnected(t, meshes)

	if err := meshes[2].Send(1, zab.Message{Kind: zab.KindPing, Epoch: 9, Zxid: 77}); err != nil {
		t.Fatal(err)
	}
	got := recvMsg(t, meshes[0], 2*time.Second)
	if got.Kind != zab.KindPing || got.Epoch != 9 || got.Zxid != 77 || got.From != 3 {
		t.Fatalf("got %+v", got)
	}
	if err := meshes[0].Send(3, zab.Message{Kind: zab.KindPong, Zxid: 78}); err != nil {
		t.Fatal(err)
	}
	got = recvMsg(t, meshes[2], 2*time.Second)
	if got.Kind != zab.KindPong || got.Zxid != 78 || got.From != 1 {
		t.Fatalf("got %+v", got)
	}
}

// TestSecureMeshFragmentedTransfer: oversized messages still fragment
// and reassemble through the encrypted framing.
func TestSecureMeshFragmentedTransfer(t *testing.T) {
	meshes := newTestMeshes(t, 2, func(cfg *Config) {
		cfg.chunkBytes = 512
		cfg.Secure = testSecureConfig(t)
	})
	waitConnected(t, meshes)

	payload := bytes.Repeat([]byte("fragmented-over-ciphertext"), 1024)
	if err := meshes[1].Send(1, zab.Message{Kind: zab.KindApp, App: payload}); err != nil {
		t.Fatal(err)
	}
	got := recvMsg(t, meshes[0], 5*time.Second)
	if got.Kind != zab.KindApp || !bytes.Equal(got.App, payload) {
		t.Fatalf("fragmented payload corrupted: kind=%v len=%d", got.Kind, len(got.App))
	}
}

// TestSecureMeshReconnect: the dialer re-attests and re-handshakes
// after link loss.
func TestSecureMeshReconnect(t *testing.T) {
	meshes := newTestMeshes(t, 2, secureTweak(t))
	waitConnected(t, meshes)

	meshes[0].KillLink(2)
	waitFor(t, 5*time.Second, "secure reconnect", func() bool {
		if !meshes[0].Connected(2) || !meshes[1].Connected(1) {
			return false
		}
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

// captureWriter tees everything written through it into a shared buffer.
type captureWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *captureWriter) contains(marker []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Contains(c.buf.Bytes(), marker)
}

// sniffProxy forwards TCP to target while recording every byte of both
// directions.
func sniffProxy(t *testing.T, target string) (addr string, cap *captureWriter) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	cap = &captureWriter{}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				_ = in.Close()
				continue
			}
			go func() { _, _ = io.Copy(out, io.TeeReader(in, cap)); _ = out.Close() }()
			go func() { _, _ = io.Copy(in, io.TeeReader(out, cap)); _ = in.Close() }()
		}
	}()
	return ln.Addr().String(), cap
}

// sniffedPair builds a two-mesh ensemble whose single link runs through
// a byte-capturing proxy, sends a marker payload across, and returns
// the capture.
func sniffedPair(t *testing.T, secure bool, marker []byte) *captureWriter {
	t.Helper()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxyAddr, cap := sniffProxy(t, ln1.Addr().String())
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id zab.PeerID, ln net.Listener) *Mesh {
		cfg := Config{
			ID: id,
			// Mesh 2 reaches mesh 1 only through the sniffer.
			Peers:        map[zab.PeerID]string{1: proxyAddr, 2: ln2.Addr().String()},
			Listener:     ln,
			reconnectMin: 5 * time.Millisecond,
			reconnectMax: 50 * time.Millisecond,
		}
		if secure {
			cfg.Secure = testSecureConfig(t)
		}
		m, err := NewMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		return m
	}
	m1, m2 := mk(1, ln1), mk(2, ln2)
	waitConnected(t, []*Mesh{m1, m2})
	if err := m2.Send(1, zab.Message{Kind: zab.KindApp, App: marker}); err != nil {
		t.Fatal(err)
	}
	got := recvMsg(t, m1, 5*time.Second)
	if !bytes.Equal(got.App, marker) {
		t.Fatalf("marker did not round-trip: %q", got.App)
	}
	return cap
}

// TestSecureMeshTrafficIsCiphertext sniffs a real TCP link: the marker
// a replica sends must be invisible on the wire of a secured mesh —
// and, as a control proving the sniffer works, visible on a plaintext
// one.
func TestSecureMeshTrafficIsCiphertext(t *testing.T) {
	marker := []byte("TOP-SECRET-ZAB-PAYLOAD-MARKER-0xDECAF")
	if cap := sniffedPair(t, false, marker); !cap.contains(marker) {
		t.Fatal("control failed: plaintext mesh hid the marker from the sniffer")
	}
	if cap := sniffedPair(t, true, marker); cap.contains(marker) {
		t.Fatal("marker visible on the wire of a secured mesh")
	}
}

// TestMeshAddRemovePeer drives the MembershipUpdater surface directly:
// a third replica joins a live two-mesh ensemble at runtime, carries
// traffic, then is removed and locked out.
func TestMeshAddRemovePeer(t *testing.T) {
	meshes := newTestMeshes(t, 2, nil)
	waitConnected(t, meshes)

	ln3, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr3 := ln3.Addr().String()
	for _, m := range meshes {
		m.AddPeer(3, addr3, true)
	}
	m3, err := NewMesh(Config{
		ID: 3,
		Peers: map[zab.PeerID]string{
			1: meshes[0].Addr(), 2: meshes[1].Addr(), 3: addr3,
		},
		Observers:    map[zab.PeerID]bool{3: true},
		Listener:     ln3,
		reconnectMin: 5 * time.Millisecond,
		reconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m3.Close() })
	waitConnected(t, []*Mesh{meshes[0], meshes[1], m3})

	if err := m3.Send(1, zab.Message{Kind: zab.KindObserverInfo, Zxid: 3}); err != nil {
		t.Fatal(err)
	}
	if got := recvMsg(t, meshes[0], 2*time.Second); got.From != 3 {
		t.Fatalf("got %+v", got)
	}

	// Promote flips only the role; links survive.
	for _, m := range meshes {
		m.AddPeer(3, "", false)
	}
	if known, obs := meshes[0].memberRole(3); !known || obs {
		t.Fatalf("after promote: known=%v observer=%v", known, obs)
	}

	// Removal tears the link down and locks the peer out: its dialer
	// keeps retrying but is rejected as unknown.
	meshes[0].RemovePeer(3)
	waitFor(t, 5*time.Second, "link teardown", func() bool {
		return !meshes[0].Connected(3)
	})
	time.Sleep(100 * time.Millisecond) // several redial attempts
	if meshes[0].Connected(3) {
		t.Fatal("removed peer re-established a link")
	}
}
