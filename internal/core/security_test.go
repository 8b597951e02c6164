package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/wire"
)

// TestConfidentialityOfUntrustedStore verifies the headline property:
// no plaintext path element or payload byte sequence is visible in any
// replica's tree (§7.1).
func TestConfidentialityOfUntrustedStore(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	cl, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	secretPayload := []byte("password=swordfish")
	paths := []string{"/secrets", "/secrets/database"}
	for _, p := range paths {
		var data []byte
		if strings.HasSuffix(p, "database") {
			data = secretPayload
		}
		if _, err := cl.Create(ctxbg, p, data, 0); err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
	}

	for i := 0; i < c.Size(); i++ {
		snap := c.Replica(i).Tree().Snapshot()
		for _, node := range snap.Nodes {
			if strings.Contains(node.Path, "secrets") || strings.Contains(node.Path, "database") {
				t.Fatalf("replica %d stores plaintext path %q", i, node.Path)
			}
			if bytes.Contains(node.Data, secretPayload) {
				t.Fatalf("replica %d stores plaintext payload", i)
			}
			if bytes.Contains(node.Data, []byte("swordfish")) {
				t.Fatalf("replica %d leaks payload substring", i)
			}
		}
	}
}

// TestStorageCodecDecryptsStore proves the ciphertext in the store is
// exactly what an attested enclave would produce (key management works
// end to end).
func TestStorageCodecDecryptsStore(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	cl, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Create(ctxbg, "/verify-me", []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	codec := c.StorageCodec()
	if codec == nil {
		t.Fatal("no storage codec")
	}
	snap := c.Replica(0).Tree().Snapshot()
	found := false
	for _, node := range snap.Nodes {
		if node.Path == "/" {
			continue
		}
		plain, err := codec.DecryptPath(node.Path)
		if err != nil {
			t.Fatalf("stored path %q does not decrypt: %v", node.Path, err)
		}
		if plain == "/verify-me" {
			found = true
			got, err := codec.DecryptPayload(plain, node.Data)
			if err != nil || !bytes.Equal(got, []byte("payload")) {
				t.Fatalf("stored payload mismatch: %q, %v", got, err)
			}
		}
	}
	if !found {
		t.Fatal("node not found in store")
	}
}

// TestPayloadSwapAttackDetected mounts the §4.3 attack on the live
// system: swap two nodes' ciphertext payloads inside the untrusted tree
// and observe the integrity error on read.
func TestPayloadSwapAttackDetected(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	cl, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Create(ctxbg, "/admin", []byte("admin-pw"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create(ctxbg, "/user", []byte("user-pw"), 0); err != nil {
		t.Fatal(err)
	}

	// A successful Create only proves the origin replica applied the
	// write; followers apply on the (async) commit frame. Wait until
	// every replica converged before poking at their trees.
	waitTreesConverged(t, c, 3)

	// The attacker (with full control of the replica) swaps payloads in
	// every replica's store.
	for i := 0; i < c.Size(); i++ {
		tree := c.Replica(i).Tree()
		snap := tree.Snapshot()
		var adminPath, userPath string
		var adminData, userData []byte
		codec := c.StorageCodec()
		for _, node := range snap.Nodes {
			plain, err := codec.DecryptPath(node.Path)
			if err != nil {
				continue
			}
			switch plain {
			case "/admin":
				adminPath, adminData = node.Path, node.Data
			case "/user":
				userPath, userData = node.Path, node.Data
			}
		}
		if adminPath == "" || userPath == "" {
			t.Fatalf("replica %d: attack setup failed", i)
		}
		if _, err := tree.SetData(adminPath, userData, -1, 999); err != nil {
			t.Fatal(err)
		}
		if _, err := tree.SetData(userPath, adminData, -1, 999); err != nil {
			t.Fatal(err)
		}
	}

	// The client must get an integrity error, not the swapped secret.
	_, _, err = cl.Get(ctxbg, "/admin")
	var pe *wire.ProtocolError
	if !errors.As(err, &pe) || pe.Code != wire.ErrIntegrity {
		t.Fatalf("swap attack result = %v, want INTEGRITY error", err)
	}
}

// TestTamperedPayloadDetected flips bits in a stored payload.
func TestTamperedPayloadDetected(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	cl, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Create(ctxbg, "/tamper", []byte("original"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		tree := c.Replica(i).Tree()
		for _, node := range tree.Snapshot().Nodes {
			if node.Path == "/" {
				continue
			}
			corrupted := append([]byte(nil), node.Data...)
			if len(corrupted) > 0 {
				corrupted[0] ^= 0xFF
				if _, err := tree.SetData(node.Path, corrupted, -1, 999); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	_, _, err = cl.Get(ctxbg, "/tamper")
	var pe *wire.ProtocolError
	if !errors.As(err, &pe) || pe.Code != wire.ErrIntegrity {
		t.Fatalf("tamper result = %v, want INTEGRITY error", err)
	}
}

// TestClientNeverSeesStorageKey: the client side only holds the channel
// identity; the storage codec is derived via attestation which clients
// cannot perform (they are not enclaves). This is structural, but we
// assert the baseline TLS variant has no codec at all and the client
// API carries no key material.
func TestStorageCodecOnlyForSecureKeeper(t *testing.T) {
	for _, v := range []Variant{Vanilla, TLS} {
		c := newTestCluster(t, v)
		if codec := c.StorageCodec(); codec != nil {
			t.Fatalf("%v must not expose a storage codec", v)
		}
	}
}

// TestSequentialNamingAttackSurface demonstrates the documented §7.1
// limitation: the untrusted leader code chooses the sequence number, so
// a malicious replica could reuse one. The enclave accepts any
// well-formed number — this test documents (not fixes) the behaviour.
func TestSequentialNamingAttackSurface(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	codec := c.StorageCodec()
	if codec == nil {
		t.Fatal("no codec")
	}
	encPath, err := codec.EncryptPath("/locks/cand-")
	if err != nil {
		t.Fatal(err)
	}
	// Attacker-controlled counter enclave inputs: both calls use the
	// same "sequence number" and produce the same final path.
	leader := c.LeaderIndex()
	_ = leader
	a, err := codec.AppendSequenceToPath(encPath, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := codec.AppendSequenceToPath(encPath, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("deterministic encryption expected")
	}
	// But payload forging is still impossible: an attacker cannot craft
	// a valid payload binding without the storage key (covered by
	// TestTamperedPayloadDetected).
}

// TestWatchThroughEnclave checks watch notifications survive the
// enclave path decryption (paths arrive plaintext at the client).
func TestWatchThroughEnclave(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	watcher, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	writer, err := c.Connect(1, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	if _, err := writer.Create(ctxbg, "/watched", []byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	var watch *client.Watch
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, w, err := watcher.GetW(ctxbg, "/watched")
		if err == nil {
			watch = w
			break
		}
		w.Cancel()
		if time.Now().After(deadline) {
			t.Fatal("node never propagated")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := writer.Set(ctxbg, "/watched", []byte("b"), -1); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-watch.Events():
		if ev.Path != "/watched" {
			t.Fatalf("event path = %q (must be plaintext)", ev.Path)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no watch event")
	}
}

// TestLeaderFailoverEndToEnd kills the leader and checks the cluster
// keeps serving (Fig 12a behaviour at the API level).
func TestLeaderFailoverEndToEnd(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	leader, err := c.WaitForLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	survivor := (leader + 1) % c.Size()
	cl, err := c.Connect(survivor, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Create(ctxbg, "/pre-failure", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}

	c.StopReplica(leader)

	// Wait for re-election, then writes must succeed again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := cl.Create(ctxbg, "/post-failure", []byte("y"), 0); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster did not recover from leader failure")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Old data still readable.
	data, _, err := cl.Get(ctxbg, "/pre-failure")
	if err != nil || !bytes.Equal(data, []byte("x")) {
		t.Fatalf("pre-failure data = %q, %v", data, err)
	}
	if c.LeaderIndex() == leader {
		t.Fatal("stopped replica still leader")
	}
	// Connecting to the dead replica fails cleanly.
	if _, err := c.Connect(leader, client.Options{}); !errors.Is(err, ErrReplicaStopped) {
		t.Fatalf("connect to stopped = %v", err)
	}
}

// TestSequentialThroughCounterEnclaveMatchesVanilla: sequence numbering
// behaviour is identical across variants.
func TestSequentialSemanticsMatchVanilla(t *testing.T) {
	for _, v := range []Variant{Vanilla, SecureKeeper} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			c := newTestCluster(t, v)
			cl, err := c.Connect(0, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Create(ctxbg, "/seq", nil, 0); err != nil {
				t.Fatal(err)
			}
			first, err := cl.Create(ctxbg, "/seq/n-", nil, wire.FlagSequential)
			if err != nil {
				t.Fatal(err)
			}
			second, err := cl.Create(ctxbg, "/seq/n-", nil, wire.FlagSequential)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(first, "/seq/n-") || len(first) != len("/seq/n-")+skcrypto.SeqDigits {
				t.Fatalf("first = %q", first)
			}
			if second <= first {
				t.Fatalf("sequence not increasing: %q then %q", first, second)
			}
			// Both readable and deletable by their returned names.
			if _, _, err := cl.Get(ctxbg, first); err != nil {
				t.Fatal(err)
			}
			if err := cl.Delete(ctxbg, first, -1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDataLengthReportsPlaintext: Stat.DataLength must reflect the
// plaintext, not the ciphertext the store tracks (§5.2).
func TestDataLengthReportsPlaintext(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	cl, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	payload := bytes.Repeat([]byte{1}, 100)
	if _, err := cl.Create(ctxbg, "/len", payload, 0); err != nil {
		t.Fatal(err)
	}
	_, stat, err := cl.Get(ctxbg, "/len")
	if err != nil || stat.DataLength != 100 {
		t.Fatalf("DataLength = %d, %v; want 100", stat.DataLength, err)
	}
	// The untrusted store actually holds more.
	var storedLen int32
	for _, node := range c.Replica(0).Tree().Snapshot().Nodes {
		if node.Path != "/" && node.Stat.DataLength > 0 {
			storedLen = node.Stat.DataLength
		}
	}
	if storedLen != int32(100+skcrypto.PayloadOverhead) {
		t.Fatalf("stored length = %d, want %d", storedLen, 100+skcrypto.PayloadOverhead)
	}
}

// TestTreesStayConvergent under mixed enclave traffic.
func TestTreesStayConvergent(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	cl, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 20; i++ {
		if _, err := cl.Create(ctxbg, "/conv"+string(rune('a'+i)), []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		d := c.Replica(0).Tree().Digest()
		if c.Replica(1).Tree().Digest() == d && c.Replica(2).Tree().Digest() == d {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("replicas diverged")
}
