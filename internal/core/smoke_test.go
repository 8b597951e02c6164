package core

import (
	"bytes"
	"testing"
	"time"

	"securekeeper/internal/client"
)

func newTestCluster(t *testing.T, v Variant) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Variant:      v,
		Replicas:     3,
		TickInterval: 5 * time.Millisecond,
		// Generous relative to the tick: under the race detector the
		// peer loops run slowly enough that a 50ms timeout triggers
		// spurious re-elections, failing in-flight writes.
		ElectionTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCluster(%v): %v", v, err)
	}
	t.Cleanup(c.Close)
	// NewCluster has waited for a leader with every other replica
	// following it, so the first write of a test cannot meet the election
	// window (CONNECTIONLOSS: no leader to forward to, or a leader that
	// has not synced a quorum yet).
	return c
}

// waitTreesConverged blocks until every replica's tree holds at least
// minNodes znodes and all digests agree, or fails the test. Tests that
// inspect follower trees directly need this: a client write completes
// when the origin replica applies it, while other followers apply on
// the asynchronous commit frame.
func waitTreesConverged(t *testing.T, c *Cluster, minNodes int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		converged := true
		digest := c.Replica(0).Tree().Digest()
		for i := 0; i < c.Size(); i++ {
			tree := c.Replica(i).Tree()
			if tree.Count() < minNodes || tree.Digest() != digest {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("replicas did not converge")
}

func TestSmokeAllVariants(t *testing.T) {
	for _, v := range []Variant{Vanilla, TLS, SecureKeeper} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			c := newTestCluster(t, v)
			cl, err := c.Connect(0, client.Options{})
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			defer cl.Close()

			path, err := cl.Create(ctxbg, "/app", []byte("hello"), 0)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			if path != "/app" {
				t.Fatalf("Create path = %q, want /app", path)
			}
			data, stat, err := cl.Get(ctxbg, "/app")
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(data, []byte("hello")) {
				t.Fatalf("Get data = %q, want hello", data)
			}
			if stat.DataLength != 5 {
				t.Fatalf("Get stat.DataLength = %d, want 5", stat.DataLength)
			}
			if _, err := cl.Set(ctxbg, "/app", []byte("world"), -1); err != nil {
				t.Fatalf("Set: %v", err)
			}
			data, _, err = cl.Get(ctxbg, "/app")
			if err != nil || !bytes.Equal(data, []byte("world")) {
				t.Fatalf("Get after Set = %q, %v", data, err)
			}
			// Children + sequential node through the counter enclave.
			seqPath, err := cl.Create(ctxbg, "/app/item-", []byte("x"), 2 /* sequential */)
			if err != nil {
				t.Fatalf("Create sequential: %v", err)
			}
			if len(seqPath) != len("/app/item-")+10 {
				t.Fatalf("sequential path %q lacks 10-digit suffix", seqPath)
			}
			kids, err := cl.Children(ctxbg, "/app")
			if err != nil || len(kids) != 1 {
				t.Fatalf("Children = %v, %v; want 1 child", kids, err)
			}
			seqData, _, err := cl.Get(ctxbg, seqPath)
			if err != nil || !bytes.Equal(seqData, []byte("x")) {
				t.Fatalf("Get sequential = %q, %v", seqData, err)
			}
			if err := cl.Delete(ctxbg, seqPath, -1); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if err := cl.Delete(ctxbg, "/app", -1); err != nil {
				t.Fatalf("Delete /app: %v", err)
			}
		})
	}
}

func TestSmokeFollowerClient(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	leader, err := c.WaitForLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	follower := (leader + 1) % c.Size()
	cl, err := c.Connect(follower, client.Options{})
	if err != nil {
		t.Fatalf("Connect follower: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Create(ctxbg, "/f", []byte("via-follower"), 0); err != nil {
		t.Fatalf("Create via follower: %v", err)
	}
	data, _, err := cl.Get(ctxbg, "/f")
	if err != nil || string(data) != "via-follower" {
		t.Fatalf("Get via follower = %q, %v", data, err)
	}
}
