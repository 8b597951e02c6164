package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/wire"
)

// digests returns every live replica's tree digest.
func digests(c *Cluster) []uint64 {
	out := make([]uint64, 0, c.Size())
	for i := 0; i < c.Size(); i++ {
		if !c.Stopped(i) {
			out = append(out, c.Replica(i).Tree().Digest())
		}
	}
	return out
}

// TestMultiAtomicCommit: an atomic Check+Set+Create multi commits as
// ONE zab proposal/zxid on both the Vanilla and SecureKeeper variants
// of the in-process cluster; every sub-op observes the same zxid and
// every replica converges.
func TestMultiAtomicCommit(t *testing.T) {
	// Path element and values are long and distinctive: the leak check
	// below searches ciphertext and Base64 for them, where a two- or
	// three-byte marker turns up by chance once in a few thousand runs.
	const (
		node    = "/cfg-multi-atomic-commit"
		initial = "initial-value-of-the-config"
		updated = "updated-value-of-the-config"
		audit   = "audit-record-of-the-rotation"
	)
	for _, v := range []Variant{Vanilla, SecureKeeper} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			c := newTestCluster(t, v)
			leader := c.LeaderIndex()
			cl, err := c.Connect(0, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			if _, err := cl.Create(ctxbg, node, []byte(initial), 0); err != nil {
				t.Fatal(err)
			}
			_, stat, err := cl.Get(ctxbg, node)
			if err != nil {
				t.Fatal(err)
			}

			before := c.Replica(leader).Peer().StatsSnapshot()
			results, err := cl.Txn().
				Check(node, stat.Version).
				Set(node, []byte(updated), -1).
				Create(node+"/audit-", []byte(audit), wire.FlagSequential).
				Commit(ctxbg)
			if err != nil {
				t.Fatalf("multi: %v (%+v)", err, results)
			}
			after := c.Replica(leader).Peer().StatsSnapshot()

			// ONE proposal for the whole transaction.
			if got := after.Proposals - before.Proposals; got != 1 {
				t.Fatalf("multi consumed %d zab proposals, want 1", got)
			}
			// Every sub-op carries the same zxid.
			setZxid := results[1].Stat.Mzxid
			createZxid := results[2].Stat.Czxid
			if setZxid == 0 || setZxid != createZxid {
				t.Fatalf("sub-op zxids differ: set=%#x create=%#x", setZxid, createZxid)
			}
			if results[2].Path == node+"/audit-" || results[2].Path == "" {
				t.Fatalf("sequential create path = %q", results[2].Path)
			}

			// The effects are visible and replicas converge.
			data, _, err := cl.Get(ctxbg, node)
			if err != nil || !bytes.Equal(data, []byte(updated)) {
				t.Fatalf("post-multi read = %q, %v", data, err)
			}
			if err := cl.Sync(ctxbg, node); err != nil {
				t.Fatal(err)
			}
			waitForConvergedDigests(t, c)

			if v == SecureKeeper {
				// The untrusted stores must hold no plaintext from the multi.
				for i := 0; i < c.Size(); i++ {
					snap := c.Replica(i).Tree().Snapshot()
					for _, n := range snap.Nodes {
						for _, marker := range []string{initial, updated, audit, node[1:]} {
							if bytes.Contains(n.Data, []byte(marker)) || strings.Contains(n.Path, marker) {
								t.Fatalf("plaintext %q from multi visible in replica %d store (%q)", marker, i, n.Path)
							}
						}
					}
				}
			}
		})
	}
}

// TestMultiFailingCheckAbortsUntouched: a failing Check aborts the
// whole multi, leaves every replica's tree byte-identical (verified by
// digest), and returns per-op error results.
func TestMultiFailingCheckAbortsUntouched(t *testing.T) {
	for _, v := range []Variant{Vanilla, SecureKeeper} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			c := newTestCluster(t, v)
			cl, err := c.Connect(0, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			if _, err := cl.Create(ctxbg, "/cfg", []byte("v0"), 0); err != nil {
				t.Fatal(err)
			}
			if err := cl.Sync(ctxbg, "/"); err != nil {
				t.Fatal(err)
			}
			waitForConvergedDigests(t, c)
			before := digests(c)

			results, err := cl.Txn().
				Check("/cfg", 41). // wrong version: aborts
				Set("/cfg", []byte("clobbered"), -1).
				Create("/cfg/oops", []byte("x"), 0).
				Commit(ctxbg)
			var pe *wire.ProtocolError
			if !errors.As(err, &pe) || pe.Code != wire.ErrBadVersion {
				t.Fatalf("err = %v, want BADVERSION", err)
			}
			if len(results) != 3 || results[0].Err != wire.ErrBadVersion ||
				results[1].Err != wire.ErrRuntimeInconsistency ||
				results[2].Err != wire.ErrRuntimeInconsistency {
				t.Fatalf("per-op results = %+v", results)
			}

			// The aborted multi still committed (as an error record), so
			// the trees stay converged AND unchanged.
			if err := cl.Sync(ctxbg, "/"); err != nil {
				t.Fatal(err)
			}
			waitForConvergedDigests(t, c)
			after := digests(c)
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("replica %d digest changed %#x -> %#x after aborted multi", i, before[i], after[i])
				}
			}
			data, _, err := cl.Get(ctxbg, "/cfg")
			if err != nil || !bytes.Equal(data, []byte("v0")) {
				t.Fatalf("/cfg = %q, %v", data, err)
			}
		})
	}
}

func waitForConvergedDigests(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d := digests(c)
		same := true
		for _, x := range d {
			if x != d[0] {
				same = false
			}
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge: %v", d)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMultiOverTCPEnsemble: the same atomicity guarantees hold over a
// real 3-replica TCP ensemble (zabnet mesh) for both variants: one
// multi commits everywhere with a single zxid, an aborted multi leaves
// every replica's digest unchanged.
func TestMultiOverTCPEnsemble(t *testing.T) {
	for _, v := range []Variant{Vanilla, SecureKeeper} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			nodes := newTCPNodeEnsemble(t, 3, v)
			leader := tcpEnsembleLeader(t, nodes)
			cl, err := leader.Connect(client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			retryWrite(t, "seed", func() error {
				_, err := cl.Create(ctxbg, "/m", []byte("v0"), 0)
				return err
			})
			before := leader.Replica().Peer().StatsSnapshot()
			results, err := cl.Txn().
				Check("/m", 0).
				Set("/m", []byte("v1"), -1).
				Create("/m/child", []byte("c"), 0).
				Commit(ctxbg)
			if err != nil {
				t.Fatalf("multi over TCP: %v (%+v)", err, results)
			}
			after := leader.Replica().Peer().StatsSnapshot()
			if got := after.Proposals - before.Proposals; got != 1 {
				t.Fatalf("multi consumed %d proposals, want 1", got)
			}
			if results[1].Stat.Mzxid != results[2].Stat.Czxid {
				t.Fatalf("zxids differ across sub-ops: %#x vs %#x",
					results[1].Stat.Mzxid, results[2].Stat.Czxid)
			}

			// Every replica converges on the committed multi.
			for i, n := range nodes {
				ncl, err := n.Connect(client.Options{})
				if err != nil {
					t.Fatal(err)
				}
				// A fresh session on a follower: its replica may still be
				// syncing with the leader, and refuses with CONNECTIONLOSS.
				var data []byte
				ctx, cancel := context.WithTimeout(ctxbg, 15*time.Second)
				err = client.Reissue(ctx, func() (err error) {
					data, err = syncGet(ncl, "/m")
					return err
				})
				cancel()
				if err != nil || !bytes.Equal(data, []byte("v1")) {
					t.Fatalf("node %d: /m = %q, %v", i+1, data, err)
				}
				_ = ncl.Close()
			}

			// Aborted multi: digests identical on every replica afterwards.
			waitDigests := func() []uint64 {
				var d []uint64
				waitForCond(t, 10*time.Second, "TCP ensemble digest convergence", func() bool {
					d = d[:0]
					for _, n := range nodes {
						d = append(d, n.Replica().Tree().Digest())
					}
					return d[0] == d[1] && d[1] == d[2]
				})
				return d
			}
			if err := cl.Sync(ctxbg, "/m"); err != nil {
				t.Fatal(err)
			}
			beforeDigests := waitDigests()
			_, err = cl.Txn().
				Check("/m", 41).
				Delete("/m/child", -1).
				Commit(ctxbg)
			var pe *wire.ProtocolError
			if !errors.As(err, &pe) || pe.Code != wire.ErrBadVersion {
				t.Fatalf("err = %v, want BADVERSION", err)
			}
			if err := cl.Sync(ctxbg, "/m"); err != nil {
				t.Fatal(err)
			}
			afterDigests := waitDigests()
			for i := range beforeDigests {
				if beforeDigests[i] != afterDigests[i] {
					t.Fatalf("node %d digest changed after aborted multi", i+1)
				}
			}
		})
	}
}

// TestContextCancelAgainstCluster: a context cancelled mid-flight
// returns promptly and the session (and its Future freelist) keeps
// working for subsequent traffic — the full-stack twin of the
// client-level freelist test.
func TestContextCancelAgainstCluster(t *testing.T) {
	c := newTestCluster(t, Vanilla)
	cl, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(ctxbg)
		go cancel() // races the round-trip
		_, _, err := cl.Get(ctx, "/nope")
		if err == nil {
			t.Fatal("read of missing node succeeded")
		}
	}
	// The session remains healthy.
	if _, err := cl.Create(ctxbg, "/alive", []byte("y"), 0); err != nil {
		t.Fatal(err)
	}
	if data, _, err := cl.Get(ctxbg, "/alive"); err != nil || !bytes.Equal(data, []byte("y")) {
		t.Fatalf("post-cancel read = %q, %v", data, err)
	}
}

// TestWatchHandlesReentrant: per-watch handles deliver exactly once
// per subscription even when the consumer re-arms a new watch from
// inside the delivery path while writes keep flowing — the reentrant
// watcher pattern over the full stack (SecureKeeper variant, so the
// enclave decrypts every event path).
func TestWatchHandlesReentrant(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	writer, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	watcher, err := c.Connect(1, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	if _, err := writer.Create(ctxbg, "/re", []byte("0"), 0); err != nil {
		t.Fatal(err)
	}
	if err := watcher.Sync(ctxbg, "/re"); err != nil {
		t.Fatal(err)
	}

	const rounds = 8
	got := 0
	for i := 0; i < rounds; i++ {
		// (Re-)arm from the same goroutine that consumed the previous
		// delivery — the reentrant pattern.
		_, _, w, err := watcher.GetW(ctxbg, "/re")
		if err != nil {
			t.Fatalf("round %d arm: %v", i, err)
		}
		if _, err := writer.Set(ctxbg, "/re", []byte{byte(i)}, -1); err != nil {
			t.Fatalf("round %d write: %v", i, err)
		}
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("round %d: handle closed without delivery", i)
			}
			if ev.Path != "/re" || ev.Type != wire.EventNodeDataChanged {
				t.Fatalf("round %d: ev = %+v", i, ev)
			}
			got++
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: watch starved", i)
		}
		// Exactly once: the handle is spent; no second delivery even
		// though more writes follow in later rounds.
		select {
		case ev, ok := <-w.Events():
			if ok {
				t.Fatalf("round %d: second delivery %+v", i, ev)
			}
		case <-time.After(time.Second):
			t.Fatalf("round %d: spent handle not closed", i)
		}
	}
	if got != rounds {
		t.Fatalf("deliveries = %d, want %d", got, rounds)
	}
}
