package ztree

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"securekeeper/internal/wire"
)

// TestConcurrentReadersWriters hammers the tree from parallel readers
// and writers spread across many parents. Run under -race it exercises
// the tree's lock; the assertions check nothing is lost.
func TestConcurrentReadersWriters(t *testing.T) {
	tr := New()
	const parents = 8
	const perParent = 32
	for p := 0; p < parents; p++ {
		if _, err := tr.Create(fmt.Sprintf("/p%d", p), nil, 0, 0, 1); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < perParent; c++ {
			if _, err := tr.Create(fmt.Sprintf("/p%d/c%d", p, c), []byte("v0"), 0, 0, 2); err != nil {
				t.Fatal(err)
			}
		}
	}

	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				path := fmt.Sprintf("/p%d/c%d", (w+i)%parents, i%perParent)
				if w%2 == 0 {
					if _, _, err := tr.GetDataRef(path); err != nil {
						errs <- fmt.Errorf("get %s: %w", path, err)
						return
					}
					if _, err := tr.GetChildren(fmt.Sprintf("/p%d", i%parents), nil); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := tr.SetData(path, []byte(fmt.Sprintf("w%d-%d", w, i)), -1, int64(100+i)); err != nil {
						errs <- fmt.Errorf("set %s: %w", path, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := tr.Count(), 1+parents+parents*perParent; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

// TestConcurrentSiblingCreateDelete creates and deletes children of one
// parent from concurrent writers, verifying the parent's bookkeeping
// stays exact.
func TestConcurrentSiblingCreateDelete(t *testing.T) {
	tr := New()
	if _, err := tr.Create("/dir", nil, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const iters = 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				path := fmt.Sprintf("/dir/w%d-%d", w, i)
				if _, err := tr.Create(path, []byte("x"), 0, 0, int64(i)); err != nil {
					errs <- fmt.Errorf("create %s: %w", path, err)
					return
				}
				if err := tr.Delete(path, -1, int64(i)); err != nil {
					errs <- fmt.Errorf("delete %s: %w", path, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	kids, err := tr.GetChildren("/dir", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 0 {
		t.Fatalf("leftover children after churn: %v", kids)
	}
	stat, err := tr.Exists("/dir", nil)
	if err != nil {
		t.Fatal(err)
	}
	if stat.NumChildren != 0 {
		t.Fatalf("NumChildren = %d, want 0", stat.NumChildren)
	}
	if got := tr.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2 (root + /dir)", got)
	}
}

// TestWatchDeliveryUnderConcurrentMutation re-registers data watches
// while writers mutate the watched nodes, asserting every registered
// watch eventually fires exactly once (one-shot semantics) and no
// delivery happens while the tree's lock is held (deadlock-free by
// construction: Notify re-enters the tree).
func TestWatchDeliveryUnderConcurrentMutation(t *testing.T) {
	tr := New()
	const nodes = 16
	for i := 0; i < nodes; i++ {
		if _, err := tr.Create(fmt.Sprintf("/n%d", i), []byte("v"), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}

	var fired atomic.Int64
	// The watcher re-enters the tree from Notify: if notify ran inside
	// the tree's critical section this would deadlock.
	reentrant := FuncWatcher(func(ev wire.WatcherEvent) {
		fired.Add(1)
		_, _, _ = tr.GetDataRef(ev.Path)
	})

	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(2)
	registered := make(chan string, rounds)
	go func() {
		defer wg.Done()
		defer close(registered)
		for i := 0; i < rounds; i++ {
			path := fmt.Sprintf("/n%d", i%nodes)
			tr.Watches().add(path, wire.WatchData, reentrant)
			registered <- path
		}
	}()
	go func() {
		defer wg.Done()
		for path := range registered {
			if _, err := tr.SetData(path, []byte("new"), -1, 2); err != nil {
				t.Errorf("set %s: %v", path, err)
				return
			}
		}
	}()
	wg.Wait()

	// Every registration is followed by a SetData on the same path, so
	// every watch has fired (Add of an identical (path, watcher) pair is
	// idempotent while registered, and each trigger clears it again).
	if tr.Watches().Count() != 0 {
		t.Fatalf("unfired watches remain: %d", tr.Watches().Count())
	}
	if fired.Load() == 0 {
		t.Fatal("no watch deliveries")
	}
}

// TestSnapshotRestoreUnderConcurrentWrites checks that snapshots taken
// while a writer runs are consistent: each restores whole.
func TestSnapshotRestoreUnderConcurrentWrites(t *testing.T) {
	tr := New()
	for i := 0; i < 64; i++ {
		if _, err := tr.Create(fmt.Sprintf("/s%d", i), []byte("d"), 0, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = tr.SetData(fmt.Sprintf("/s%d", i%64), []byte("mut"), -1, 1000)
		}
	}()
	var snaps []*Snapshot
	for i := 0; i < 50; i++ {
		snaps = append(snaps, tr.Snapshot())
	}
	close(stop)
	wg.Wait()

	for _, snap := range snaps {
		restored := New()
		restored.Restore(snap)
		if restored.Count() != 65 {
			t.Fatalf("restored count = %d, want 65", restored.Count())
		}
	}
	// A snapshot taken at rest must restore to an identical digest.
	final := tr.Snapshot()
	restored := New()
	restored.Restore(final)
	if restored.Digest() != tr.Digest() {
		t.Fatal("digest mismatch after restore")
	}
}
