package ztree

import (
	"sync"
	"sync/atomic"
	"testing"

	"securekeeper/internal/wire"
)

// FuncWatcher adapts a function to the Watcher interface. The returned
// value is a pointer so it is usable as a registration key (watcher
// identities must be comparable).
func FuncWatcher(f func(ev wire.WatcherEvent)) Watcher {
	return &funcWatcher{f: f}
}

type funcWatcher struct {
	f func(ev wire.WatcherEvent)
}

func (w *funcWatcher) Notify(ev wire.WatcherEvent) { w.f(ev) }

// recorder collects events safely across goroutines.
type recorder struct {
	mu     sync.Mutex
	events []wire.WatcherEvent
}

func (r *recorder) Notify(ev wire.WatcherEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

func (r *recorder) list() []wire.WatcherEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]wire.WatcherEvent(nil), r.events...)
}

func TestDataWatchFiresOnce(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/w", []byte("a"))
	rec := &recorder{}
	tr.Watches().add("/w", wire.WatchData, rec)

	if _, err := tr.SetData("/w", []byte("b"), -1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.SetData("/w", []byte("c"), -1, 3); err != nil {
		t.Fatal(err)
	}
	evs := rec.list()
	if len(evs) != 1 {
		t.Fatalf("watch fired %d times, want 1 (one-shot)", len(evs))
	}
	if evs[0].Type != wire.EventNodeDataChanged || evs[0].Path != "/w" {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestDataWatchFiresOnDelete(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/w", nil)
	rec := &recorder{}
	tr.Watches().add("/w", wire.WatchData, rec)
	if err := tr.Delete("/w", -1, 2); err != nil {
		t.Fatal(err)
	}
	evs := rec.list()
	if len(evs) != 1 || evs[0].Type != wire.EventNodeDeleted {
		t.Fatalf("events = %+v", evs)
	}
}

func TestExistWatchFiresOnCreate(t *testing.T) {
	tr := New()
	rec := &recorder{}
	tr.Watches().add("/future", wire.WatchExist, rec)
	mustCreate(t, tr, "/future", nil)
	evs := rec.list()
	if len(evs) != 1 || evs[0].Type != wire.EventNodeCreated {
		t.Fatalf("events = %+v", evs)
	}
}

func TestChildWatch(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/p", nil)
	rec := &recorder{}
	tr.Watches().add("/p", wire.WatchChild, rec)
	mustCreate(t, tr, "/p/c", nil)
	evs := rec.list()
	if len(evs) != 1 || evs[0].Type != wire.EventNodeChildrenChanged || evs[0].Path != "/p" {
		t.Fatalf("events = %+v", evs)
	}

	// Re-register; child delete also triggers.
	tr.Watches().add("/p", wire.WatchChild, rec)
	if err := tr.Delete("/p/c", -1, 5); err != nil {
		t.Fatal(err)
	}
	if len(rec.list()) != 2 {
		t.Fatalf("events = %+v", rec.list())
	}
}

func TestChildWatchFiresOnNodeDeletion(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/p", nil)
	rec := &recorder{}
	tr.Watches().add("/p", wire.WatchChild, rec)
	if err := tr.Delete("/p", -1, 3); err != nil {
		t.Fatal(err)
	}
	evs := rec.list()
	if len(evs) != 1 || evs[0].Type != wire.EventNodeDeleted {
		t.Fatalf("events = %+v", evs)
	}
}

func TestSetDataDoesNotFireChildWatch(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/p", nil)
	rec := &recorder{}
	tr.Watches().add("/p", wire.WatchChild, rec)
	if _, err := tr.SetData("/p", []byte("x"), -1, 2); err != nil {
		t.Fatal(err)
	}
	if len(rec.list()) != 0 {
		t.Fatalf("child watch fired on data change: %+v", rec.list())
	}
}

func TestRemoveWatcher(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/w", nil)
	rec := &recorder{}
	wm := tr.Watches()
	wm.add("/w", wire.WatchData, rec)
	wm.add("/w", wire.WatchChild, rec)
	wm.add("/other", wire.WatchExist, rec)
	if wm.Count() != 3 {
		t.Fatalf("count = %d", wm.Count())
	}
	wm.RemoveWatcher(rec)
	if wm.Count() != 0 {
		t.Fatalf("count after remove = %d", wm.Count())
	}
	if _, err := tr.SetData("/w", []byte("x"), -1, 2); err != nil {
		t.Fatal(err)
	}
	if len(rec.list()) != 0 {
		t.Fatal("removed watcher must not fire")
	}
}

func TestMultipleWatchersAllFire(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/m", nil)
	recs := []*recorder{{}, {}, {}}
	for _, r := range recs {
		tr.Watches().add("/m", wire.WatchData, r)
	}
	if _, err := tr.SetData("/m", []byte("x"), -1, 2); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if len(r.list()) != 1 {
			t.Errorf("watcher %d fired %d times", i, len(r.list()))
		}
	}
}

// TestKillSessionIsOneTransaction: a session's close deletes every one
// of its ephemerals before any watch fires, so the watcher of one that
// reads another finds that one gone too, never a half-closed session.
func TestKillSessionIsOneTransaction(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/app", nil)
	paths := []string{"/app/a", "/app/b"}
	for i, p := range paths {
		if _, err := tr.Create(p, nil, wire.FlagEphemeral, 42, int64(2+i)); err != nil {
			t.Fatal(err)
		}
	}
	fired := 0
	for i, p := range paths {
		other := paths[1-i]
		tr.Watches().add(p, wire.WatchData, FuncWatcher(func(ev wire.WatcherEvent) {
			fired++
			if _, err := tr.Exists(other, nil); err == nil {
				t.Errorf("the watch on %s fired with %s still present: the session was half closed", ev.Path, other)
			}
		}))
	}
	if deleted := tr.KillSession(42, 9); len(deleted) != 2 {
		t.Fatalf("deleted = %v", deleted)
	}
	if fired != 2 {
		t.Fatalf("%d watches fired, want 2", fired)
	}
}

func TestNilWatcherIgnored(t *testing.T) {
	wm := NewWatchManager()
	wm.add("/x", wire.WatchData, nil)
	if wm.Count() != 0 {
		t.Fatal("nil watcher must not register")
	}
}

func TestFuncWatcher(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f", nil)
	fired := 0
	tr.Watches().add("/f", wire.WatchData, FuncWatcher(func(wire.WatcherEvent) { fired++ }))
	if _, err := tr.SetData("/f", []byte("x"), -1, 2); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
}

// flag is a watcher that records whether it fired.
type flag struct{ fired atomic.Bool }

func (f *flag) Notify(wire.WatcherEvent) { f.fired.Store(true) }

// raceReadAndWrite runs iters rounds in which another goroutine makes
// one write while this one reads with a fresh watcher. read returns
// whether the read saw the tree from before the write; such a read's
// watch must have fired by the time the write returned, because the
// tree sets the watch under the read's lock and takes the watchers
// under the write's. undo runs before each round, on this goroutine.
func raceReadAndWrite(t *testing.T, iters int, undo, write func(), read func(Watcher) bool) {
	t.Helper()
	start, done := make(chan struct{}), make(chan struct{})
	go func() {
		for range start {
			write()
			done <- struct{}{}
		}
	}()
	defer close(start)
	lost, before := 0, 0
	for i := 0; i < iters; i++ {
		undo()
		w := &flag{}
		start <- struct{}{}
		sawBefore := read(w)
		<-done
		if sawBefore {
			before++
			if !w.fired.Load() {
				lost++
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d reads that preceded the write lost their watch", lost, before)
	}
	t.Logf("%d of %d reads preceded the write; every one's watch fired", before, iters)
}

// TestExistsWatchSeesRacingDelete is recipes' lock waiter: an exists
// with a watch on its predecessor while the predecessor is deleted. A
// read that found the node must be told of the delete.
func TestExistsWatchSeesRacingDelete(t *testing.T) {
	tr := New()
	raceReadAndWrite(t, 100_000,
		func() { mustCreate(t, tr, "/pred", nil) },
		func() {
			if err := tr.Delete("/pred", -1, 2); err != nil {
				t.Error(err)
			}
		},
		func(w Watcher) bool {
			_, err := tr.Exists("/pred", w)
			return err == nil
		})
}

// TestGetDataWatchSeesRacingSet: a data read with a watch while the
// node is set. A read that returned the old version must be told of the
// set.
func TestGetDataWatchSeesRacingSet(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/cfg", nil)
	old := int32(-1) // the version before this round's set
	raceReadAndWrite(t, 100_000,
		func() { old++ },
		func() {
			if _, err := tr.SetData("/cfg", nil, -1, 2); err != nil {
				t.Error(err)
			}
		},
		func(w Watcher) bool {
			_, stat, err := tr.GetDataRefW("/cfg", w)
			if err != nil {
				t.Error(err)
			}
			return stat.Version == old
		})
}
