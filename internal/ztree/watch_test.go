package ztree

import (
	"sync"
	"testing"

	"securekeeper/internal/wire"
)

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
	tr.Watches().Add("/w", wire.WatchData, rec)

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
	tr.Watches().Add("/w", wire.WatchData, rec)
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
	tr.Watches().Add("/future", wire.WatchExist, rec)
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
	tr.Watches().Add("/p", wire.WatchChild, rec)
	mustCreate(t, tr, "/p/c", nil)
	evs := rec.list()
	if len(evs) != 1 || evs[0].Type != wire.EventNodeChildrenChanged || evs[0].Path != "/p" {
		t.Fatalf("events = %+v", evs)
	}

	// Re-register; child delete also triggers.
	tr.Watches().Add("/p", wire.WatchChild, rec)
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
	tr.Watches().Add("/p", wire.WatchChild, rec)
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
	tr.Watches().Add("/p", wire.WatchChild, rec)
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
	wm.Add("/w", wire.WatchData, rec)
	wm.Add("/w", wire.WatchChild, rec)
	wm.Add("/other", wire.WatchExist, rec)
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
		tr.Watches().Add("/m", wire.WatchData, r)
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
		tr.Watches().Add(p, wire.WatchData, FuncWatcher(func(ev wire.WatcherEvent) {
			fired++
			if _, err := tr.Exists(other); err == nil {
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
	wm.Add("/x", wire.WatchData, nil)
	if wm.Count() != 0 {
		t.Fatal("nil watcher must not register")
	}
}

func TestFuncWatcher(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f", nil)
	fired := 0
	tr.Watches().Add("/f", wire.WatchData, FuncWatcher(func(wire.WatcherEvent) { fired++ }))
	if _, err := tr.SetData("/f", []byte("x"), -1, 2); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
}
