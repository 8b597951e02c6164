package ztree

import (
	"sync"

	"securekeeper/internal/wire"
)

// Watcher receives watch events. Implementations must not block: events
// are delivered synchronously from the mutating goroutine, after the
// tree's lock is released.
type Watcher interface {
	Notify(ev wire.WatcherEvent)
}

// WatchManager tracks one-shot watches per path, mirroring ZooKeeper
// semantics: a watch fires once and is removed; data watches fire on
// create/delete/set, existence watches on create/delete, child watches
// on children changes and node deletion. A watch is set by a read of
// the tree (Exists, GetDataRefW, GetChildren) and taken by the write
// that fires it, both under the tree's lock; mu nests inside that lock.
type WatchManager struct {
	mu sync.Mutex
	// tables[kind] maps a path to its watchers of that kind.
	tables [wire.WatchChild + 1]map[string]map[Watcher]struct{}
	// onDispatch, when set, observes each non-empty dispatch with its
	// fan-out (watchers fired by one event). Called outside the locks,
	// on the mutating goroutine; must be cheap and non-blocking.
	onDispatch func(fired int)
}

// firedBy lists, per event type, the kinds of watch the event fires.
var firedBy = [...][]wire.WatchKind{
	wire.EventNodeCreated:         {wire.WatchData, wire.WatchExist},
	wire.EventNodeDeleted:         {wire.WatchData, wire.WatchExist, wire.WatchChild},
	wire.EventNodeDataChanged:     {wire.WatchData, wire.WatchExist},
	wire.EventNodeChildrenChanged: {wire.WatchChild},
}

// NewWatchManager returns an empty watch manager.
func NewWatchManager() *WatchManager {
	m := &WatchManager{}
	for _, kind := range []wire.WatchKind{wire.WatchData, wire.WatchExist, wire.WatchChild} {
		m.tables[kind] = make(map[string]map[Watcher]struct{})
	}
	return m
}

// SetDispatchObserver installs a hook observing every non-empty watch
// dispatch with the number of watchers it fired — the watch fan-out
// signal for the metrics layer. Install before traffic starts; the
// field is read without synchronization on the notify path.
func (m *WatchManager) SetDispatchObserver(fn func(fired int)) {
	m.onDispatch = fn
}

// add registers a one-shot watch of the given kind on path. The tree
// calls it under its read lock (see Tree.GetDataRefW).
func (m *WatchManager) add(path string, kind wire.WatchKind, w Watcher) {
	if w == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	table := m.tables[kind]
	set, ok := table[path]
	if !ok {
		set = make(map[Watcher]struct{})
		table[path] = set
	}
	set[w] = struct{}{}
}

// RemoveWatcher drops every registration of w, used on session close.
func (m *WatchManager) RemoveWatcher(w Watcher) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, table := range m.tables {
		for path, set := range table {
			delete(set, w)
			if len(set) == 0 {
				delete(table, path)
			}
		}
	}
}

// Count returns the number of registered (path, watcher) pairs.
func (m *WatchManager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, table := range m.tables {
		for _, set := range table {
			n += len(set)
		}
	}
	return n
}

// watchFire is one event a write raises: on path, of type typ, and the
// number n of watchers take removed for it.
type watchFire struct {
	path string
	typ  wire.EventType
	n    int
}

// take removes the watches that fires trigger and returns their
// watchers, fires[0]'s n first, then fires[1]'s, and so on. The tree
// calls it under its write lock, so no read sets a watch between the
// change and the taking.
func (m *WatchManager) take(fires []watchFire) []Watcher {
	var fired []Watcher
	m.mu.Lock()
	for i := range fires {
		f := &fires[i]
		before := len(fired)
		for _, kind := range firedBy[f.typ] {
			table := m.tables[kind]
			for w := range table[f.path] {
				fired = append(fired, w)
			}
			delete(table, f.path)
		}
		f.n = len(fired) - before
	}
	m.mu.Unlock()
	return fired
}

// notify delivers what take took, once the tree's lock is released.
func (m *WatchManager) notify(fires []watchFire, fired []Watcher) {
	for _, f := range fires {
		if f.n == 0 {
			continue
		}
		if m.onDispatch != nil {
			m.onDispatch(f.n)
		}
		ev := wire.WatcherEvent{Type: f.typ, Path: f.path}
		for _, w := range fired[:f.n] {
			w.Notify(ev)
		}
		fired = fired[f.n:]
	}
}
