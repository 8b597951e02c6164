package client

import (
	"sync"

	"securekeeper/internal/wire"
)

// watchKey addresses a subscription table: the watched path plus the
// client-side kind (data watches cover the server's data and existence
// registrations — both fire on the same event set — child watches
// cover children listings).
type watchKey struct {
	path string
	kind wire.WatchKind
}

// Watch is one watch subscription. Each watch-taking operation returns
// its own handle; the triggering event is delivered exactly once on
// Events(), after which the channel is closed (watches are one-shot,
// mirroring ZooKeeper semantics). Cancel releases the subscription
// early; the channel is also closed when the session ends, so readers
// never block forever on a dead client.
type Watch struct {
	c    *Client
	key  watchKey
	ch   chan wire.WatcherEvent
	once sync.Once
	// armed (guarded by c.mu) gates delivery: the receive loop sets it
	// when the arming operation's response is processed. Events that
	// arrive earlier belong to OLDER subscriptions on the same path —
	// the server orders a watch's response before any of its events —
	// and must not consume this handle's one-shot delivery.
	armed bool
}

// Events returns the subscription's delivery channel. It yields at
// most one event and is then closed; it is closed without an event
// when the watch is cancelled or the session ends.
func (w *Watch) Events() <-chan wire.WatcherEvent { return w.ch }

// Cancel releases the subscription. The server-side watch (if armed)
// may still fire, but nothing is delivered to this handle. Safe to
// call multiple times and after delivery.
func (w *Watch) Cancel() {
	w.c.removeWatch(w)
	w.once.Do(func() { close(w.ch) })
}

// fire delivers the event exactly once and closes the channel. The
// 1-buffered channel guarantees the send never blocks the receive
// loop, and the sync.Once guarantees a concurrent Cancel cannot race
// a second close.
func (w *Watch) fire(ev wire.WatcherEvent) {
	w.once.Do(func() {
		w.ch <- ev
		close(w.ch)
	})
}

// addWatch registers a subscription BEFORE the watch-arming request is
// sent: the server serializes the operation's response ahead of any
// event the watch produces, but the receive loop may process that
// event before the caller regains control, so registration must not
// wait for the response.
func (c *Client) addWatch(path string, kind wire.WatchKind) *Watch {
	w := &Watch{
		c:   c,
		key: watchKey{path: path, kind: kind},
		ch:  make(chan wire.WatcherEvent, 1),
	}
	c.mu.Lock()
	if c.closed || c.readErr != nil {
		c.mu.Unlock()
		w.once.Do(func() { close(w.ch) })
		return w
	}
	set, ok := c.watches[w.key]
	if !ok {
		set = make(map[*Watch]struct{})
		c.watches[w.key] = set
	}
	set[w] = struct{}{}
	c.mu.Unlock()
	return w
}

// removeWatch drops one subscription from the registry.
func (c *Client) removeWatch(w *Watch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if set, ok := c.watches[w.key]; ok {
		delete(set, w)
		if len(set) == 0 {
			delete(c.watches, w.key)
		}
	}
}

// dispatchEvent routes one server notification to every subscription
// whose (path, kind) the event matches — exactly once each, removing
// them (one-shot). Runs on the receive loop goroutine; delivery never
// blocks it (fire sends into a 1-buffered channel).
func (c *Client) dispatchEvent(ev wire.WatcherEvent) {
	var fired []*Watch
	c.mu.Lock()
	collect := func(kind wire.WatchKind) {
		key := watchKey{path: ev.Path, kind: kind}
		set := c.watches[key]
		for w := range set {
			if !w.armed {
				continue // its own response has not arrived: not its event
			}
			fired = append(fired, w)
			delete(set, w)
		}
		if len(set) == 0 {
			delete(c.watches, key)
		}
	}
	// Mirror the server's WatchManager trigger table.
	switch ev.Type {
	case wire.EventNodeCreated, wire.EventNodeDataChanged:
		collect(wire.WatchData)
	case wire.EventNodeDeleted:
		collect(wire.WatchData)
		collect(wire.WatchChild)
	case wire.EventNodeChildrenChanged:
		collect(wire.WatchChild)
	}
	c.mu.Unlock()
	for _, w := range fired {
		w.fire(ev)
	}
}

// closeAllWatches releases every subscription when the session ends,
// so handle readers unblock instead of waiting on a dead connection.
func (c *Client) closeAllWatches() {
	c.mu.Lock()
	tables := c.watches
	c.watches = make(map[watchKey]map[*Watch]struct{})
	c.mu.Unlock()
	for _, set := range tables {
		for w := range set {
			w.once.Do(func() { close(w.ch) })
		}
	}
}
