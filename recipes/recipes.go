// Package recipes implements the classic ZooKeeper coordination
// primitives on top of the client library: distributed locks, leader
// election, barriers and counters. These are the workloads the paper's
// introduction motivates ("naming, configuration management, leader
// election, group membership, barriers and distributed locks", §2.1) —
// and they run unchanged against all three cluster variants, including
// SecureKeeper, because the recipes only use the public client API.
//
// The recipes are built on the v2 client API: every blocking primitive
// takes a context.Context for cancellation/deadline, and waiting is
// done on per-watch subscription handles (watching the predecessor
// node, the herd-free ZooKeeper idiom) instead of polling. Multi-node
// invariants that a single versioned op cannot guard belong in an
// atomic client Txn (see the configstore example); the counter's
// single-znode CAS stays a versioned Set.
package recipes

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"securekeeper/internal/client"
	"securekeeper/internal/wire"
)

// Recipe errors.
var (
	ErrNotLocked = errors.New("recipes: lock is not held")
	ErrAbandoned = errors.New("recipes: election abandoned")
)

// EnsurePath creates every element of path that does not yet exist
// (like `mkdir -p`). Existing nodes are left untouched.
func EnsurePath(ctx context.Context, cl *client.Client, path string) error {
	if path == "" || path[0] != '/' {
		return fmt.Errorf("recipes: invalid path %q", path)
	}
	if path == "/" {
		return nil
	}
	elems := strings.Split(path[1:], "/")
	current := ""
	for _, elem := range elems {
		current += "/" + elem
		if _, err := cl.Create(ctx, current, nil, 0); err != nil && !isCode(err, wire.ErrNodeExists) {
			return fmt.Errorf("recipes: ensure %s: %w", current, err)
		}
	}
	return nil
}

func isCode(err error, code wire.ErrCode) bool {
	var pe *wire.ProtocolError
	return errors.As(err, &pe) && pe.Code == code
}

// waitWatch blocks until the subscription fires or ctx expires. A
// closed channel (session over, watch cancelled) counts as a wake-up:
// the caller re-examines the world either way.
func waitWatch(ctx context.Context, w *client.Watch) error {
	defer w.Cancel()
	select {
	case <-w.Events():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// position reports whether node holds the lowest sequence under root
// and names the immediate predecessor to wait on otherwise. missing is
// returned when root is empty or node is gone (session expired,
// resigned) — the sequential-candidate protocol shared by Lock and
// Election.
func position(ctx context.Context, cl *client.Client, root, node string, missing error) (first bool, pred string, err error) {
	kids, err := cl.Children(ctx, root)
	if err != nil {
		return false, "", err
	}
	if len(kids) == 0 {
		return false, "", missing
	}
	sort.Strings(kids)
	mine := strings.TrimPrefix(node, root+"/")
	idx := sort.SearchStrings(kids, mine)
	if idx >= len(kids) || kids[idx] != mine {
		return false, "", missing
	}
	if idx == 0 {
		return true, "", nil
	}
	return false, root + "/" + kids[idx-1], nil
}

// awaitFirst blocks until node is the lowest candidate under root,
// holding a single watch on the immediate predecessor between checks
// (a release or session death wakes exactly one waiter — no herd).
func awaitFirst(ctx context.Context, cl *client.Client, root, node string, missing error) error {
	for {
		first, pred, err := position(ctx, cl, root, node, missing)
		if err != nil {
			return err
		}
		if first {
			return nil
		}
		_, w, err := cl.ExistsW(ctx, pred)
		if err != nil {
			w.Cancel()
			if isCode(err, wire.ErrNoNode) {
				continue // predecessor vanished between listing and watching
			}
			return err
		}
		if err := waitWatch(ctx, w); err != nil {
			return err
		}
	}
}

// --- distributed lock ---

// Lock is a distributed mutex built on ephemeral sequential nodes: the
// holder of the lowest sequence owns the lock; crashing holders release
// implicitly because their node is ephemeral. Waiters watch only their
// immediate predecessor (no thundering herd). This is the recipe that
// exercises SecureKeeper's counter enclave on every acquisition.
type Lock struct {
	cl    *client.Client
	root  string
	node  string // our candidate node while contending/holding
	token int64  // czxid of node: the fencing token while holding
}

// NewLock creates a lock rooted at root (created if missing).
func NewLock(ctx context.Context, cl *client.Client, root string) (*Lock, error) {
	if err := EnsurePath(ctx, cl, root); err != nil {
		return nil, err
	}
	return &Lock{cl: cl, root: root}, nil
}

// errLockLost is the Lock recipe's "candidate gone" sentinel.
var errLockLost = errors.New("recipes: lock candidate disappeared (session expired?)")

// TryLock attempts a non-blocking acquisition.
func (l *Lock) TryLock(ctx context.Context) (bool, error) {
	if err := l.enqueue(ctx); err != nil {
		return false, err
	}
	first, _, err := position(ctx, l.cl, l.root, l.node, errLockLost)
	if err != nil {
		return false, err
	}
	if !first {
		// Withdraw the candidacy.
		_ = l.cl.Delete(ctx, l.node, -1)
		l.node = ""
	}
	return first, nil
}

// Lock blocks until the lock is acquired or ctx expires. While
// waiting it holds a single watch on the immediate predecessor
// candidate, so a release wakes exactly one waiter.
func (l *Lock) Lock(ctx context.Context) error {
	if err := l.enqueue(ctx); err != nil {
		return err
	}
	if err := awaitFirst(ctx, l.cl, l.root, l.node, errLockLost); err != nil {
		return l.abandon(err)
	}
	return nil
}

// Acquire is Lock returning the fencing token: the zxid under which
// this holder's candidate node was created. Tokens are globally unique
// and strictly increasing across successive holders (zxids are the
// commit order), so a downstream resource can reject writes fenced
// with a stale token after the holder was partitioned away — holding
// the lock alone cannot protect against that, only fencing can.
func (l *Lock) Acquire(ctx context.Context) (int64, error) {
	if err := l.Lock(ctx); err != nil {
		return 0, err
	}
	return l.token, nil
}

// Token returns the fencing token while contending or holding, else 0.
// Valid only between a successful acquisition and the release: pass it
// to every downstream write the lock guards.
func (l *Lock) Token() int64 { return l.token }

// abandon withdraws the candidacy on a failed acquisition. The delete
// deliberately uses a background context: the candidate must not leak
// even when the caller's ctx is already cancelled.
func (l *Lock) abandon(cause error) error {
	if l.node != "" {
		_ = l.cl.Delete(context.Background(), l.node, -1)
		l.node = ""
		l.token = 0
	}
	return cause
}

// Unlock releases the lock.
func (l *Lock) Unlock(ctx context.Context) error {
	if l.node == "" {
		return ErrNotLocked
	}
	err := l.cl.Delete(ctx, l.node, -1)
	l.node = ""
	l.token = 0
	return err
}

// Holder returns the name of the current lock-holding candidate node,
// or "" when the lock is free. The read is preceded by a sync so it
// observes every candidate change agreed before the call (ZooKeeper's
// sync-then-read idiom; a replica-local read may lag other sessions'
// writes).
func (l *Lock) Holder(ctx context.Context) (string, error) {
	if err := l.cl.Sync(ctx, l.root); err != nil {
		return "", err
	}
	kids, err := l.cl.Children(ctx, l.root)
	if err != nil {
		return "", err
	}
	if len(kids) == 0 {
		return "", nil
	}
	sort.Strings(kids)
	return kids[0], nil
}

func (l *Lock) enqueue(ctx context.Context) error {
	if l.node != "" {
		return nil // already contending or holding
	}
	// CreateR: the candidate's create zxid IS its czxid, so the fencing
	// token costs no extra read.
	res := l.cl.CreateR(ctx, l.root+"/lock-", nil, wire.FlagSequential|wire.FlagEphemeral)
	if res.Err != nil {
		return fmt.Errorf("recipes: enqueue lock candidate: %w", res.Err)
	}
	l.node = res.Path
	l.token = res.Zxid
	return nil
}

// --- leader election ---

// Election implements the leader-election recipe: candidates create
// ephemeral sequential member nodes; the lowest sequence leads. Waiting
// candidates watch only their immediate predecessor.
type Election struct {
	cl   *client.Client
	root string
	node string
}

// NewElection joins an election rooted at root.
func NewElection(ctx context.Context, cl *client.Client, root string) (*Election, error) {
	if err := EnsurePath(ctx, cl, root); err != nil {
		return nil, err
	}
	node, err := cl.Create(ctx, root+"/member-", nil, wire.FlagSequential|wire.FlagEphemeral)
	if err != nil {
		return nil, fmt.Errorf("recipes: volunteer: %w", err)
	}
	return &Election{cl: cl, root: root, node: node}, nil
}

// Node returns this candidate's member node path.
func (e *Election) Node() string { return e.node }

// IsLeader reports whether this candidate currently leads.
func (e *Election) IsLeader(ctx context.Context) (bool, error) {
	first, _, err := position(ctx, e.cl, e.root, e.node, ErrAbandoned)
	return first, err
}

// AwaitLeadership blocks until this candidate leads or ctx expires,
// watching the immediate predecessor rather than polling.
func (e *Election) AwaitLeadership(ctx context.Context) error {
	return awaitFirst(ctx, e.cl, e.root, e.node, ErrAbandoned)
}

// Resign withdraws from the election (a leader resigning hands over to
// the next candidate).
func (e *Election) Resign(ctx context.Context) error {
	return e.cl.Delete(ctx, e.node, -1)
}

// --- barrier ---

// Barrier is a double barrier: participants enter and proceed together
// once Size of them arrived; they leave together once all exited.
// Waiting happens on child watches, not polling.
type Barrier struct {
	cl   *client.Client
	root string
	size int
	node string
}

// NewBarrier creates a barrier for size participants rooted at root.
func NewBarrier(ctx context.Context, cl *client.Client, root string, size int) (*Barrier, error) {
	if size <= 0 {
		return nil, fmt.Errorf("recipes: barrier size %d", size)
	}
	if err := EnsurePath(ctx, cl, root); err != nil {
		return nil, err
	}
	return &Barrier{cl: cl, root: root, size: size}, nil
}

// Enter registers this participant and blocks until the barrier is
// full or ctx expires.
func (b *Barrier) Enter(ctx context.Context, name string) error {
	node := b.root + "/" + name
	if _, err := b.cl.Create(ctx, node, nil, wire.FlagEphemeral); err != nil {
		return fmt.Errorf("recipes: enter barrier: %w", err)
	}
	b.node = node
	for {
		kids, w, err := b.cl.ChildrenW(ctx, b.root)
		if err != nil {
			return err
		}
		if len(kids) >= b.size {
			w.Cancel()
			return nil
		}
		if err := waitWatch(ctx, w); err != nil {
			_ = b.cl.Delete(context.Background(), node, -1)
			return err
		}
	}
}

// Leave deregisters this participant and blocks until everyone left.
func (b *Barrier) Leave(ctx context.Context) error {
	if b.node != "" {
		if err := b.cl.Delete(ctx, b.node, -1); err != nil && !isCode(err, wire.ErrNoNode) {
			return err
		}
		b.node = ""
	}
	for {
		kids, w, err := b.cl.ChildrenW(ctx, b.root)
		if err != nil {
			return err
		}
		if len(kids) == 0 {
			w.Cancel()
			return nil
		}
		if err := waitWatch(ctx, w); err != nil {
			return err
		}
	}
}

// --- distributed counter ---

// Counter is a distributed counter using versioned compare-and-swap on
// a single znode. A version-guarded Set is already an atomic CAS (one
// proposal of one op) — a Check+Set multi would be semantically
// identical but carry and validate two ops per increment.
type Counter struct {
	cl   *client.Client
	path string
}

// NewCounter creates (or attaches to) a counter at path.
func NewCounter(ctx context.Context, cl *client.Client, path string) (*Counter, error) {
	parent, _ := splitPath(path)
	if err := EnsurePath(ctx, cl, parent); err != nil {
		return nil, err
	}
	if _, err := cl.Create(ctx, path, []byte("0"), 0); err != nil && !isCode(err, wire.ErrNodeExists) {
		return nil, err
	}
	return &Counter{cl: cl, path: path}, nil
}

// Get returns the current value.
func (c *Counter) Get(ctx context.Context) (int64, error) {
	data, _, err := c.cl.Get(ctx, c.path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(data), 10, 64)
}

// Add atomically adds delta and returns the new value, retrying on
// version conflicts (optimistic concurrency).
func (c *Counter) Add(ctx context.Context, delta int64) (int64, error) {
	for attempt := 0; attempt < 100; attempt++ {
		data, stat, err := c.cl.Get(ctx, c.path)
		if err != nil {
			return 0, err
		}
		cur, err := strconv.ParseInt(string(data), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("recipes: counter holds %q: %w", data, err)
		}
		next := cur + delta
		if _, err := c.cl.Set(ctx, c.path, []byte(strconv.FormatInt(next, 10)), stat.Version); err != nil {
			if isCode(err, wire.ErrBadVersion) {
				continue // raced another increment, retry
			}
			return 0, err
		}
		return next, nil
	}
	return 0, fmt.Errorf("recipes: counter contention too high")
}

// --- group membership ---

// Group tracks live members via ephemeral nodes.
type Group struct {
	cl   *client.Client
	root string
	node string
}

// JoinGroup registers this member under root with the given name.
func JoinGroup(ctx context.Context, cl *client.Client, root, name string) (*Group, error) {
	if err := EnsurePath(ctx, cl, root); err != nil {
		return nil, err
	}
	node := root + "/" + name
	if _, err := cl.Create(ctx, node, nil, wire.FlagEphemeral); err != nil {
		return nil, fmt.Errorf("recipes: join group: %w", err)
	}
	return &Group{cl: cl, root: root, node: node}, nil
}

// Members lists the current live members, sorted. Sync-then-read: the
// membership view includes every join/leave agreed before the call even
// when this client's replica lags other sessions' writes.
func (g *Group) Members(ctx context.Context) ([]string, error) {
	if err := g.cl.Sync(ctx, g.root); err != nil {
		return nil, err
	}
	return g.cl.Children(ctx, g.root)
}

// Leave deregisters this member.
func (g *Group) Leave(ctx context.Context) error {
	return g.cl.Delete(ctx, g.node, -1)
}

func splitPath(path string) (parent, name string) {
	idx := strings.LastIndexByte(path, '/')
	if idx <= 0 {
		return "/", strings.TrimPrefix(path, "/")
	}
	return path[:idx], path[idx+1:]
}
