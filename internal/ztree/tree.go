// Package ztree implements the hierarchical znode database at the heart
// of the coordination service: a tree of nodes addressed by slash-
// separated paths, each carrying a payload, version metadata (Stat), and
// optionally an ephemeral owner. The tree applies committed transactions
// deterministically so that every replica converges to the same state,
// and it triggers watches on mutations.
//
// The tree treats paths and payloads as opaque byte strings. This is the
// property SecureKeeper exploits: ciphertext paths and payloads flow
// through unmodified ("the untrusted components handle the ciphertext as
// a blackbox, i.e. the same as plaintext", §4.1).
//
// The tree has one write engine (multi.go): every write is a
// transaction, checked by one rule function against what its earlier
// ops did and then applied whole or not at all. A lone create, delete,
// set or check is a transaction of one op, a multi one of its subs, and
// a session's close one delete per ephemeral node it owned.
//
// Concurrency: the node map is split into path-hash-addressed shards,
// each guarded by its own RWMutex, so readers and writers touching
// different subtree regions do not contend on a single lock. A
// transaction write-locks exactly the shards its ops touch (each op's
// node, and its parent for create and delete) in ascending shard-index
// order, which makes deadlock impossible: a lone set locks one shard, a
// lone create or delete at most two, a session's close every shard its
// ephemerals and their parents live in. Watch dispatch always happens
// after every shard lock is released.
package ztree

import (
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"securekeeper/internal/wire"
)

// node is a single znode. data is immutable once stored: a write
// installs a new slice, never changes the old one in place, so readers
// (GetDataRef, Snapshot) and the other holders of a committed
// transaction's payload can share it without a lock. children is made
// at the first child; most znodes are leaves.
type node struct {
	data     []byte
	stat     wire.Stat
	children map[string]struct{}
}

// shard is one slice of the node map with its own lock.
type shard struct {
	mu    sync.RWMutex // 24 bytes
	nodes map[string]*node
	// Pad the 32 bytes of fields to a multiple of the cache line so
	// neighbouring shards' locks do not false-share under contention
	// (two lines, to also clear the adjacent-line prefetcher).
	_ [128 - 32]byte //nolint:unused
}

// DefaultShards is the shard count used by New unless WithShards
// overrides it. Sized so that a machine's worth of goroutines rarely
// collide on one lock while keeping whole-tree operations (snapshot,
// digest) cheap.
const DefaultShards = 32

// Tree is the znode database. All methods are safe for concurrent use.
type Tree struct {
	shards []shard
	mask   uint64 // len(shards)-1; len is a power of two
	// seed keys the shard hash. It is per tree: shard placement is
	// private to a replica (Digest, which replicas compare, hashes with
	// FNV instead).
	seed maphash.Seed

	// ephemeral indexes session id -> owned paths. It has its own lock;
	// the ordering discipline is that ephMu may be acquired while shard
	// locks are held, never the reverse.
	ephMu     sync.Mutex
	ephemeral map[int64]map[string]struct{}

	watches *WatchManager
	now     func() int64 // wall clock in ms, injectable for tests
	clock   atomic.Int64 // fallback logical clock when now is nil
}

// Option configures a Tree.
type Option func(*Tree)

// WithClock injects the millisecond wall-clock source used for Stat
// timestamps. Tests use this to make Ctime/Mtime deterministic.
func WithClock(now func() int64) Option {
	return func(t *Tree) { t.now = now }
}

// WithShards sets the shard count, rounded up to a power of two.
// Benchmarks use WithShards(1) to measure the pre-shard behaviour.
func WithShards(n int) Option {
	return func(t *Tree) {
		if n < 1 {
			n = 1
		}
		size := 1
		for size < n {
			size <<= 1
		}
		t.shards = make([]shard, size)
		t.mask = uint64(size - 1)
	}
}

// New returns a tree containing only the root znode "/".
func New(opts ...Option) *Tree {
	t := &Tree{
		seed:      maphash.MakeSeed(),
		ephemeral: make(map[int64]map[string]struct{}),
		watches:   NewWatchManager(),
	}
	WithShards(DefaultShards)(t)
	for _, opt := range opts {
		opt(t)
	}
	for i := range t.shards {
		t.shards[i].nodes = make(map[string]*node, 8)
	}
	t.shardFor("/").nodes["/"] = &node{}
	return t
}

// shardIndex maps a path to its shard slot.
func (t *Tree) shardIndex(path string) uint64 {
	return maphash.String(t.seed, path) & t.mask
}

func (t *Tree) shardFor(path string) *shard {
	return &t.shards[t.shardIndex(path)]
}

// lockAll write-locks every shard in index order; unlockAll reverses it.
func (t *Tree) lockAll() {
	for i := range t.shards {
		t.shards[i].mu.Lock()
	}
}

func (t *Tree) unlockAll() {
	for i := len(t.shards) - 1; i >= 0; i-- {
		t.shards[i].mu.Unlock()
	}
}

// rlockAll read-locks every shard in index order for consistent
// whole-tree reads (snapshot).
func (t *Tree) rlockAll() {
	for i := range t.shards {
		t.shards[i].mu.RLock()
	}
}

func (t *Tree) runlockAll() {
	for i := len(t.shards) - 1; i >= 0; i-- {
		t.shards[i].mu.RUnlock()
	}
}

// Watches exposes the tree's watch manager for registration.
func (t *Tree) Watches() *WatchManager { return t.watches }

func (t *Tree) timestamp() int64 {
	if t.now != nil {
		return t.now()
	}
	return t.clock.Add(1)
}

// ValidatePath checks structural path validity: absolute, no empty or
// dot segments, no trailing slash (except root).
func ValidatePath(path string) error {
	if path == "" {
		return fmt.Errorf("ztree: empty path: %w", wire.ErrBadArguments.Error())
	}
	if path[0] != '/' {
		return fmt.Errorf("ztree: relative path %q: %w", path, wire.ErrBadArguments.Error())
	}
	if path == "/" {
		return nil
	}
	if strings.HasSuffix(path, "/") {
		return fmt.Errorf("ztree: trailing slash in %q: %w", path, wire.ErrBadArguments.Error())
	}
	for rest := path[1:]; ; {
		seg, tail, more := strings.Cut(rest, "/")
		if seg == "" || seg == "." || seg == ".." {
			return fmt.Errorf("ztree: invalid segment %q in %q: %w", seg, path, wire.ErrBadArguments.Error())
		}
		if !more {
			return nil
		}
		rest = tail
	}
}

// SplitPath returns the parent path and the final segment of path.
// SplitPath("/a/b") == ("/a", "b"); SplitPath("/a") == ("/", "a").
func SplitPath(path string) (parent, name string) {
	idx := strings.LastIndexByte(path, '/')
	if idx <= 0 {
		return "/", path[1:]
	}
	return path[:idx], path[idx+1:]
}

// Create inserts a new znode and returns its Stat. The zxid stamps the
// creating transaction. For ephemeral nodes, owner is the session id.
// The payload is copied: data stays the caller's.
func (t *Tree) Create(path string, data []byte, flags wire.CreateFlags, owner int64, zxid int64) (*wire.Stat, error) {
	return statOrErr(t.Apply(&Txn{Zxid: zxid, Type: TxnCreate, Path: path, Data: cloneBytes(data), Flags: flags, Session: owner}))
}

// statOrErr is the public mutators' view of a one-op transaction.
func statOrErr(res TxnResult) (*wire.Stat, error) {
	if res.Err != wire.ErrOK {
		return nil, res.Err.Error()
	}
	stat := res.Stat
	return &stat, nil
}

// createNodeLocked performs the mutation core of a create: apply has
// validated the op and holds write locks covering both the path's and
// the parent's shards. The node adopts data.
func (t *Tree) createNodeLocked(parent *node, path string, data []byte, flags wire.CreateFlags, owner, zxid int64) wire.Stat {
	_, name := SplitPath(path)
	now := t.timestamp()
	n := &node{
		data: data,
		stat: wire.Stat{
			Czxid:      zxid,
			Mzxid:      zxid,
			Pzxid:      zxid,
			Ctime:      now,
			Mtime:      now,
			DataLength: int32(len(data)),
		},
	}
	if flags&wire.FlagEphemeral != 0 {
		n.stat.EphemeralOwner = owner
		t.ephMu.Lock()
		set, ok := t.ephemeral[owner]
		if !ok {
			set = make(map[string]struct{})
			t.ephemeral[owner] = set
		}
		set[path] = struct{}{}
		t.ephMu.Unlock()
	}
	t.shardFor(path).nodes[path] = n
	parent.addChild(name)
	parent.stat.Cversion++
	parent.stat.Pzxid = zxid
	parent.stat.NumChildren = int32(len(parent.children))
	return n.stat
}

func (n *node) addChild(name string) {
	if n.children == nil {
		n.children = make(map[string]struct{})
	}
	n.children[name] = struct{}{}
}

// Delete removes a znode if version matches (-1 matches any) and it has
// no children.
func (t *Tree) Delete(path string, version int32, zxid int64) error {
	return t.Apply(&Txn{Zxid: zxid, Type: TxnDelete, Path: path, Version: version}).Err.Error()
}

// deleteNodeLocked performs the mutation core of a delete: apply has
// validated the op and holds write locks covering both the path's and
// the parent's shards.
func (t *Tree) deleteNodeLocked(n *node, path string, zxid int64) {
	parentPath, name := SplitPath(path)
	delete(t.shardFor(path).nodes, path)
	if n.stat.EphemeralOwner != 0 {
		t.ephMu.Lock()
		if set, ok := t.ephemeral[n.stat.EphemeralOwner]; ok {
			delete(set, path)
			if len(set) == 0 {
				delete(t.ephemeral, n.stat.EphemeralOwner)
			}
		}
		t.ephMu.Unlock()
	}
	if parent, ok := t.shardFor(parentPath).nodes[parentPath]; ok {
		delete(parent.children, name)
		parent.stat.Cversion++
		parent.stat.Pzxid = zxid
		parent.stat.NumChildren = int32(len(parent.children))
	}
}

// SetData replaces a znode's payload if version matches (-1 matches
// any). The payload is copied: data stays the caller's.
func (t *Tree) SetData(path string, data []byte, version int32, zxid int64) (*wire.Stat, error) {
	return statOrErr(t.Apply(&Txn{Zxid: zxid, Type: TxnSetData, Path: path, Data: cloneBytes(data), Version: version}))
}

// setNodeLocked performs the mutation core of a set: apply has
// validated the op and holds the node's shard write lock. The node
// adopts data.
func (t *Tree) setNodeLocked(n *node, data []byte, zxid int64) wire.Stat {
	n.data = data
	n.stat.Version++
	n.stat.Mzxid = zxid
	n.stat.Mtime = t.timestamp()
	n.stat.DataLength = int32(len(data))
	return n.stat
}

// GetData returns a copy of the payload and the Stat.
func (t *Tree) GetData(path string) ([]byte, *wire.Stat, error) {
	data, stat, err := t.GetDataRef(path)
	if err != nil {
		return nil, nil, err
	}
	return cloneBytes(data), &stat, nil
}

// GetDataRef returns the payload without the defensive copy, and the
// Stat by value. Payload slices are immutable once stored (a write
// installs a new slice rather than changing the old one in place), so
// the reference stays consistent; the caller must not modify it. This
// is the replica-internal read path: the server serializes the payload
// into the response message immediately, and that serialization is the
// copy at the session boundary.
func (t *Tree) GetDataRef(path string) ([]byte, wire.Stat, error) {
	if err := ValidatePath(path); err != nil {
		return nil, wire.Stat{}, err
	}
	s := t.shardFor(path)
	s.mu.RLock()
	n, ok := s.nodes[path]
	if !ok {
		s.mu.RUnlock()
		return nil, wire.Stat{}, wire.ErrNoNode.Error()
	}
	data, stat := n.data, n.stat
	s.mu.RUnlock()
	return data, stat, nil
}

// Exists returns the Stat of a znode, or ErrNoNode.
func (t *Tree) Exists(path string) (*wire.Stat, error) {
	if err := ValidatePath(path); err != nil {
		return nil, err
	}
	s := t.shardFor(path)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[path]
	if !ok {
		return nil, wire.ErrNoNode.Error()
	}
	stat := n.stat
	return &stat, nil
}

// GetChildren returns a sorted list of child names.
func (t *Tree) GetChildren(path string) ([]string, error) {
	if err := ValidatePath(path); err != nil {
		return nil, err
	}
	s := t.shardFor(path)
	s.mu.RLock()
	n, ok := s.nodes[path]
	if !ok {
		s.mu.RUnlock()
		return nil, wire.ErrNoNode.Error()
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// NextSequence returns the sequence number for the next sequential child
// of parentPath. ZooKeeper uses the parent's Cversion for this purpose.
func (t *Tree) NextSequence(parentPath string) (int32, error) {
	s := t.shardFor(parentPath)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[parentPath]
	if !ok {
		return 0, wire.ErrNoNode.Error()
	}
	return n.stat.Cversion, nil
}

// KillSession closes a session: one transaction deletes every ephemeral
// node it owns and KillSession returns their paths, deepest first so
// that children go before parents. Every delete lands before any watch
// fires, so neither a watcher nor a concurrent reader sees the session
// half closed. If the transaction fails, nothing is deleted: only a
// restored snapshot holding a child under an ephemeral node can make it
// fail, and the tree never writes such a snapshot. (So can a Delete of
// one of the nodes racing the close, which a replica never runs: it
// applies every write from one goroutine, in commit order.)
func (t *Tree) KillSession(sessionID int64, zxid int64) []string {
	t.ephMu.Lock()
	paths := make([]string, 0, len(t.ephemeral[sessionID]))
	for p := range t.ephemeral[sessionID] {
		paths = append(paths, p)
	}
	t.ephMu.Unlock()
	sort.Slice(paths, func(i, j int) bool { return len(paths[i]) > len(paths[j]) })
	ops := make([]Txn, len(paths))
	for i, p := range paths {
		ops[i] = Txn{Type: TxnDelete, Path: p, Version: -1}
	}
	if _, code := t.apply(ops, zxid, nil); code != wire.ErrOK {
		return paths[:0]
	}
	return paths
}

// Count returns the number of znodes including the root.
func (t *Tree) Count() int {
	total := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		total += len(s.nodes)
		s.mu.RUnlock()
	}
	return total
}

// ApproxBytes estimates the memory held by payloads and paths, used by
// the Fig 2 memory-timeline experiment.
func (t *Tree) ApproxBytes() int64 {
	var total int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for p, n := range s.nodes {
			total += int64(len(p)) + int64(len(n.data)) + 96 // stat + map overhead estimate
		}
		s.mu.RUnlock()
	}
	return total
}

// Digest computes an order-independent checksum over paths, data and
// versions. Replicas compare digests in tests to assert convergence.
func (t *Tree) Digest() uint64 {
	var digest uint64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for p, n := range s.nodes {
			h := fnv64a(p)
			h = fnv64aBytes(h, n.data)
			h ^= uint64(uint32(n.stat.Version))<<32 | uint64(uint32(n.stat.Cversion))
			digest += h // commutative combine: iteration order independent
		}
		s.mu.RUnlock()
	}
	return digest
}

// Snapshot captures the full tree state for recovery transfer. All
// shards are read-locked together so the snapshot is a consistent
// point-in-time view.
func (t *Tree) Snapshot() *Snapshot {
	t.rlockAll()
	total := 0
	for i := range t.shards {
		total += len(t.shards[i].nodes)
	}
	snap := &Snapshot{Nodes: make([]SnapshotNode, 0, total)}
	for i := range t.shards {
		for p, n := range t.shards[i].nodes {
			snap.Nodes = append(snap.Nodes, SnapshotNode{
				Path: p,
				Data: cloneBytes(n.data),
				Stat: n.stat,
			})
		}
	}
	t.runlockAll()
	sort.Slice(snap.Nodes, func(i, j int) bool { return snap.Nodes[i].Path < snap.Nodes[j].Path })
	return snap
}

// Restore replaces the tree contents with a snapshot.
func (t *Tree) Restore(snap *Snapshot) {
	t.lockAll()
	defer t.unlockAll()
	for i := range t.shards {
		t.shards[i].nodes = make(map[string]*node, 8)
	}
	t.ephMu.Lock()
	t.ephemeral = make(map[int64]map[string]struct{})
	for _, sn := range snap.Nodes {
		n := &node{data: cloneBytes(sn.Data), stat: sn.Stat}
		t.shardFor(sn.Path).nodes[sn.Path] = n
		if owner := sn.Stat.EphemeralOwner; owner != 0 {
			set, ok := t.ephemeral[owner]
			if !ok {
				set = make(map[string]struct{})
				t.ephemeral[owner] = set
			}
			set[sn.Path] = struct{}{}
		}
	}
	t.ephMu.Unlock()
	rootShard := t.shardFor("/")
	if _, ok := rootShard.nodes["/"]; !ok {
		rootShard.nodes["/"] = &node{}
	}
	// Rebuild child links.
	for i := range t.shards {
		for p := range t.shards[i].nodes {
			if p == "/" {
				continue
			}
			parentPath, name := SplitPath(p)
			if parent, ok := t.shardFor(parentPath).nodes[parentPath]; ok {
				parent.addChild(name)
			}
		}
	}
}

// SnapshotNode is one znode in a serialized snapshot.
type SnapshotNode struct {
	Path string
	Data []byte
	Stat wire.Stat
}

// Snapshot is a point-in-time copy of the tree used for recovery.
type Snapshot struct {
	Nodes []SnapshotNode
}

// Serialize implements wire.Record.
func (s *Snapshot) Serialize(e *wire.Encoder) {
	e.WriteInt32(int32(len(s.Nodes)))
	for i := range s.Nodes {
		e.WriteString(s.Nodes[i].Path)
		e.WriteBuffer(s.Nodes[i].Data)
		s.Nodes[i].Stat.Serialize(e)
	}
}

// minSnapshotNodeLen is the encoding of a node with an empty path and no
// payload: two length prefixes and the Stat (68 bytes).
const minSnapshotNodeLen = 76

// Deserialize implements wire.Record. Every node's path must be one
// ValidatePath accepts: Restore links each node to its parent by path.
func (s *Snapshot) Deserialize(d *wire.Decoder) error {
	n := d.ReadInt32()
	if n < 0 || n > wire.MaxVectorLen {
		return fmt.Errorf("ztree: bad snapshot node count %d", n)
	}
	// As for a frame's proposal records: what is reserved on the count's
	// word is bounded by what the bytes at hand could hold.
	s.Nodes = make([]SnapshotNode, 0, min(int(n), d.Remaining()/minSnapshotNodeLen))
	for i := int32(0); i < n && d.Err() == nil; i++ {
		sn := SnapshotNode{Path: d.ReadString(), Data: d.ReadBuffer()}
		sn.Stat.Deserialize(d)
		if err := ValidatePath(sn.Path); d.Err() == nil && err != nil {
			return fmt.Errorf("ztree: snapshot node %d: %w", i, err)
		}
		s.Nodes = append(s.Nodes, sn)
	}
	return d.Err()
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func fnv64aBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
