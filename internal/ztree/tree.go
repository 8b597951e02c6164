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
// Concurrency: one RWMutex guards the node map and the ephemeral
// index. apply holds it for writing, every read for reading. A read
// given a watcher sets the watch before it releases the lock, and apply
// takes the watchers its changes fire before it releases its own, so a
// change either shows in what the read returned or fires the watch the
// read set. Watchers are notified after the lock is released.
//
// A node's Ctime and Mtime are the zxids of the transactions that
// created and last modified it (see wire.Stat), so a tree restored from
// a snapshot reports the same Stat as the tree the snapshot came from.
package ztree

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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

// Tree is the znode database. All methods are safe for concurrent use.
type Tree struct {
	mu    sync.RWMutex
	nodes map[string]*node
	// ephemeral indexes session id -> owned paths.
	ephemeral map[int64]map[string]struct{}

	watches *WatchManager
}

// New returns a tree containing only the root znode "/".
func New() *Tree {
	return &Tree{
		nodes:     map[string]*node{"/": {}},
		ephemeral: make(map[int64]map[string]struct{}),
		watches:   NewWatchManager(),
	}
}

// Watches exposes the tree's watch manager: its count, its dispatch
// observer and the removal of a closed session's watches. Reads set
// watches (GetDataRefW, Exists, GetChildren).
func (t *Tree) Watches() *WatchManager { return t.watches }

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
// validated the op and holds the write lock. The node adopts data.
func (t *Tree) createNodeLocked(parent *node, path string, data []byte, flags wire.CreateFlags, owner, zxid int64) wire.Stat {
	_, name := SplitPath(path)
	n := &node{
		data: data,
		stat: wire.Stat{
			Czxid:      zxid,
			Mzxid:      zxid,
			Pzxid:      zxid,
			Ctime:      zxid,
			Mtime:      zxid,
			DataLength: int32(len(data)),
		},
	}
	if flags&wire.FlagEphemeral != 0 {
		n.stat.EphemeralOwner = owner
		t.addEphemeral(owner, path)
	}
	t.nodes[path] = n
	parent.addChild(name)
	parent.stat.Cversion++
	parent.stat.Pzxid = zxid
	parent.stat.NumChildren = int32(len(parent.children))
	return n.stat
}

// addEphemeral records that owner's session owns path.
func (t *Tree) addEphemeral(owner int64, path string) {
	set, ok := t.ephemeral[owner]
	if !ok {
		set = make(map[string]struct{})
		t.ephemeral[owner] = set
	}
	set[path] = struct{}{}
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
// validated the op and holds the write lock.
func (t *Tree) deleteNodeLocked(n *node, path string, zxid int64) {
	parentPath, name := SplitPath(path)
	delete(t.nodes, path)
	if owner := n.stat.EphemeralOwner; owner != 0 {
		if set, ok := t.ephemeral[owner]; ok {
			delete(set, path)
			if len(set) == 0 {
				delete(t.ephemeral, owner)
			}
		}
	}
	if parent, ok := t.nodes[parentPath]; ok {
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
// validated the op and holds the write lock. The node adopts data.
func (t *Tree) setNodeLocked(n *node, data []byte, zxid int64) wire.Stat {
	n.data = data
	n.stat.Version++
	n.stat.Mzxid = zxid
	n.stat.Mtime = zxid
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
	return t.GetDataRefW(path, nil)
}

// GetDataRefW is GetDataRef that, when w is not nil, also registers w
// before the read lock is released: a data watch on a node that exists,
// an exist watch on one that does not.
func (t *Tree) GetDataRefW(path string, w Watcher) ([]byte, wire.Stat, error) {
	if err := ValidatePath(path); err != nil {
		return nil, wire.Stat{}, err
	}
	t.mu.RLock()
	n := t.nodes[path]
	if w != nil {
		kind := wire.WatchData
		if n == nil {
			kind = wire.WatchExist
		}
		t.watches.add(path, kind, w)
	}
	if n == nil {
		t.mu.RUnlock()
		return nil, wire.Stat{}, wire.ErrNoNode.Error()
	}
	data, stat := n.data, n.stat
	t.mu.RUnlock()
	return data, stat, nil
}

// Exists returns the Stat of a znode, or ErrNoNode. A watcher w is
// registered as GetDataRefW registers it.
func (t *Tree) Exists(path string, w Watcher) (*wire.Stat, error) {
	_, stat, err := t.GetDataRefW(path, w)
	if err != nil {
		return nil, err
	}
	return &stat, nil
}

// GetChildren returns a sorted list of child names. When w is not nil
// and the node exists, w gets a child watch on it, set under the same
// read lock; a listing that fails sets no watch.
func (t *Tree) GetChildren(path string, w Watcher) ([]string, error) {
	if err := ValidatePath(path); err != nil {
		return nil, err
	}
	t.mu.RLock()
	n, ok := t.nodes[path]
	if !ok {
		t.mu.RUnlock()
		return nil, wire.ErrNoNode.Error()
	}
	if w != nil {
		t.watches.add(path, wire.WatchChild, w)
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	t.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// NextSequence returns the sequence number for the next sequential child
// of parentPath. ZooKeeper uses the parent's Cversion for this purpose.
func (t *Tree) NextSequence(parentPath string) (int32, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.nodes[parentPath]
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
	t.mu.RLock()
	paths := make([]string, 0, len(t.ephemeral[sessionID]))
	for p := range t.ephemeral[sessionID] {
		paths = append(paths, p)
	}
	t.mu.RUnlock()
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
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.nodes)
}

// ApproxBytes estimates the memory held by payloads and paths, used by
// the Fig 2 memory-timeline experiment.
func (t *Tree) ApproxBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var total int64
	for p, n := range t.nodes {
		total += int64(len(p)) + int64(len(n.data)) + 96 // stat + map overhead estimate
	}
	return total
}

// Digest computes an order-independent checksum over paths, data and
// every Stat field. Replicas compare digests in tests to assert
// convergence.
func (t *Tree) Digest() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var digest uint64
	for p, n := range t.nodes {
		h := fnv64aBytes(fnv64a(p), n.data)
		st := &n.stat
		for _, v := range [...]int64{st.Czxid, st.Mzxid, st.Ctime, st.Mtime, int64(st.Version), int64(st.Cversion),
			int64(st.Aversion), st.EphemeralOwner, int64(st.DataLength), int64(st.NumChildren), st.Pzxid} {
			h = fnv64aUint64(h, uint64(v))
		}
		digest += h // commutative combine: iteration order independent
	}
	return digest
}

// Snapshot captures the full tree state for recovery transfer, a
// consistent point-in-time view taken under the read lock.
func (t *Tree) Snapshot() *Snapshot {
	t.mu.RLock()
	snap := &Snapshot{Nodes: make([]SnapshotNode, 0, len(t.nodes))}
	for p, n := range t.nodes {
		snap.Nodes = append(snap.Nodes, SnapshotNode{
			Path: p,
			Data: cloneBytes(n.data),
			Stat: n.stat,
		})
	}
	t.mu.RUnlock()
	sort.Slice(snap.Nodes, func(i, j int) bool { return snap.Nodes[i].Path < snap.Nodes[j].Path })
	return snap
}

// Restore replaces the tree contents with a snapshot.
func (t *Tree) Restore(snap *Snapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes = make(map[string]*node, len(snap.Nodes)+1)
	t.ephemeral = make(map[int64]map[string]struct{})
	for _, sn := range snap.Nodes {
		t.nodes[sn.Path] = &node{data: cloneBytes(sn.Data), stat: sn.Stat}
		if owner := sn.Stat.EphemeralOwner; owner != 0 {
			t.addEphemeral(owner, sn.Path)
		}
	}
	if _, ok := t.nodes["/"]; !ok {
		t.nodes["/"] = &node{}
	}
	// Rebuild child links.
	for p := range t.nodes {
		if p == "/" {
			continue
		}
		parentPath, name := SplitPath(p)
		if parent, ok := t.nodes[parentPath]; ok {
			parent.addChild(name)
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

func fnv64aUint64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h ^= v >> i & 0xff
		h *= 1099511628211
	}
	return h
}
