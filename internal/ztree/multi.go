package ztree

import (
	"sort"

	"securekeeper/internal/wire"
)

// This file implements atomic multi-op transactions (TxnMulti): every
// sub-operation is validated against the tree — including the effects
// of earlier sub-ops in the same transaction — and then either ALL
// sub-ops are applied under one zxid or none is. Validation and apply
// happen with every shard the transaction touches write-locked (in
// ascending index order, composing with the tree's other lock paths),
// so no concurrent reader or writer can observe a partially applied
// transaction; watch dispatch happens after all locks are released,
// like every other mutation.

// Check verifies a znode exists and, when version >= 0, that its data
// version matches. It never mutates the tree; inside a multi it is the
// guard that turns racy read-modify-write sequences into atomic
// compare-and-commit transactions.
func (t *Tree) Check(path string, version int32) (*wire.Stat, error) {
	if err := ValidatePath(path); err != nil {
		return nil, err
	}
	stat, code := t.check(path, version)
	if code != wire.ErrOK {
		return nil, code.Error()
	}
	return &stat, nil
}

// check is Check on a validated path.
func (t *Tree) check(path string, version int32) (wire.Stat, wire.ErrCode) {
	s := t.shardFor(path)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[path]
	if !ok {
		return wire.Stat{}, wire.ErrNoNode
	}
	if version >= 0 && version != n.stat.Version {
		return wire.Stat{}, wire.ErrBadVersion
	}
	return n.stat, wire.ErrOK
}

// ovNode is one path's simulated state in the validation overlay.
type ovNode struct {
	exists   bool
	version  int32
	eph      int64
	children int
}

// overlay tracks the hypothetical tree state produced by the sub-ops
// validated so far, seeded lazily from the real tree. The caller holds
// the locks of every shard the sub-ops can touch (lockForSubs), so the
// direct map reads below are safe.
type overlay struct {
	t     *Tree
	nodes map[string]*ovNode
}

func (o *overlay) get(path string) *ovNode {
	if n, ok := o.nodes[path]; ok {
		return n
	}
	n := &ovNode{}
	if real, ok := o.t.shardFor(path).nodes[path]; ok {
		n.exists = true
		n.version = real.stat.Version
		n.eph = real.stat.EphemeralOwner
		n.children = len(real.children)
	}
	o.nodes[path] = n
	return n
}

// validateSub checks one sub-op against the overlay and advances the
// overlay on success. Returns the error code the sub-op would fail
// with, or ErrOK.
func (o *overlay) validateSub(sub *Txn) wire.ErrCode {
	switch sub.Type {
	case TxnCheck:
		if ValidatePath(sub.Path) != nil {
			return wire.ErrBadArguments
		}
		n := o.get(sub.Path)
		if !n.exists {
			return wire.ErrNoNode
		}
		if sub.Version >= 0 && sub.Version != n.version {
			return wire.ErrBadVersion
		}
		return wire.ErrOK

	case TxnCreate:
		if ValidatePath(sub.Path) != nil {
			return wire.ErrBadArguments
		}
		if sub.Path == "/" {
			return wire.ErrNodeExists
		}
		parentPath, _ := SplitPath(sub.Path)
		parent := o.get(parentPath)
		if !parent.exists {
			return wire.ErrNoNode
		}
		if parent.eph != 0 {
			return wire.ErrNoChildrenForEphemerals
		}
		n := o.get(sub.Path)
		if n.exists {
			return wire.ErrNodeExists
		}
		n.exists = true
		n.version = 0
		n.children = 0
		n.eph = 0
		if sub.Flags&wire.FlagEphemeral != 0 {
			n.eph = sub.Session
		}
		parent.children++
		return wire.ErrOK

	case TxnDelete:
		if ValidatePath(sub.Path) != nil || sub.Path == "/" {
			return wire.ErrBadArguments
		}
		n := o.get(sub.Path)
		if !n.exists {
			return wire.ErrNoNode
		}
		if sub.Version != -1 && sub.Version != n.version {
			return wire.ErrBadVersion
		}
		if n.children > 0 {
			return wire.ErrNotEmpty
		}
		n.exists = false
		parentPath, _ := SplitPath(sub.Path)
		if parent := o.get(parentPath); parent.exists && parent.children > 0 {
			parent.children--
		}
		return wire.ErrOK

	case TxnSetData:
		if ValidatePath(sub.Path) != nil {
			return wire.ErrBadArguments
		}
		n := o.get(sub.Path)
		if !n.exists {
			return wire.ErrNoNode
		}
		if sub.Version != -1 && sub.Version != n.version {
			return wire.ErrBadVersion
		}
		n.version++
		return wire.ErrOK

	case TxnError:
		// A sub-op the leader already rejected during prep (bad path,
		// sequence-append failure): deterministically aborts the multi.
		if sub.Err != wire.ErrOK {
			return sub.Err
		}
		return wire.ErrSystemError

	default:
		return wire.ErrUnimplemented
	}
}

// watchFire is a deferred watch trigger, dispatched after unlock.
type watchFire struct {
	path string
	typ  wire.EventType
}

// lockForSubs write-locks exactly the shards the transaction's
// sub-ops can touch (each valid path, plus the parent for create and
// delete), in ascending index order so it composes with lockPair's and
// lockAll's ordering. Invalid paths are rejected by validation before
// any tree access, so their shards need no lock. Returns the unlock
// function.
func (t *Tree) lockForSubs(subs []Txn) func() {
	seen := make(map[uint64]struct{}, 2*len(subs))
	for i := range subs {
		sub := &subs[i]
		if ValidatePath(sub.Path) != nil {
			continue
		}
		switch sub.Type {
		case TxnCreate, TxnDelete:
			parent, _ := SplitPath(sub.Path)
			seen[t.shardIndex(parent)] = struct{}{}
			seen[t.shardIndex(sub.Path)] = struct{}{}
		case TxnSetData, TxnCheck:
			seen[t.shardIndex(sub.Path)] = struct{}{}
		}
	}
	idxs := make([]int, 0, len(seen))
	for i := range seen {
		idxs = append(idxs, int(i))
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		t.shards[i].mu.Lock()
	}
	return func() {
		for j := len(idxs) - 1; j >= 0; j-- {
			t.shards[idxs[j]].mu.Unlock()
		}
	}
}

// applyMulti validates and applies a TxnMulti atomically. On the first
// failing sub-op the whole transaction aborts with the tree untouched:
// the failing sub reports its own error and every other sub reports
// ErrRuntimeInconsistency (ZooKeeper's multi error convention). On
// success every sub-op is applied under the transaction's single zxid.
// Only the shards the sub-ops touch are locked, so a 1-path Check+Set
// CAS contends like a plain Set rather than collapsing the sharded
// tree into a global lock.
func (t *Tree) applyMulti(txn *Txn) TxnResult {
	res := TxnResult{Zxid: txn.Zxid, Subs: make([]TxnResult, len(txn.Subs))}

	unlock := t.lockForSubs(txn.Subs)

	ov := overlay{t: t, nodes: make(map[string]*ovNode, 2*len(txn.Subs))}
	failed := -1
	for i := range txn.Subs {
		if code := ov.validateSub(&txn.Subs[i]); code != wire.ErrOK {
			failed = i
			res.Err = code
			break
		}
	}
	if failed >= 0 {
		unlock()
		for i := range res.Subs {
			res.Subs[i] = TxnResult{Zxid: txn.Zxid, Err: wire.ErrRuntimeInconsistency}
		}
		res.Subs[failed].Err = res.Err
		return res
	}

	// Validation passed for every sub-op: apply for real through the
	// SAME mutation cores the standalone ops use (createNodeLocked &
	// co.), so standalone and in-multi application cannot drift.
	fires := make([]watchFire, 0, 2*len(txn.Subs))
	for i := range txn.Subs {
		sub := &txn.Subs[i]
		sr := TxnResult{Zxid: txn.Zxid, Path: sub.Path}
		switch sub.Type {
		case TxnCheck:
			sr.Stat = t.shardFor(sub.Path).nodes[sub.Path].stat
		case TxnCreate:
			parentPath, _ := SplitPath(sub.Path)
			parent := t.shardFor(parentPath).nodes[parentPath]
			sr.Stat = t.createNodeLocked(parent, sub.Path, sub.Data, sub.Flags, sub.Session, txn.Zxid)
			fires = append(fires,
				watchFire{sub.Path, wire.EventNodeCreated},
				watchFire{parentPath, wire.EventNodeChildrenChanged})
		case TxnDelete:
			t.deleteNodeLocked(t.shardFor(sub.Path).nodes[sub.Path], sub.Path, txn.Zxid)
			parentPath, _ := SplitPath(sub.Path)
			fires = append(fires,
				watchFire{sub.Path, wire.EventNodeDeleted},
				watchFire{parentPath, wire.EventNodeChildrenChanged})
		case TxnSetData:
			sr.Stat = t.setNodeLocked(t.shardFor(sub.Path).nodes[sub.Path], sub.Data, txn.Zxid)
			fires = append(fires, watchFire{sub.Path, wire.EventNodeDataChanged})
		}
		res.Subs[i] = sr
	}
	unlock()

	for _, f := range fires {
		t.watches.trigger(f.path, f.typ)
	}
	return res
}
