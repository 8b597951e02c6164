package ztree

import (
	"slices"

	"securekeeper/internal/wire"
)

// This file is the tree's one write engine. Every write is a
// transaction of ops: a lone create, delete, set or check is a
// transaction of one op, a TxnMulti one of its subs, a session's close
// one delete per ephemeral node. apply write-locks exactly the shards
// the ops touch — each op's path, and its parent's for create and
// delete — in ascending index order, the order lockAll takes too; it
// checks every op with the one rule function, validate, against an
// overlay of what the transaction's earlier ops did; then it applies
// every op under the transaction's zxid, or none. No reader or writer
// sees a transaction half applied, and watches fire after every lock is
// released.

// Check verifies a znode exists and, when version >= 0, that its data
// version matches. It never mutates the tree; inside a multi it is the
// guard that turns racy read-modify-write sequences into atomic
// compare-and-commit transactions.
func (t *Tree) Check(path string, version int32) (*wire.Stat, error) {
	return statOrErr(t.Apply(&Txn{Type: TxnCheck, Path: path, Version: version}))
}

// ovNode is one path's state as the transaction's earlier ops left it.
type ovNode struct {
	exists   bool
	version  int32
	children int32
	eph      int64
}

// overlay is the tree as the ops validated so far would leave it, read
// through from the real tree on a path's first use. The caller holds
// the lock of every shard the ops touch, so the direct map reads are
// safe. Only later ops read what an op records, so a lone op's overlay
// has no map; values live in the map, not behind pointers, so a small
// transaction's map stays on the stack.
type overlay struct {
	t     *Tree
	nodes map[string]ovNode
}

func (o *overlay) get(path string) ovNode {
	if n, ok := o.nodes[path]; ok {
		return n
	}
	real, ok := o.t.shardFor(path).nodes[path]
	if !ok {
		return ovNode{}
	}
	return ovNode{exists: true, version: real.stat.Version, eph: real.stat.EphemeralOwner, children: int32(len(real.children))}
}

// validate is the tree's one rule function for a write: it checks op
// against the overlay and, when op passes, records op's effect there.
// It returns the code op fails with, or ErrOK.
func (o *overlay) validate(op *Txn) wire.ErrCode {
	switch op.Type {
	case TxnCreate, TxnDelete, TxnSetData, TxnCheck:
	case TxnError:
		// An op the leader already rejected during prep (bad path,
		// sequence-append failure): deterministically aborts the multi.
		if op.Err != wire.ErrOK {
			return op.Err
		}
		return wire.ErrSystemError
	default:
		return wire.ErrUnimplemented
	}
	if ValidatePath(op.Path) != nil {
		return wire.ErrBadArguments
	}
	n := o.get(op.Path)
	switch op.Type {
	case TxnCheck:
		switch {
		case !n.exists:
			return wire.ErrNoNode
		case op.Version >= 0 && op.Version != n.version:
			return wire.ErrBadVersion
		}
		return wire.ErrOK

	case TxnCreate:
		if op.Path == "/" {
			return wire.ErrNodeExists
		}
		parentPath, _ := SplitPath(op.Path)
		parent := o.get(parentPath)
		switch {
		case !parent.exists:
			return wire.ErrNoNode
		case parent.eph != 0:
			return wire.ErrNoChildrenForEphemerals
		case n.exists:
			return wire.ErrNodeExists
		}
		n = ovNode{exists: true}
		if op.Flags&wire.FlagEphemeral != 0 {
			n.eph = op.Session
		}
		parent.children++
		o.put(parentPath, parent)

	case TxnDelete:
		switch {
		case op.Path == "/":
			return wire.ErrBadArguments
		case !n.exists:
			return wire.ErrNoNode
		case op.Version != -1 && op.Version != n.version:
			return wire.ErrBadVersion
		case n.children > 0:
			return wire.ErrNotEmpty
		}
		n.exists = false
		parentPath, _ := SplitPath(op.Path)
		if parent := o.get(parentPath); parent.exists && parent.children > 0 {
			parent.children--
			o.put(parentPath, parent)
		}

	case TxnSetData:
		switch {
		case !n.exists:
			return wire.ErrNoNode
		case op.Version != -1 && op.Version != n.version:
			return wire.ErrBadVersion
		}
		n.version++
	}
	o.put(op.Path, n)
	return wire.ErrOK
}

// put records a path's state for the ops after this one, if any.
func (o *overlay) put(path string, n ovNode) {
	if o.nodes != nil {
		o.nodes[path] = n
	}
}

// watchFire is a deferred watch trigger, dispatched after unlock.
type watchFire struct {
	path string
	typ  wire.EventType
}

// apply is the tree's one write engine (see the top of this file). It
// validates and applies ops as one transaction under zxid. On the first
// failing op the tree is left untouched and apply returns that op's
// index and code; otherwise it returns ErrOK and, when out is not nil,
// fills out[i] with op i's result. The ops adopt their Data: the tree
// keeps each payload slice itself, so the caller must own it and never
// write to it again.
//
// A lone op's bookkeeping — its two shard indexes and two watch fires —
// stays on the stack.
func (t *Tree) apply(ops []Txn, zxid int64, out []TxnResult) (failed int, code wire.ErrCode) {
	var shardBuf [4]uint64
	shards := shardBuf[:0]
	for i := range ops {
		op := &ops[i]
		switch op.Type {
		case TxnCreate, TxnDelete:
			if op.Path == "" {
				continue // no parent: fails validation untouched
			}
			parentPath, _ := SplitPath(op.Path)
			shards = addShard(shards, t.shardIndex(parentPath))
			fallthrough
		case TxnSetData, TxnCheck:
			shards = addShard(shards, t.shardIndex(op.Path))
		}
	}
	for _, s := range shards {
		t.shards[s].mu.Lock()
	}

	ov := overlay{t: t}
	if len(ops) > 1 {
		ov.nodes = make(map[string]ovNode, len(ops))
	}
	for i := range ops {
		if code = ov.validate(&ops[i]); code != wire.ErrOK {
			t.unlockShards(shards)
			return i, code
		}
	}

	// Every op passed: apply them for real through the mutation cores.
	var fireBuf [2]watchFire
	fires := fireBuf[:0]
	for i := range ops {
		op := &ops[i]
		res := TxnResult{Zxid: zxid, Path: op.Path}
		switch op.Type {
		case TxnCheck:
			res.Stat = t.shardFor(op.Path).nodes[op.Path].stat
		case TxnCreate:
			parentPath, _ := SplitPath(op.Path)
			parent := t.shardFor(parentPath).nodes[parentPath]
			res.Stat = t.createNodeLocked(parent, op.Path, op.Data, op.Flags, op.Session, zxid)
			fires = append(fires,
				watchFire{op.Path, wire.EventNodeCreated},
				watchFire{parentPath, wire.EventNodeChildrenChanged})
		case TxnDelete:
			t.deleteNodeLocked(t.shardFor(op.Path).nodes[op.Path], op.Path, zxid)
			parentPath, _ := SplitPath(op.Path)
			fires = append(fires,
				watchFire{op.Path, wire.EventNodeDeleted},
				watchFire{parentPath, wire.EventNodeChildrenChanged})
		case TxnSetData:
			res.Stat = t.setNodeLocked(t.shardFor(op.Path).nodes[op.Path], op.Data, zxid)
			fires = append(fires, watchFire{op.Path, wire.EventNodeDataChanged})
		}
		if out != nil {
			out[i] = res
		}
	}
	t.unlockShards(shards)

	for _, f := range fires {
		t.watches.trigger(f.path, f.typ)
	}
	return -1, wire.ErrOK
}

// addShard adds shard index s to the ascending, duplicate-free list
// shards.
func addShard(shards []uint64, s uint64) []uint64 {
	if i, found := slices.BinarySearch(shards, s); !found {
		shards = slices.Insert(shards, i, s)
	}
	return shards
}

// unlockShards releases what apply locked, in reverse order.
func (t *Tree) unlockShards(shards []uint64) {
	for i := len(shards) - 1; i >= 0; i-- {
		t.shards[shards[i]].mu.Unlock()
	}
}
