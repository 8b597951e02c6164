package ztree

import "securekeeper/internal/wire"

// This file is the tree's one write engine. Every write is a
// transaction of ops: a lone create, delete, set or check is a
// transaction of one op, a TxnMulti one of its subs, a session's close
// one delete per ephemeral node. apply takes the tree's write lock; it
// checks every op with the one rule function, validate, against an
// overlay of what the transaction's earlier ops did; then it applies
// every op under the transaction's zxid, or none, and takes the
// watchers its changes fire before it unlocks. No reader sees a
// transaction half applied, no read sets a watch between a change and
// the taking, and the watchers are notified after the lock is released.

// ovNode is one path's state as the transaction's earlier ops left it.
type ovNode struct {
	exists   bool
	version  int32
	children int32
	eph      int64
}

// overlay is the tree as the ops validated so far would leave it, read
// through from the real tree on a path's first use, under apply's write
// lock. Only later ops read what an op records, so a lone op's overlay
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
	real, ok := o.t.nodes[path]
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

// apply is the tree's one write engine (see the top of this file). It
// validates and applies ops as one transaction under zxid. On the first
// failing op the tree is left untouched and apply returns that op's
// index and code; otherwise it returns ErrOK and, when out is not nil,
// fills out[i] with op i's result. The ops adopt their Data: the tree
// keeps each payload slice itself, so the caller must own it and never
// write to it again.
//
// A lone op's two watch fires stay on the stack.
func (t *Tree) apply(ops []Txn, zxid int64, out []TxnResult) (failed int, code wire.ErrCode) {
	t.mu.Lock()
	ov := overlay{t: t}
	if len(ops) > 1 {
		ov.nodes = make(map[string]ovNode, len(ops))
	}
	for i := range ops {
		if code = ov.validate(&ops[i]); code != wire.ErrOK {
			t.mu.Unlock()
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
			res.Stat = t.nodes[op.Path].stat
		case TxnCreate:
			parentPath, _ := SplitPath(op.Path)
			res.Stat = t.createNodeLocked(t.nodes[parentPath], op.Path, op.Data, op.Flags, op.Session, zxid)
			fires = append(fires,
				watchFire{path: op.Path, typ: wire.EventNodeCreated},
				watchFire{path: parentPath, typ: wire.EventNodeChildrenChanged})
		case TxnDelete:
			t.deleteNodeLocked(t.nodes[op.Path], op.Path, zxid)
			parentPath, _ := SplitPath(op.Path)
			fires = append(fires,
				watchFire{path: op.Path, typ: wire.EventNodeDeleted},
				watchFire{path: parentPath, typ: wire.EventNodeChildrenChanged})
		case TxnSetData:
			res.Stat = t.setNodeLocked(t.nodes[op.Path], op.Data, zxid)
			fires = append(fires, watchFire{path: op.Path, typ: wire.EventNodeDataChanged})
		}
		if out != nil {
			out[i] = res
		}
	}
	fired := t.watches.take(fires)
	t.mu.Unlock()

	t.watches.notify(fires, fired)
	return -1, wire.ErrOK
}
