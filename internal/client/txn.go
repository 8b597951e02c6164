package client

import (
	"context"

	"securekeeper/internal/wire"
)

// Txn accumulates the sub-operations of one atomic multi-op
// transaction. Build it fluently and commit:
//
//	results, err := cl.Txn().
//		Check("/config", version).
//		Set("/config/db", data, -1).
//		Create("/config/changelog-", entry, wire.FlagSequential).
//		Commit(ctx)
//
// Either every sub-op commits under ONE zxid, or none does: the first
// failing sub-op (version mismatch, missing node, ...) aborts the
// whole transaction with the tree untouched, and the returned results
// report per-op outcomes — the failing op its own error code, the
// others wire.ErrRuntimeInconsistency. Check turns classic racy
// read-modify-write sequences into atomic compare-and-commit.
type Txn struct {
	c   *Client
	ops []wire.MultiOp
}

// Txn starts a new transaction builder.
func (c *Client) Txn() *Txn { return &Txn{c: c} }

// Check asserts path exists and, for version >= 0, that its data
// version matches; otherwise the transaction aborts.
func (t *Txn) Check(path string, version int32) *Txn {
	t.ops = append(t.ops, wire.MultiOp{Op: wire.OpCheck, Path: path, Version: version})
	return t
}

// Create adds a znode creation.
func (t *Txn) Create(path string, data []byte, flags wire.CreateFlags) *Txn {
	t.ops = append(t.ops, wire.MultiOp{Op: wire.OpCreate, Path: path, Data: data, Flags: flags})
	return t
}

// Delete adds a znode removal; version -1 matches any version.
func (t *Txn) Delete(path string, version int32) *Txn {
	t.ops = append(t.ops, wire.MultiOp{Op: wire.OpDelete, Path: path, Version: version})
	return t
}

// Set adds a payload replacement; version -1 matches any version.
func (t *Txn) Set(path string, data []byte, version int32) *Txn {
	t.ops = append(t.ops, wire.MultiOp{Op: wire.OpSetData, Path: path, Data: data, Version: version})
	return t
}

// Commit submits the transaction as one atomic multi. On success the
// error is nil and every result is OK; on abort the error is the
// failing sub-op's protocol error and the results identify it. Either
// way the results slice parallels the built op list.
func (t *Txn) Commit(ctx context.Context) ([]wire.MultiOpResult, error) {
	return t.c.Multi(ctx, t.ops)
}
