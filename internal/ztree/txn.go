package ztree

import (
	"fmt"

	"securekeeper/internal/wire"
)

// TxnType identifies the kind of committed transaction.
type TxnType int32

// Transaction types.
const (
	TxnCreate TxnType = iota + 1
	TxnDelete
	TxnSetData
	TxnCloseSession
	TxnSync  // no-op transaction giving SYNC its linearization point
	TxnError // a write that failed validation; committed so FIFO order holds
	TxnCheck // version assertion; only meaningful as a sub-op of TxnMulti
	TxnMulti // atomic multi-op transaction: Subs applied all-or-nothing
	// TxnReconfig carries an ensemble-membership change (zab.
	// ReconfigChange, encoded in Data). The tree never changes: the
	// broadcast layer intercepts the commit and applies the membership
	// switch at this txn's zxid, which is what makes quorum changes
	// atomic across the ensemble.
	TxnReconfig
)

// MaxMultiSubs bounds the sub-transactions of one TxnMulti on the
// decode side. It IS wire.MaxMultiOps — the leader preps one sub-txn
// per accepted multi op, so a second independent literal could drift
// and make followers reject committed proposal frames.
const MaxMultiSubs = wire.MaxMultiOps

// validSubType reports whether a TxnType may appear inside a TxnMulti.
func validSubType(t TxnType) bool {
	switch t {
	case TxnCreate, TxnDelete, TxnSetData, TxnCheck, TxnError:
		return true
	default:
		return false
	}
}

// Txn is a deterministic state-machine command. The leader validates
// client requests, converts them to Txns (resolving sequential-node
// names and versions), and the broadcast layer commits identical Txns on
// every replica.
type Txn struct {
	Zxid    int64
	Type    TxnType
	Path    string // final path (sequence number already appended)
	Data    []byte
	Flags   wire.CreateFlags
	Version int32
	Session int64
	Err     wire.ErrCode // for TxnError: the validation error to report
	// ReqOp records the client op code a TxnError sub-transaction was
	// prepped from, so the multi response can still label the per-op
	// result correctly. Zero elsewhere.
	ReqOp wire.OpCode
	// Subs are the sub-transactions of a TxnMulti, applied atomically
	// in order under the parent's Zxid. Sub-transactions must be flat:
	// nesting is rejected structurally (their Subs never serialize).
	Subs []Txn
}

// serializeBase writes the flat fields shared by top-level and sub
// transactions; Subs are handled only at the top level, which is what
// makes nested multis unrepresentable on the wire.
func (t *Txn) serializeBase(e *wire.Encoder) {
	e.WriteInt64(t.Zxid)
	e.WriteInt32(int32(t.Type))
	e.WriteString(t.Path)
	e.WriteBuffer(t.Data)
	e.WriteInt32(int32(t.Flags))
	e.WriteInt32(t.Version)
	e.WriteInt64(t.Session)
	e.WriteInt32(int32(t.Err))
	e.WriteInt32(int32(t.ReqOp))
}

func (t *Txn) deserializeBase(d *wire.Decoder) error {
	t.Zxid = d.ReadInt64()
	t.Type = TxnType(d.ReadInt32())
	t.Path = d.ReadString()
	t.Data = d.ReadBuffer()
	t.Flags = wire.CreateFlags(d.ReadInt32())
	t.Version = d.ReadInt32()
	t.Session = d.ReadInt64()
	t.Err = wire.ErrCode(d.ReadInt32())
	t.ReqOp = wire.OpCode(d.ReadInt32())
	return d.Err()
}

// Serialize implements wire.Record.
func (t *Txn) Serialize(e *wire.Encoder) {
	t.serializeBase(e)
	e.WriteInt32(int32(len(t.Subs)))
	for i := range t.Subs {
		t.Subs[i].serializeBase(e)
	}
}

// Deserialize implements wire.Record.
func (t *Txn) Deserialize(d *wire.Decoder) error {
	t.deserializeBase(d)
	n := d.ReadInt32()
	if d.Err() != nil {
		return d.Err()
	}
	if n < 0 || n > MaxMultiSubs {
		return fmt.Errorf("ztree: txn sub count %d out of range [0, %d]", n, MaxMultiSubs)
	}
	if n > 0 && t.Type != TxnMulti {
		return fmt.Errorf("ztree: sub-transactions on non-multi txn type %d", t.Type)
	}
	t.Subs = nil
	if n == 0 {
		return nil
	}
	t.Subs = make([]Txn, n)
	for i := range t.Subs {
		if err := t.Subs[i].deserializeBase(d); err != nil {
			return err
		}
		if !validSubType(t.Subs[i].Type) {
			return fmt.Errorf("ztree: invalid multi sub-txn type %d", t.Subs[i].Type)
		}
	}
	return nil
}

// TxnResult is the outcome of applying a transaction. It travels by
// value: Stat is meaningful when Err is ErrOK and the transaction type
// yields one (create, set, check), zero otherwise.
type TxnResult struct {
	Zxid    int64
	Err     wire.ErrCode
	Stat    wire.Stat
	Path    string   // created path for TxnCreate
	Deleted []string // ephemeral paths removed by TxnCloseSession
	// Subs carries one result per sub-transaction of a TxnMulti, in
	// order. On an aborted multi every sub has a non-OK code: the
	// failing sub its own, the rest ErrRuntimeInconsistency.
	Subs []TxnResult
}

// Apply executes a committed transaction against the tree. Apply is
// deterministic: given the same tree state and Txn, every replica
// produces the same result. Every write goes through the one engine,
// apply: a create, delete, set or check as a transaction of one op, a
// multi with its subs, a session's close with its ephemerals' deletes.
//
// A multi is all-or-nothing: on the first failing sub the tree is
// untouched, that sub reports its own code and every other sub
// ErrRuntimeInconsistency (ZooKeeper's multi error convention).
//
// The tree adopts txn.Data instead of copying it: a transaction's
// payload is exact-size, owned by the transaction and immutable from
// Submit or decode on, the contract GetDataRef documents for stored
// payloads. A set, delete, check, sync or error transaction allocates
// nothing here; a create allocates the inserted node.
func (t *Tree) Apply(txn *Txn) TxnResult {
	res := TxnResult{Zxid: txn.Zxid, Path: txn.Path}
	switch txn.Type {
	case TxnCreate, TxnDelete, TxnSetData, TxnCheck:
		var out [1]TxnResult // left zero when the op fails
		_, res.Err = t.apply([]Txn{*txn}, txn.Zxid, out[:])
		res.Stat = out[0].Stat
	case TxnCloseSession:
		res.Deleted = t.KillSession(txn.Session, txn.Zxid)
	case TxnSync:
		// No state change; the commit itself is the synchronization.
	case TxnReconfig:
		// No tree change; the broadcast layer consumes the membership
		// payload at delivery.
	case TxnError:
		res.Err = txn.Err
	case TxnMulti:
		res = TxnResult{Zxid: txn.Zxid, Subs: make([]TxnResult, len(txn.Subs))}
		failed, code := t.apply(txn.Subs, txn.Zxid, res.Subs)
		if code != wire.ErrOK {
			for i := range res.Subs {
				res.Subs[i] = TxnResult{Zxid: txn.Zxid, Err: wire.ErrRuntimeInconsistency}
			}
			res.Subs[failed].Err = code
			res.Err = code
		}
	default:
		res.Err = wire.ErrUnimplemented
	}
	return res
}

// String renders the txn for logs.
func (t *Txn) String() string {
	return fmt.Sprintf("txn{zxid=%#x type=%d path=%q len=%d}", t.Zxid, t.Type, t.Path, len(t.Data))
}
