package server

// The leader side of a write: forwarded requests, the worker that
// proposes them, and the conversion of a request into a transaction.

import (
	"fmt"
	"time"

	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/ztree"
)

// forwardWorker preps and proposes forwarded writes strictly in arrival
// order (per-session FIFO depends on it). A forwarded write this
// replica cannot propose — it is not the leader, or not yet activated —
// is REJECTED back to the origin rather than dropped: the origin stays
// FOLLOWING throughout a normal leader handover, so it would never
// fail the pending client call on a role change, and the client would
// hang forever on a silently shed request (observed in the
// multi-process failover harness).
//
// As the replica's one standing goroutine that may call Submit, it also
// runs retryCloses.
func (r *Replica) forwardWorker() {
	defer r.wg.Done()
	retry := time.NewTicker(closeRetryInterval)
	defer retry.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-retry.C:
			r.retryCloses()
		case req := <-r.forwarded:
			if r.peer.Role() != zab.RoleLeading ||
				r.peer.Submit(r.prepTxn(req.op, req.body, req.origin.Session), req.origin) != nil {
				r.rejectForward(req.origin)
			}
		}
	}
}

// rejectForward tells the origin replica a forwarded write will never
// be proposed, so it fails the pending client call (CONNECTIONLOSS;
// the client retries, exactly as on a ZooKeeper leader change).
// Best-effort: if the reject is shed too, the origin's own role-change
// failure path remains the backstop.
func (r *Replica) rejectForward(origin zab.Origin) {
	if origin.Peer == r.cfg.ID {
		r.abortWrite(origin)
		return
	}
	_ = r.peer.SendApp(origin.Peer, forwardMsg{kind: fwdReject, origin: origin}.encode())
}

// onForwarded handles peer application messages: a follower's
// forwarded write on the leader, or a reject notification back on the
// origin. Runs on the zab loop goroutine; Submit would deadlock there
// (it round-trips through the same loop), so requests are queued to
// the ordered forward worker.
func (r *Replica) onForwarded(from zab.PeerID, payload []byte) {
	msg, err := decodeForward(payload)
	if err != nil {
		r.logf("server: replica %d: dropped app message from %d: %v", r.cfg.ID, from, err)
		return
	}
	if msg.kind == fwdReject {
		r.abortWrite(msg.origin)
		return
	}
	select {
	case r.forwarded <- msg:
	default:
		// Queue full: reject so the origin's client gets
		// CONNECTIONLOSS instead of hanging (SendApp is
		// non-blocking, safe on the zab loop).
		r.rejectForward(msg.origin)
	}
}

// App-message kinds tunneled between replicas.
const (
	fwdRequest byte = 1 // follower -> leader: propose this write
	fwdReject  byte = 2 // leader -> origin: the write will not be proposed
)

// forwardMsg is a tunneled message: kind, origin and, for a request,
// the client's op code and request body.
type forwardMsg struct {
	kind   byte
	op     wire.OpCode
	origin zab.Origin
	body   []byte
}

func (m forwardMsg) encode() []byte {
	e := wire.GetEncoder()
	_ = e.WriteByte(m.kind)
	m.origin.Serialize(e)
	if m.kind == fwdRequest {
		e.WriteInt32(int32(m.op))
		e.WriteBuffer(m.body)
	}
	return wire.Detach(e)
}

// decodeForward parses a tunneled message and accepts nothing encode
// would not have produced. The request body it returns aliases buf: the
// mesh decoded the APP payload into memory the message owns, and prep
// copies out of it what the transaction keeps.
func decodeForward(buf []byte) (forwardMsg, error) {
	var d wire.Decoder
	d.Reset(buf)
	d.SetZeroCopy(true)
	m := forwardMsg{kind: d.ReadUint8()}
	m.origin.Deserialize(&d)
	switch m.kind {
	case fwdReject:
	case fwdRequest:
		m.op = wire.OpCode(d.ReadInt32())
		m.body = d.ReadBuffer()
	default:
		if d.Err() == nil {
			return m, fmt.Errorf("server: forward of unknown kind %d", m.kind)
		}
	}
	return m, d.Finish(nil)
}

// prepTxn validates a write into a transaction; validation failures
// become committed error transactions so the per-session FIFO order
// still produces a reply.
func (r *Replica) prepTxn(op wire.OpCode, body []byte, sessionID int64) ztree.Txn {
	txn, perr := r.prep(op, body, sessionID)
	if perr != wire.ErrOK {
		return ztree.Txn{Type: ztree.TxnError, Err: perr, Session: sessionID}
	}
	return txn
}

// prep validates a write and resolves it into a deterministic
// transaction (the PrepRequestProcessor). Runs on the leader.
//
// This decode is where a write's bytes change owner: body still lies in
// the session's receive chunk (or the entry enclave's burst of rewritten
// messages), and the transaction gets its own exactly-sized Path and
// Data, immutable from here on — commit log, WAL encoder and tree all
// share them. Each request record is decoded by a concrete call, so it
// and the decoder stay on this stack.
func (r *Replica) prep(op wire.OpCode, body []byte, sessionID int64) (ztree.Txn, wire.ErrCode) {
	var d wire.Decoder
	d.Reset(body)
	switch op {
	case wire.OpCreate:
		var req wire.CreateRequest
		if d.Finish(req.Deserialize(&d)) != nil {
			return ztree.Txn{}, wire.ErrMarshallingError
		}
		return r.opTxn(op, req.Path, req.Data, 0, req.Flags, sessionID)

	case wire.OpSetData:
		var req wire.SetDataRequest
		if d.Finish(req.Deserialize(&d)) != nil {
			return ztree.Txn{}, wire.ErrMarshallingError
		}
		return r.opTxn(op, req.Path, req.Data, req.Version, 0, sessionID)

	case wire.OpDelete:
		var req wire.DeleteRequest
		if d.Finish(req.Deserialize(&d)) != nil {
			return ztree.Txn{}, wire.ErrMarshallingError
		}
		return r.opTxn(op, req.Path, nil, req.Version, 0, sessionID)

	case wire.OpSync:
		var req wire.SyncRequest
		if d.Finish(req.Deserialize(&d)) != nil {
			return ztree.Txn{}, wire.ErrMarshallingError
		}
		return ztree.Txn{Type: ztree.TxnSync, Path: req.Path, Session: sessionID}, wire.ErrOK

	case wire.OpMulti:
		var req wire.MultiRequest
		if d.Finish(req.Deserialize(&d)) != nil {
			return ztree.Txn{}, wire.ErrMarshallingError
		}
		return r.prepMulti(&req, sessionID)

	case wire.OpCloseSession:
		return ztree.Txn{Type: ztree.TxnCloseSession, Session: sessionID}, wire.ErrOK

	case wire.OpReconfig:
		var req wire.ReconfigRequest
		if d.Finish(req.Deserialize(&d)) != nil {
			return ztree.Txn{}, wire.ErrMarshallingError
		}
		action, err := zab.ParseReconfigAction(req.Action)
		if err != nil {
			return ztree.Txn{}, wire.ErrBadArguments
		}
		ch := zab.ReconfigChange{Action: action, ID: zab.PeerID(req.ID), Addr: req.Addr}
		// Leader-side admission: stale or unsafe changes (unknown peer,
		// unsynced joiner, last voter) are refused before they reach the
		// log. A change that races another reconfig past this check
		// degrades to an idempotent no-op at delivery.
		if err := r.peer.ValidateReconfig(ch); err != nil {
			r.logf("server: replica %d: reconfig %s %d rejected: %v", r.cfg.ID, req.Action, req.ID, err)
			return ztree.Txn{}, wire.ErrBadArguments
		}
		r.logf("server: replica %d: proposing reconfig %s %d %s", r.cfg.ID, req.Action, req.ID, req.Addr)
		return ztree.Txn{Type: ztree.TxnReconfig, Data: ch.Encode(), Session: sessionID}, wire.ErrOK

	default:
		return ztree.Txn{}, wire.ErrUnimplemented
	}
}

// opTxn resolves one CREATE, SET, DELETE or CHECK — a request of its
// own or a sub-op of a multi — into its transaction. Versions, existence
// and the paths of everything but a CREATE are checked by the tree at
// apply time, deterministically on every replica; only the sequence
// suffix of a sequential CREATE must resolve here, on the leader.
func (r *Replica) opTxn(op wire.OpCode, path string, data []byte, version int32, flags wire.CreateFlags, sessionID int64) (ztree.Txn, wire.ErrCode) {
	txn := ztree.Txn{Path: path, Session: sessionID}
	switch op {
	case wire.OpCreate:
		if ztree.ValidatePath(path) != nil {
			return ztree.Txn{}, wire.ErrBadArguments
		}
		if flags&wire.FlagSequential != 0 {
			parent, _ := ztree.SplitPath(path)
			var err error
			if txn.Path, err = r.cfg.SeqAppend(path, r.nextSeq(parent)); err != nil {
				return ztree.Txn{}, wire.ErrMarshallingError
			}
		}
		txn.Type, txn.Data, txn.Flags = ztree.TxnCreate, data, flags
	case wire.OpSetData:
		txn.Type, txn.Data, txn.Version = ztree.TxnSetData, data, version
	case wire.OpDelete:
		txn.Type, txn.Version = ztree.TxnDelete, version
	case wire.OpCheck:
		txn.Type, txn.Version = ztree.TxnCheck, version
	default:
		return ztree.Txn{}, wire.ErrUnimplemented
	}
	return txn, wire.ErrOK
}

// prepMulti resolves a MultiRequest into one TxnMulti of opTxn's
// transactions, so the result applies deterministically on every
// replica. A sub-op opTxn refuses becomes a TxnError sub-op — the tree
// aborts the whole multi on it, preserving per-op results and the
// all-or-nothing contract — and its ReqOp keeps the original op code
// for the per-op result body.
func (r *Replica) prepMulti(req *wire.MultiRequest, sessionID int64) (ztree.Txn, wire.ErrCode) {
	if len(req.Ops) == 0 || len(req.Ops) > wire.MaxMultiOps {
		return ztree.Txn{}, wire.ErrBadArguments
	}
	subs := make([]ztree.Txn, len(req.Ops))
	for i := range req.Ops {
		op := &req.Ops[i]
		var code wire.ErrCode
		if subs[i], code = r.opTxn(op.Op, op.Path, op.Data, op.Version, op.Flags, sessionID); code != wire.ErrOK {
			subs[i] = ztree.Txn{Type: ztree.TxnError, Err: code, ReqOp: op.Op, Session: sessionID}
		}
	}
	return ztree.Txn{Type: ztree.TxnMulti, Session: sessionID, Subs: subs}, wire.ErrOK
}

// nextSeq allocates the next sequence number for a parent: the maximum
// of the applied child version and the leader's outstanding hint, so
// concurrent sequential creates never collide and numbers stay
// monotonic across leadership changes.
func (r *Replica) nextSeq(parent string) int32 {
	applied, err := r.tree.NextSequence(parent)
	if err != nil {
		applied = 0 // apply will fail deterministically with NoNode
	}
	r.seqMu.Lock()
	defer r.seqMu.Unlock()
	next := r.seqHint[parent]
	if applied > next {
		next = applied
	}
	r.seqHint[parent] = next + 1
	return next
}
