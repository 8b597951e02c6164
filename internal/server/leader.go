package server

// The leader side of a write: the burst, which is the unit of work from
// a session reader to the proposal, the APP message that carries a
// follower's burst to the leader, the worker that proposes forwarded
// bursts, and the conversion of requests into transactions.

import (
	"errors"
	"fmt"
	"time"

	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/ztree"
)

// burst is the writes a session reader took from one receive — or the
// writes of one forwarded APP message, on the leader — on their way to
// agreement. A follower forwards a burst as one message; the leader
// preps it in one pass and then submits its writes one at a time, in
// order, back to back, so that they can share a PROPOSE batch. Its
// slices keep their arrays from one burst to the next, so a burst
// belongs to one goroutine.
type burst struct {
	writes []write
	txns   []ztree.Txn // the writes' transactions, while propose runs
}

// write is one write of a burst. body aliases the bytes it came in —
// the session's receive chunk, the entry enclave's burst of rewritten
// messages or the APP message — which outlive the burst's hand-on.
type write struct {
	op     wire.OpCode
	origin zab.Origin
	body   []byte
	// seq is the write's place in its session's ring (local bursts only).
	seq uint64
	// refused marks a write the burst's hand-on could not submit or send.
	refused bool
}

// reset empties the burst for the next one, dropping what its writes
// referenced.
func (b *burst) reset() {
	clear(b.writes)
	b.writes = b.writes[:0]
}

// refuseAll marks every write of writes refused.
func refuseAll(writes []write) {
	for i := range writes {
		writes[i].refused = true
	}
}

// handOn takes a burst's writes toward agreement: on the leader it
// proposes them (propose), anywhere else it forwards them to the leader,
// which alone submits to zab, in one APP message, or in messages of
// maxForwardWrites records, the most the leader's forward queue ever
// takes, if the burst is longer. (Sequential names are resolved on the
// leader's zab loop, per PROPOSE batch, and versions are checked when
// each replica applies the write.) It marks refused the writes it could
// not hand on: when there is no leader, or from the first message that
// cannot be sent on. Not for the zab loop goroutine: Submit round-trips
// through that loop.
func (r *Replica) handOn(b *burst) {
	if r.peer.Role() == zab.RoleLeading {
		r.propose(b)
		return
	}
	leader := r.peer.Leader()
	for ws := b.writes; len(ws) > 0; {
		n := min(len(ws), maxForwardWrites)
		if leader < 0 || r.peer.SendApp(zab.PeerID(leader), encodeForward(fwdRequest, ws[:n])) != nil {
			refuseAll(ws)
			return
		}
		ws = ws[n:]
	}
}

// propose preps every write of the burst and submits the writes one at
// a time, in order, marking refused those Submit turns down. The zab
// loop names the sequential creates among them (nameSequential). Runs
// on the leader.
func (r *Replica) propose(b *burst) {
	for i := range b.writes {
		w := &b.writes[i]
		b.txns = append(b.txns, r.prepTxn(w.op, w.body, w.origin.Session))
	}
	for i := range b.writes {
		if r.peer.Submit(b.txns[i], b.writes[i].origin) != nil {
			b.writes[i].refused = true
		}
	}
	clear(b.txns)
	b.txns = b.txns[:0]
}

// nameSequential gives every sequential create in a batch of the
// leader's proposals — a create of its own or a multi's sub-op — its
// number and its name, with one call of the SequenceAppender for the
// whole batch: one counter-enclave crossing on SecureKeeper. It is the
// zab loop's Prepare, called on each batch in zxid order, before the
// batch goes anywhere: numbers are handed out where zxids are, so under
// one parent they rise with zxid, as from ZooKeeper's one ordered
// PrepRequestProcessor — a lock recipe, which grants the lowest number,
// sees one holder. A name the appender refuses turns its create into an
// error transaction, as prepMulti's error sub-ops are: its ReqOp keeps
// the CREATE.
func (r *Replica) nameSequential(batch []zab.ProposalRecord) {
	for i := range batch {
		eachSequential(&batch[i].Txn, func(t *ztree.Txn) {
			parent, _ := ztree.SplitPath(t.Path)
			r.seqPaths = append(r.seqPaths, t.Path)
			r.seqNums = append(r.seqNums, r.nextSeq(parent))
		})
	}
	if len(r.seqPaths) == 0 {
		return
	}
	r.seqErrs = append(r.seqErrs[:0], make([]error, len(r.seqPaths))...)
	r.cfg.SeqAppend(r.seqPaths, r.seqNums, r.seqErrs)
	k := 0
	for i := range batch {
		eachSequential(&batch[i].Txn, func(t *ztree.Txn) {
			if r.seqErrs[k] == nil {
				t.Path = r.seqPaths[k]
			} else {
				*t = ztree.Txn{Type: ztree.TxnError, Err: wire.ErrMarshallingError, ReqOp: wire.OpCreate, Zxid: t.Zxid, Session: t.Session}
			}
			k++
		})
	}
	clear(r.seqPaths)
	clear(r.seqErrs)
	r.seqPaths, r.seqNums, r.seqErrs = r.seqPaths[:0], r.seqNums[:0], r.seqErrs[:0]
}

// eachSequential calls fn, in order, on every sequential create prep
// left unnamed in t: t itself, or a sub-op of its multi.
func eachSequential(t *ztree.Txn, fn func(t *ztree.Txn)) {
	if t.Type == ztree.TxnCreate && t.Flags&wire.FlagSequential != 0 {
		fn(t)
	}
	for i := range t.Subs {
		eachSequential(&t.Subs[i], fn)
	}
}

// maxForwardWrites bounds the forwarded writes queued for the forward
// worker; a burst that would take the queue past it is rejected whole.
const maxForwardWrites = 4096

// forwardWorker preps and proposes forwarded bursts strictly in arrival
// order (per-session FIFO depends on it). The writes of a burst this
// replica cannot propose — it is not the leader, or not yet activated —
// are REJECTED back to the origin rather than dropped: the origin stays
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
	var b burst
	for {
		select {
		case <-r.stop:
			return
		case <-retry.C:
			r.retryCloses()
		case payload := <-r.forwarded:
			// onForwarded has checked the payload: this decode succeeds.
			_, b.writes, _ = decodeForward(payload, b.writes)
			r.fwdQueued.Add(-int64(len(b.writes)))
			if r.peer.Role() == zab.RoleLeading {
				r.propose(&b)
			} else {
				refuseAll(b.writes)
			}
			r.reject(b.writes)
			b.reset()
		}
	}
}

// reject tells the origin replica of the refused writes among writes
// that they will never be proposed, so it fails their pending client
// calls (CONNECTIONLOSS; the client retries, exactly as on a ZooKeeper
// leader change), with one message of reject records: the writes of a
// forwarded burst come from one session. Writes of this replica's own
// are aborted here. Best-effort: if the reject is shed too, the
// origin's own role-change failure path remains the backstop.
func (r *Replica) reject(writes []write) {
	n := 0
	for _, w := range writes {
		if w.refused {
			writes[n] = w
			n++
		}
	}
	switch refused := writes[:n]; {
	case n == 0:
	case refused[0].origin.Peer == r.cfg.ID:
		for _, w := range refused {
			r.abortWrite(w.origin)
		}
	default:
		_ = r.peer.SendApp(refused[0].origin.Peer, encodeForward(fwdReject, refused))
	}
}

// onForwarded handles peer application messages: a follower's forwarded
// burst on the leader, or reject records back on the origin. Runs on the
// zab loop goroutine, where Submit would deadlock (it round-trips
// through the same loop): a burst goes to the ordered forward worker
// undecoded, once its records are counted against the queue's bound.
func (r *Replica) onForwarded(from zab.PeerID, payload []byte) {
	kind, n, err := walkForward(payload, nil)
	if err != nil {
		r.logf("server: replica %d: dropped app message from %d: %v", r.cfg.ID, from, err)
		return
	}
	if kind == fwdReject {
		_, _, _ = walkForward(payload, func(w write) { r.abortWrite(w.origin) })
		return
	}
	if r.fwdQueued.Add(int64(n)) <= maxForwardWrites {
		// Cannot block: every queued burst holds at least one of the
		// maxForwardWrites writes the channel has room for.
		r.forwarded <- payload
		return
	}
	// Queue full: reject the burst so the origin's clients get
	// CONNECTIONLOSS instead of hanging (SendApp is non-blocking, safe on
	// the zab loop).
	r.fwdQueued.Add(-int64(n))
	var b burst
	_, b.writes, _ = decodeForward(payload, nil)
	refuseAll(b.writes)
	r.reject(b.writes)
}

// App-message record kinds. An APP payload is one or more records of
// one kind, concatenated.
const (
	fwdRequest byte = 1 // follower -> leader: propose this write
	fwdReject  byte = 2 // leader -> origin: the write will not be proposed
)

// encodeForward returns the APP payload carrying writes as records of
// kind, in one allocation: each record is kind, origin and, for a
// request, the client's op code and request body.
func encodeForward(kind byte, writes []write) []byte {
	e := wire.GetEncoder()
	for i := range writes {
		w := &writes[i]
		_ = e.WriteByte(kind)
		w.origin.Serialize(e)
		if kind == fwdRequest {
			e.WriteInt32(int32(w.op))
			e.WriteBuffer(w.body)
		}
	}
	return wire.Detach(e)
}

// walkForward reads an APP payload's records in order, calls each (if
// not nil) on every record it read, and returns their kind and count. It
// accepts nothing encodeForward would not have produced: a payload
// without a record, a record of an unknown kind or of another kind than
// the first, or a malformed one is an error — once each has seen the
// records ahead of it. Request bodies alias the payload: the mesh
// decoded it into memory the message owns, and prep copies out of it
// what a transaction keeps.
func walkForward(payload []byte, each func(w write)) (kind byte, n int, err error) {
	var d wire.Decoder
	d.Reset(payload)
	d.SetZeroCopy(true)
	for ; d.Remaining() > 0; n++ {
		k := d.ReadUint8()
		if n == 0 {
			kind = k
		}
		if k != kind || k != fwdRequest && k != fwdReject {
			return kind, n, fmt.Errorf("server: app record %d of kind %d in a message of kind %d", n, k, kind)
		}
		var w write
		w.origin.Deserialize(&d)
		if k == fwdRequest {
			w.op = wire.OpCode(d.ReadInt32())
			w.body = d.ReadBuffer()
		}
		if d.Err() != nil {
			return kind, n, d.Err()
		}
		if each != nil {
			each(w)
		}
	}
	if n == 0 {
		return 0, 0, errors.New("server: app message without a record")
	}
	return kind, n, nil
}

// decodeForward appends an APP payload's records to writes, one at a
// time, as walkForward reads them.
func decodeForward(payload []byte, writes []write) (kind byte, _ []write, err error) {
	kind, _, err = walkForward(payload, func(w write) { writes = append(writes, w) })
	return kind, writes, err
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
// suffix of a sequential CREATE must resolve on the leader, and
// nameSequential merges it in for the whole burst at once.
func (r *Replica) opTxn(op wire.OpCode, path string, data []byte, version int32, flags wire.CreateFlags, sessionID int64) (ztree.Txn, wire.ErrCode) {
	txn := ztree.Txn{Path: path, Session: sessionID}
	switch op {
	case wire.OpCreate:
		if ztree.ValidatePath(path) != nil {
			return ztree.Txn{}, wire.ErrBadArguments
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

// nextSeq hands out the next sequence number under parent: the higher
// of the applied tree's and the leader's hint, which counts the numbers
// handed out and not yet applied (ZooKeeper's outstanding changes), so
// sequential creates never collide and numbers stay monotonic across
// leadership changes. Runs on the zab loop, which owns seqHint.
func (r *Replica) nextSeq(parent string) int32 {
	next, err := r.tree.NextSequence(parent)
	if err != nil {
		next = 0 // apply will fail deterministically with NoNode
	}
	next = max(next, r.seqHint[parent])
	r.seqHint[parent] = next + 1
	return next
}

// dropHints forgets the hint of each parent whose child txn created or
// deleted, once the applied tree's next number under it has reached the
// hint: every number handed out there lies below it, and the tree alone
// numbers what comes next. Runs on the zab loop, after apply.
func (r *Replica) dropHints(t *ztree.Txn) {
	switch t.Type {
	case ztree.TxnCreate, ztree.TxnDelete:
		parent, _ := ztree.SplitPath(t.Path)
		if hint, ok := r.seqHint[parent]; ok {
			if next, err := r.tree.NextSequence(parent); err == nil && next >= hint {
				delete(r.seqHint, parent)
			}
		}
	case ztree.TxnMulti:
		for i := range t.Subs {
			r.dropHints(&t.Subs[i])
		}
	}
}
