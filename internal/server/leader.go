package server

// The leader side of a write: the burst, which is the unit of work from
// a session reader to the proposal, the APP message that carries a
// follower's burst to the leader, the worker that proposes forwarded
// bursts, and the conversion of requests into transactions.

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"time"

	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/ztree"
)

// burst is the writes a session reader took from one receive — or the
// writes of one forwarded APP message, on the leader — on their way to
// agreement. A follower forwards a burst as one message; the leader
// preps it in one pass, with one counter-enclave crossing for every
// sequential name it needs, and then submits its writes one at a time,
// in order. Its slices keep their arrays from one burst to the next, so
// a burst belongs to one goroutine.
type burst struct {
	writes []write
	txns   []ztree.Txn // the writes' transactions, while propose runs

	// The sequential names of the burst, while nameSequential runs: the
	// paths to merge a number into and the numbers, in burst order.
	paths []string
	nums  []int32
	errs  []error
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
// proposes them (propose), anywhere else it forwards them to the leader
// — sequential names and version checks must resolve against the
// leader's outstanding state, exactly as ZooKeeper's PrepRequestProcessor
// runs on the leader — in one APP message, or in messages of
// maxForwardWrites records, the most the leader's forward queue ever
// takes, if the burst is longer. It marks refused the writes it could
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

// propose preps every write of the burst, names its sequential creates
// (nameSequential) and submits the writes one at a time, in order,
// marking refused those Submit turns down. The sequence stripes the
// naming took stay held until the last Submit has returned, so that
// under one parent numbers are proposed in the order they were handed
// out. Runs on the leader.
func (r *Replica) propose(b *burst) {
	for i := range b.writes {
		w := &b.writes[i]
		b.txns = append(b.txns, r.prepTxn(w.op, w.body, w.origin.Session))
	}
	held := r.nameSequential(b)
	for i := range b.writes {
		if r.peer.Submit(b.txns[i], b.writes[i].origin) != nil {
			b.writes[i].refused = true
		}
	}
	r.unlockStripes(held)
	clear(b.txns)
	b.txns = b.txns[:0]
}

// seqStripes is how many locks order the leader's sequential creates,
// striped by parent path (see nameSequential).
const seqStripes = 64

// nameSequential gives every sequential create in the burst's
// transactions — a create of its own or a multi's sub-op — its number
// and its name, with one call of the SequenceAppender for the whole
// burst: one counter-enclave crossing on SecureKeeper. A name the
// appender refuses turns its create into an error transaction, as
// prepMulti's error sub-ops are: its ReqOp keeps the CREATE.
//
// ZooKeeper hands out numbers and proposes in one ordered
// PrepRequestProcessor; here every session reader on the leader and the
// forward worker prep and submit their own bursts, so a number handed
// out earlier could be proposed later and a lock recipe, which grants
// the lowest number, would see a second holder. The stripe of each
// parent the burst names under is locked from before its first number
// to after its last Submit (propose unlocks held), in index order, so
// under one parent numbers are proposed in the order they were handed
// out. This cannot deadlock: stripes are always taken in index order,
// the zab loop — which every Submit waits on — never takes one, and
// Peer.Stop releases a Submit that waits.
func (r *Replica) nameSequential(b *burst) (held uint64) {
	eachSequential(b.txns, func(t *ztree.Txn) {
		parent, _ := ztree.SplitPath(t.Path)
		held |= 1 << r.seqStripe(parent)
	})
	if held == 0 {
		return 0
	}
	for m := held; m != 0; m &= m - 1 {
		r.seqOrder[bits.TrailingZeros64(m)].Lock()
	}
	eachSequential(b.txns, func(t *ztree.Txn) {
		parent, _ := ztree.SplitPath(t.Path)
		b.paths = append(b.paths, t.Path)
		b.nums = append(b.nums, r.nextSeq(parent))
	})
	b.errs = append(b.errs[:0], make([]error, len(b.paths))...)
	r.cfg.SeqAppend(b.paths, b.nums, b.errs)
	k := 0
	eachSequential(b.txns, func(t *ztree.Txn) {
		if b.errs[k] == nil {
			t.Path = b.paths[k]
		} else {
			*t = ztree.Txn{Type: ztree.TxnError, Err: wire.ErrMarshallingError, ReqOp: wire.OpCreate, Session: t.Session}
		}
		k++
	})
	clear(b.paths)
	clear(b.errs)
	b.paths, b.nums, b.errs = b.paths[:0], b.nums[:0], b.errs[:0]
	return held
}

// eachSequential calls fn, in burst order, on every sequential create
// prep left unnamed: a transaction of its own, or a multi's sub-op.
func eachSequential(txns []ztree.Txn, fn func(t *ztree.Txn)) {
	for i := range txns {
		t := &txns[i]
		if sequential(t) {
			fn(t)
		}
		for j := range t.Subs {
			if sequential(&t.Subs[j]) {
				fn(&t.Subs[j])
			}
		}
	}
}

func sequential(t *ztree.Txn) bool {
	return t.Type == ztree.TxnCreate && t.Flags&wire.FlagSequential != 0
}

// seqStripe is the index of parent's sequence stripe.
func (r *Replica) seqStripe(parent string) uint {
	return uint(maphash.String(r.seqSeed, parent) % seqStripes)
}

// unlockStripes releases the sequence stripes nameSequential took.
func (r *Replica) unlockStripes(held uint64) {
	for m := held; m != 0; m &= m - 1 {
		r.seqOrder[bits.TrailingZeros64(m)].Unlock()
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
