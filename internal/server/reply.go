package server

import (
	"errors"
	"strconv"
	"strings"

	"securekeeper/internal/obs"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/ztree"
)

// handleRead serves a read against the local tree. Called from the
// session's reader goroutine (the common path: nothing unanswered ahead
// of the read) or from its writer goroutine (a read that waited behind
// an earlier request of its session, executed when it reached the head
// of the FIFO). Several reads of *different* sessions run here in
// parallel; same-session execution stays ordered (see session). The
// tree's GetDataRef contract holds under this concurrency: payload
// slices are immutable once stored, and the serialization below is the
// copy at the session boundary.
func (r *Replica) handleRead(s *session, entry *inflightReq) []byte {
	r.readOps.Add(1)
	zxid := r.peer.LastCommitted()
	var d wire.Decoder
	d.Reset(entry.body)
	switch entry.op {
	case wire.OpGetData:
		var req wire.GetDataRequest
		if d.Finish(req.Deserialize(&d)) != nil {
			return errorReply(entry.xid, zxid, wire.ErrMarshallingError)
		}
		data, stat, err := r.tree.GetDataRef(req.Path)
		if err != nil {
			if req.Watch {
				r.tree.Watches().Add(req.Path, wire.WatchExist, s)
			}
			return errorReply(entry.xid, zxid, errCodeOf(err))
		}
		if req.Watch {
			r.tree.Watches().Add(req.Path, wire.WatchData, s)
		}
		e := beginReply(entry.xid, zxid, wire.ErrOK)
		resp := wire.GetDataResponse{Data: data, Stat: stat}
		resp.Serialize(e)
		return wire.Detach(e)

	case wire.OpExists:
		var req wire.ExistsRequest
		if d.Finish(req.Deserialize(&d)) != nil {
			return errorReply(entry.xid, zxid, wire.ErrMarshallingError)
		}
		stat, err := r.tree.Exists(req.Path)
		if req.Watch {
			kind := wire.WatchData
			if err != nil {
				kind = wire.WatchExist
			}
			r.tree.Watches().Add(req.Path, kind, s)
		}
		if err != nil {
			return errorReply(entry.xid, zxid, errCodeOf(err))
		}
		e := beginReply(entry.xid, zxid, wire.ErrOK)
		resp := wire.ExistsResponse{Stat: *stat}
		resp.Serialize(e)
		return wire.Detach(e)

	case wire.OpGetChildren:
		var req wire.GetChildrenRequest
		if d.Finish(req.Deserialize(&d)) != nil {
			return errorReply(entry.xid, zxid, wire.ErrMarshallingError)
		}
		children, err := r.tree.GetChildren(req.Path)
		if err != nil {
			return errorReply(entry.xid, zxid, errCodeOf(err))
		}
		if req.Watch {
			r.tree.Watches().Add(req.Path, wire.WatchChild, s)
		}
		e := beginReply(entry.xid, zxid, wire.ErrOK)
		resp := wire.GetChildrenResponse{Children: children}
		resp.Serialize(e)
		return wire.Detach(e)

	case wire.OpPing:
		return errorReply(wire.PingXid, zxid, wire.ErrOK)

	case wire.OpServerStats:
		r.mu.Lock()
		sessions := len(r.sessions)
		r.mu.Unlock()
		// Commit lag: how far the leader's commit bound has run ahead of
		// what this replica applied. Zero on the leader; on a stalled
		// observer it grows with every commit it misses, which is the
		// signal the client's Nearest routing avoids.
		lag := r.peer.LeaderCommitted() - zxid
		if lag < 0 {
			lag = 0
		}
		var kvs []wire.KV
		if r.cfg.Obs != nil {
			snap := r.cfg.Obs.Mntr()
			kvs = make([]wire.KV, len(snap))
			for i, kv := range snap {
				kvs[i] = wire.KV{Key: kv.Key, Value: kv.Value}
			}
		}
		e := beginReply(entry.xid, zxid, wire.ErrOK)
		resp := wire.ServerStatsResponse{
			Role:          r.peer.Role().String(),
			Leader:        int64(r.peer.Leader()),
			Zxid:          zxid,
			Sessions:      int32(sessions),
			Watches:       int32(r.tree.Watches().Count()),
			Outstanding:   int32(r.peer.OutstandingDepth()),
			UptimeSeconds: obs.Uptime(),
			CommitLag:     lag,
			Ensemble:      r.ensembleString(),
			Metrics:       kvs,
		}
		resp.Serialize(e)
		return wire.Detach(e)

	default:
		return errorReply(entry.xid, zxid, wire.ErrUnimplemented)
	}
}

// buildWriteResponse renders the reply message for a completed write.
// The committed transaction is consulted for multi responses, whose
// per-op results must echo each sub-op's code even when the whole
// transaction aborted.
func (r *Replica) buildWriteResponse(txn *ztree.Txn, op wire.OpCode, xid int32, res *ztree.TxnResult) []byte {
	e := beginReply(xid, res.Zxid, res.Err)
	switch {
	case op == wire.OpMulti:
		// Multi replies carry their per-op result body even on abort:
		// the header's error is the failing sub-op's code and the body
		// tells the client which sub-op failed.
		buildMultiResponse(txn, res).Serialize(e)
	case res.Err != wire.ErrOK:
		// Error replies carry no body.
	case op == wire.OpCreate:
		resp := wire.CreateResponse{Path: res.Path}
		resp.Serialize(e)
	case op == wire.OpSetData:
		resp := wire.SetDataResponse{Stat: res.Stat}
		resp.Serialize(e)
	case op == wire.OpSync:
		resp := wire.SyncResponse{Path: res.Path}
		resp.Serialize(e)
	case op == wire.OpReconfig:
		// The zab layer applied the membership change before handing the
		// commit down, so this reads the post-change ensemble.
		resp := wire.ReconfigResponse{Zxid: res.Zxid, Ensemble: r.ensembleString()}
		resp.Serialize(e)
	}
	// DELETE and CLOSE replies are the header alone.
	return wire.Detach(e)
}

// beginReply starts a reply message: a pooled encoder holding the
// header. The caller serializes the body, if the reply has one, with a
// concrete call — header and body records then stay on the stack — and
// ends with wire.Detach.
func beginReply(xid int32, zxid int64, code wire.ErrCode) *wire.Encoder {
	hdr := wire.ReplyHeader{Xid: xid, Zxid: zxid, Err: code}
	e := wire.GetEncoder()
	hdr.Serialize(e)
	return e
}

// ensembleString renders the live membership for admin responses, e.g.
// "voters=1,2,3 observers=4".
func (r *Replica) ensembleString() string {
	voters, observers := r.peer.Membership()
	return "voters=" + joinIDs(voters) + " observers=" + joinIDs(observers)
}

func joinIDs(ids []zab.PeerID) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(id), 10))
	}
	return b.String()
}

// buildMultiResponse renders per-op results from a TxnMulti outcome.
func buildMultiResponse(txn *ztree.Txn, res *ztree.TxnResult) *wire.MultiResponse {
	out := &wire.MultiResponse{Results: make([]wire.MultiOpResult, len(res.Subs))}
	for i := range res.Subs {
		sr := &res.Subs[i]
		mr := wire.MultiOpResult{Err: sr.Err}
		if i < len(txn.Subs) {
			switch txn.Subs[i].Type {
			case ztree.TxnCheck:
				mr.Op = wire.OpCheck
			case ztree.TxnCreate:
				mr.Op = wire.OpCreate
			case ztree.TxnDelete:
				mr.Op = wire.OpDelete
			case ztree.TxnSetData:
				mr.Op = wire.OpSetData
			default:
				// TxnError: prep recorded the original op in ReqOp.
				mr.Op = txn.Subs[i].ReqOp
				if mr.Op != wire.OpCheck && mr.Op != wire.OpCreate &&
					mr.Op != wire.OpDelete && mr.Op != wire.OpSetData {
					mr.Op = wire.OpCheck
				}
			}
		}
		if sr.Err == wire.ErrOK {
			if mr.Op == wire.OpCreate {
				mr.Path = sr.Path
			}
			mr.Stat = sr.Stat
		}
		out.Results[i] = mr
	}
	return out
}

// errorReply renders a reply that is its header alone.
func errorReply(xid int32, zxid int64, code wire.ErrCode) []byte {
	return wire.Detach(beginReply(xid, zxid, code))
}

func errCodeOf(err error) wire.ErrCode {
	var pe *wire.ProtocolError
	if errors.As(err, &pe) {
		return pe.Code
	}
	return wire.ErrSystemError
}
