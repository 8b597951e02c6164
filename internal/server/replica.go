// Package server implements a replica of the coordination service: it
// combines the znode database (ztree), the atomic broadcast protocol
// (zab), session management with per-session FIFO ordering, and the
// request-processor pipeline. Reads are served locally by the replica a
// client is connected to; writes are forwarded to the leader, validated
// and converted into transactions there, agreed via zab, and completed
// on the replica owning the originating session — exactly the
// ZooKeeper data path the paper intercepts.
//
// SecureKeeper hooks into this package at two points: per-connection
// message Interceptors (the entry enclaves) and the SequenceAppender
// (the counter enclave) used while creating sequential nodes.
package server

import (
	"errors"
	"fmt"
	"log"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/storage"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/ztree"
)

// Interceptor transforms messages at the connection boundary, a burst
// at a time: the session reader passes every request one wake-up
// received, the releaser every response and watch event one pass found
// due. The SecureKeeper entry enclave implements it, paying one enclave
// crossing per call; baselines use Nop. The returned slice and the
// messages in it are the caller's until its next call of the same
// method — the contract of transport.Conn's receive calls, one stage on.
type Interceptor interface {
	// OnRequests rewrites inbound client messages, in order, before
	// they enter the processing pipeline. If msgs[i] is rejected it
	// returns the rewritten msgs[:i] with the error, exactly what single
	// calls would have let through.
	OnRequests(msgs [][]byte) ([][]byte, error)
	// OnResponses rewrites outbound messages, in order, before
	// transport encryption. On an error none of them may be sent.
	OnResponses(msgs [][]byte) ([][]byte, error)
}

// NopInterceptor passes messages through unchanged (Vanilla and TLS
// baselines).
type NopInterceptor struct{}

var _ Interceptor = NopInterceptor{}

// OnRequests implements Interceptor.
func (NopInterceptor) OnRequests(msgs [][]byte) ([][]byte, error) { return msgs, nil }

// OnResponses implements Interceptor.
func (NopInterceptor) OnResponses(msgs [][]byte) ([][]byte, error) { return msgs, nil }

// SequenceAppender merges a sequence number into a (possibly encrypted)
// path during sequential-node creation. The default appends the
// ZooKeeper "%010d" suffix to the plaintext path; SecureKeeper installs
// the counter enclave here.
type SequenceAppender func(path string, seq int32) (string, error)

// PlainSequenceAppender is the vanilla behaviour.
func PlainSequenceAppender(path string, seq int32) (string, error) {
	return wire.AppendSequence(path, seq), nil
}

// sessionTimeoutMillis is what every ConnectResponse grants; nothing
// expires a session on it (informational).
const sessionTimeoutMillis = 10000

// Config parameterizes a replica.
type Config struct {
	// ID identifies the replica; Peers lists the ensemble's VOTING
	// members, Observers its non-voting members (each including ID for
	// the respective role of this replica). An observer replica serves
	// reads and watches from its replayed tree and forwards writes to
	// the leader, but never votes or counts toward quorum.
	ID        zab.PeerID
	Peers     []zab.PeerID
	Observers []zab.PeerID
	// Transport connects the replica to its peers.
	Transport zab.Transport
	// SeqAppend customizes sequential-node naming (counter enclave).
	SeqAppend SequenceAppender
	// TickInterval and ElectionTimeout tune the broadcast protocol.
	TickInterval    time.Duration
	ElectionTimeout time.Duration
	// DataDir, when set, makes the replica durable: committed
	// transactions are group-committed to the write-ahead log there,
	// the tree snapshotted periodically, and a restart recovers from
	// it. A client write is acknowledged only after the fsync covering
	// its transaction returns. Empty means in-memory only.
	DataDir string
	// SnapshotEvery tunes how many commits separate snapshots.
	SnapshotEvery int
	// LogSegmentBytes is the WAL rotation threshold (0 = default).
	LogSegmentBytes int64
	// Logf, when set, receives replica diagnostics (defaults to the
	// standard logger). Persistence failures are reported here.
	Logf func(format string, args ...any)
	// Obs, when set, receives the replica's metrics: commit-pipeline
	// stage latencies, queue depths, session/watch gauges. The same
	// registry is threaded into the broadcast (zab) and durability
	// (storage) layers so one scrape covers the whole replica. Nil
	// disables instrument registration; the stamped timestamps still
	// flow but every Observe is a nil-receiver no-op.
	Obs *obs.Registry
}

// Replica is one coordination-service server.
type Replica struct {
	cfg       Config
	tree      *ztree.Tree
	peer      *zab.Peer
	persister *storage.Persister // nil when DataDir is unset

	mu       sync.Mutex
	sessions map[int64]*session
	pending  map[pendingKey]*pendingWrite
	// pendingFree is a freelist of recycled pendingWrite entries (guarded
	// by mu): the write hot path inserts and deletes one map entry per
	// request, and reusing the value structs keeps that churn
	// allocation-free in steady state.
	pendingFree *pendingWrite
	nextSess    int64
	closed      bool

	// seqMu guards seqHint: the leader's view of the next sequence
	// number per parent, covering transactions that are proposed but
	// not yet applied (ZooKeeper's outstanding-changes tracking).
	// Without it, two concurrent sequential creates under one parent
	// would both read the applied cversion and collide.
	seqMu   sync.Mutex
	seqHint map[string]int32

	stop      chan struct{}
	wg        sync.WaitGroup
	forwarded chan forwardedReq

	// Counters for the evaluation harness.
	readOps  atomic.Int64
	writeOps atomic.Int64

	// degraded latches when the persister reports a failure: the
	// replica can no longer durably store what it acknowledges, so it
	// stops accepting writes (reads keep serving from the tree).
	degraded atomic.Bool

	// removed latches when a committed reconfig dropped this replica
	// from the ensemble: it refuses writes (it can neither propose nor
	// forward them anywhere that counts it) instead of campaigning
	// forever, while reads keep serving the frozen tree.
	removed atomic.Bool

	// Commit-pipeline instruments (nil-safe no-ops when cfg.Obs is
	// nil): per-stage latencies plus the degraded-mode flag gauge.
	obsReg          *obs.Registry
	submitToCommit  *obs.Histogram
	applyHist       *obs.Histogram
	commitToRelease *obs.Histogram
	degradedGauge   *obs.Gauge
	watchDispatch   *obs.Counter
	watchFanout     *obs.Histogram
	// framesPerRelease and framesPerRead are the batch factors of the
	// session writers and readers: frames per SendFrames / RecvFrames
	// call, 1 for a session with one op in flight.
	framesPerRelease *obs.Histogram
	framesPerRead    *obs.Histogram
}

type pendingKey struct {
	session int64
	xid     int32
}

type pendingWrite struct {
	entry *inflightReq
	sess  *session
	next  *pendingWrite // freelist link, meaningful only while recycled
}

// getPendingWrite pops a recycled entry or allocates one. Caller holds
// r.mu.
func (r *Replica) getPendingWrite(entry *inflightReq, sess *session) *pendingWrite {
	pw := r.pendingFree
	if pw != nil {
		r.pendingFree = pw.next
		pw.next = nil
	} else {
		pw = &pendingWrite{}
	}
	pw.entry, pw.sess = entry, sess
	return pw
}

// putPendingWrite recycles an entry removed from the pending map. Caller
// holds r.mu and must have copied the fields it still needs: the entry
// is reused by the next write.
func (r *Replica) putPendingWrite(pw *pendingWrite) {
	pw.entry, pw.sess = nil, nil
	pw.next = r.pendingFree
	r.pendingFree = pw
}

// forwardedReq is a follower's write awaiting prep on the leader.
type forwardedReq struct {
	op     wire.OpCode
	body   []byte
	origin zab.Origin
}

// NewReplica constructs and starts a replica.
func NewReplica(cfg Config) *Replica {
	if cfg.SeqAppend == nil {
		cfg.SeqAppend = PlainSequenceAppender
	}
	r := &Replica{
		cfg:      cfg,
		tree:     ztree.New(),
		sessions: make(map[int64]*session),
		pending:  make(map[pendingKey]*pendingWrite),
		seqHint:  make(map[string]int32),
		stop:     make(chan struct{}),
		// Forwarded writes must be proposed in arrival order to keep
		// each client session's writes ordered; a single worker drains
		// the queue (buffered: the zab loop must never block).
		forwarded: make(chan forwardedReq, 4096),
	}
	var recoveredZxid int64
	if cfg.DataDir != "" {
		p, zxid, err := storage.Recover(storage.PersisterConfig{
			Dir:           cfg.DataDir,
			Tree:          r.tree,
			SnapshotEvery: cfg.SnapshotEvery,
			SegmentBytes:  cfg.LogSegmentBytes,
			Obs:           cfg.Obs,
		})
		if err != nil {
			// A replica that cannot read its durable state must not
			// serve with silent data loss; start empty is the only
			// alternative and is equally silent, so surface loudly.
			panic(fmt.Sprintf("server: recover %s: %v", cfg.DataDir, err))
		}
		r.persister = p
		recoveredZxid = zxid
	}
	r.peer = zab.NewPeer(zab.Config{
		ID:              cfg.ID,
		Peers:           cfg.Peers,
		Observers:       cfg.Observers,
		Transport:       cfg.Transport,
		Deliver:         r.deliver,
		Snapshot:        r.tree.Snapshot,
		Restore:         r.restoreFromSync,
		OnApp:           r.onForwarded,
		OnRoleChange:    r.onRoleChange,
		TickInterval:    cfg.TickInterval,
		ElectionTimeout: cfg.ElectionTimeout,
		LastZxid:        recoveredZxid,
		Logf:            cfg.Logf,
		Obs:             cfg.Obs,
	})
	r.registerMetrics(cfg.Obs)
	r.peer.Start()
	r.wg.Add(1)
	go r.forwardWorker()
	return r
}

// registerMetrics wires the replica's instruments into the registry.
// Every instrument handle is nil when reg is nil, making each hot-path
// Observe/Inc a no-op without conditionals at the call sites.
func (r *Replica) registerMetrics(reg *obs.Registry) {
	r.obsReg = reg
	r.submitToCommit = reg.Histogram("server_submit_to_commit_seconds", "",
		"Client write submission to known fate (quorum commit; fsync included on durable replicas).")
	r.applyHist = reg.Histogram("server_apply_seconds", "",
		"Tree apply latency per committed transaction.")
	r.commitToRelease = reg.Histogram("server_commit_to_release_seconds", "",
		"Commit completion to in-order response release (session FIFO wait).")
	r.framesPerRelease = reg.CountHistogram("server_frames_per_release_write", "",
		"Responses and watch events a session writer found due and sent with one write.")
	r.framesPerRead = reg.CountHistogram("server_frames_per_request_read", "",
		"Requests a session reader found already received when it woke up.")
	r.degradedGauge = reg.Gauge("server_degraded", `mode="readonly"`,
		"1 once the replica latched read-only after a persistence failure.")
	r.watchDispatch = reg.Counter("server_watch_dispatch_total", "",
		"Watch dispatches (one per event that fired at least one watcher).")
	r.watchFanout = reg.CountHistogram("server_watch_fanout", "",
		"Watchers fired per dispatched watch event.")
	if reg == nil {
		return
	}
	reg.CounterFunc("server_reads_total", "", "Client read operations served.", r.readOps.Load)
	reg.CounterFunc("server_writes_total", "", "Client write operations accepted into the pipeline.", r.writeOps.Load)
	reg.GaugeFunc("server_sessions", "", "Live client sessions.", func() int64 {
		r.mu.Lock()
		n := len(r.sessions)
		r.mu.Unlock()
		return int64(n)
	})
	reg.GaugeFunc("server_watches", "", "Registered (path, watcher) pairs.", func() int64 {
		return int64(r.tree.Watches().Count())
	})
	reg.GaugeFunc("server_forward_queue_depth", "", "Forwarded writes queued for leader prep.", func() int64 {
		return int64(len(r.forwarded))
	})
	reg.GaugeFunc("server_uptime_seconds", "", "Process uptime.", obs.Uptime)
	r.tree.Watches().SetDispatchObserver(func(fired int) {
		r.watchDispatch.Inc()
		r.watchFanout.Observe(int64(fired))
	})
}

// forwardWorker preps and proposes forwarded writes strictly in arrival
// order (per-session FIFO depends on it). A forwarded write this
// replica cannot propose — it is not the leader, or not yet activated —
// is REJECTED back to the origin rather than dropped: the origin stays
// FOLLOWING throughout a normal leader handover, so it would never
// fail the pending client call on a role change, and the client would
// hang forever on a silently shed request (observed in the
// multi-process failover harness).
func (r *Replica) forwardWorker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case req := <-r.forwarded:
			if r.peer.Role() != zab.RoleLeading {
				r.rejectForward(req.origin)
				continue
			}
			if err := r.peer.Submit(r.prepTxn(req.op, req.body, req.origin.Session), req.origin); err != nil {
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
		r.failPending(origin, wire.ErrConnectionLoss)
		return
	}
	_ = r.peer.SendApp(origin.Peer, encodeReject(origin))
}

// ID returns the replica's ensemble identity.
func (r *Replica) ID() zab.PeerID { return r.cfg.ID }

// Tree exposes the replica's database (tests and experiments).
func (r *Replica) Tree() *ztree.Tree { return r.tree }

// Peer exposes the broadcast protocol instance.
func (r *Replica) Peer() *zab.Peer { return r.peer }

// IsLeader reports whether this replica currently leads the ensemble.
func (r *Replica) IsLeader() bool { return r.peer.Role() == zab.RoleLeading }

// Ops returns the cumulative read and write counts served.
func (r *Replica) Ops() (reads, writes int64) {
	return r.readOps.Load(), r.writeOps.Load()
}

// PersistStats returns the durability counters (zeros when the replica
// is in-memory). Records/Fsyncs is the mean group-commit batch size.
func (r *Replica) PersistStats() storage.PersistStats {
	if r.persister == nil {
		return storage.PersistStats{}
	}
	return r.persister.Stats()
}

// Persister exposes the durability engine, nil when the replica is
// in-memory. Chaos harnesses use it to inject storage faults (fsync
// stalls, sticky failures that flip the replica into degraded mode).
func (r *Replica) Persister() *storage.Persister { return r.persister }

// WaitForRole blocks until the replica assumes a settled ensemble role
// (leading, following, or observing with a known leader) or the timeout
// expires.
func (r *Replica) WaitForRole(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		switch role := r.peer.Role(); {
		case role == zab.RoleLeading || role == zab.RoleFollowing:
			return nil
		case role == zab.RoleObserving && r.peer.Leader() >= 0:
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server: replica %d still %s after %v", r.cfg.ID, r.peer.Role(), timeout)
}

// Close shuts the replica down: sessions are closed and the broadcast
// peer stopped.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	sessions := make([]*session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.Unlock()

	close(r.stop)
	for _, s := range sessions {
		s.shutdown()
	}
	r.peer.Stop()
	r.wg.Wait()
	if r.persister != nil {
		_ = r.persister.Close()
	}
}

// ServeConn runs the session protocol over an accepted connection:
// reads the ConnectRequest, establishes the session, then processes
// requests until the connection drops. It blocks; callers run it in a
// goroutine per connection.
func (r *Replica) ServeConn(conn transport.Conn, icept Interceptor) error {
	// The replica owns the connection: every exit path must close it,
	// or a client mid-handshake would block forever on a pipe nobody
	// reads (e.g. connecting exactly as the replica shuts down).
	defer func() { _ = conn.Close() }()
	if icept == nil {
		icept = NopInterceptor{}
	}
	// Session handshake happens before interception: the connect
	// record carries no application data (§4.2 interception covers the
	// request/response pipeline only).
	first, err := conn.RecvFrame()
	if err != nil {
		return fmt.Errorf("server: read connect: %w", err)
	}
	var connReq wire.ConnectRequest
	if err := wire.Unmarshal(first, &connReq); err != nil {
		return fmt.Errorf("server: parse connect: %w", err)
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errors.New("server: replica closed")
	}
	r.nextSess++
	sessionID := int64(r.cfg.ID)<<48 | r.nextSess
	s := newSession(r, sessionID, conn, icept)
	r.sessions[sessionID] = s
	r.mu.Unlock()

	resp := wire.ConnectResponse{
		TimeoutMillis: sessionTimeoutMillis,
		SessionID:     sessionID,
		Passwd:        connReq.Passwd,
	}
	if err := conn.SendFrame(wire.Marshal(&resp)); err != nil {
		r.dropSession(s)
		return fmt.Errorf("server: send connect response: %w", err)
	}

	err = s.run() // blocks until connection ends
	r.dropSession(s)
	return err
}

func (r *Replica) dropSession(s *session) {
	r.mu.Lock()
	if _, ok := r.sessions[s.id]; !ok {
		r.mu.Unlock()
		return
	}
	delete(r.sessions, s.id)
	closed := r.closed
	r.mu.Unlock()
	r.abortPending(func(key pendingKey) bool { return key.session == s.id }, wire.ErrConnectionLoss)

	// run has joined the reader and the writer, the only goroutines that
	// execute this session's reads, so no read can re-register a watch
	// after the deregistration below.
	s.shutdown()
	r.tree.Watches().RemoveWatcher(s)
	if !closed {
		// Clean up the session's ephemeral nodes through the agreed
		// log so all replicas converge.
		_ = r.submitOrForward(wire.OpCloseSession, nil,
			zab.Origin{Peer: r.cfg.ID, Session: s.id, Xid: -3})
	}
}

// --- write pipeline ---

// handleWrite routes a client write: the leader validates it into a
// transaction and proposes it; a follower forwards the raw request to
// the leader (sequential-node resolution and version checks must happen
// against the leader's outstanding state, exactly as ZooKeeper's
// PrepRequestProcessor runs on the leader). Called from session reader
// goroutines.
func (r *Replica) handleWrite(s *session, entry *inflightReq) {
	r.writeOps.Add(1)
	if r.degraded.Load() || r.removed.Load() {
		// Refuse up front: the reply still flows through writeDone so
		// the session FIFO (and the reads waiting behind it) stay ordered.
		s.writeDone(entry, errorReply(entry.xid, 0, wire.ErrConnectionLoss), true)
		return
	}
	r.mu.Lock()
	r.pending[pendingKey{session: s.id, xid: entry.xid}] = r.getPendingWrite(entry, s)
	r.mu.Unlock()

	origin := zab.Origin{Peer: r.cfg.ID, Session: s.id, Xid: entry.xid}
	if err := r.submitOrForward(entry.op, entry.body, origin); err != nil {
		r.failPending(origin, wire.ErrConnectionLoss)
	}
}

// submitOrForward preps-and-proposes on the leader, or tunnels the raw
// request to it from a follower.
func (r *Replica) submitOrForward(op wire.OpCode, body []byte, origin zab.Origin) error {
	if r.peer.Role() == zab.RoleLeading {
		return r.peer.Submit(r.prepTxn(op, body, origin.Session), origin)
	}
	leader := r.peer.Leader()
	if leader < 0 {
		return zab.ErrNotLeader
	}
	return r.peer.SendApp(zab.PeerID(leader), encodeForward(op, body, origin))
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

// onForwarded handles peer application messages: a follower's
// forwarded write on the leader, or a reject notification back on the
// origin. Runs on the zab loop goroutine; Submit would deadlock there
// (it round-trips through the same loop), so requests are queued to
// the ordered forward worker.
func (r *Replica) onForwarded(from zab.PeerID, payload []byte) {
	kind, op, body, origin, err := decodeForward(payload)
	if err != nil {
		return
	}
	switch kind {
	case fwdReject:
		r.failPending(origin, wire.ErrConnectionLoss)
	case fwdRequest:
		select {
		case r.forwarded <- forwardedReq{op: op, body: body, origin: origin}:
		default:
			// Queue full: reject so the origin's client gets
			// CONNECTIONLOSS instead of hanging (SendApp is
			// non-blocking, safe on the zab loop).
			r.rejectForward(origin)
		}
	}
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
		if req.Deserialize(&d) != nil || d.Remaining() != 0 {
			return ztree.Txn{}, wire.ErrMarshallingError
		}
		if err := ztree.ValidatePath(req.Path); err != nil {
			return ztree.Txn{}, wire.ErrBadArguments
		}
		path := req.Path
		if req.Flags&wire.FlagSequential != 0 {
			parent, _ := ztree.SplitPath(path)
			newPath, err := r.cfg.SeqAppend(path, r.nextSeq(parent))
			if err != nil {
				return ztree.Txn{}, wire.ErrMarshallingError
			}
			path = newPath
		}
		return ztree.Txn{
			Type:    ztree.TxnCreate,
			Path:    path,
			Data:    req.Data,
			Flags:   req.Flags,
			Session: sessionID,
		}, wire.ErrOK

	case wire.OpSetData:
		var req wire.SetDataRequest
		if req.Deserialize(&d) != nil || d.Remaining() != 0 {
			return ztree.Txn{}, wire.ErrMarshallingError
		}
		return ztree.Txn{
			Type:    ztree.TxnSetData,
			Path:    req.Path,
			Data:    req.Data,
			Version: req.Version,
			Session: sessionID,
		}, wire.ErrOK

	case wire.OpDelete:
		var req wire.DeleteRequest
		if req.Deserialize(&d) != nil || d.Remaining() != 0 {
			return ztree.Txn{}, wire.ErrMarshallingError
		}
		return ztree.Txn{
			Type:    ztree.TxnDelete,
			Path:    req.Path,
			Version: req.Version,
			Session: sessionID,
		}, wire.ErrOK

	case wire.OpSync:
		var req wire.SyncRequest
		if req.Deserialize(&d) != nil || d.Remaining() != 0 {
			return ztree.Txn{}, wire.ErrMarshallingError
		}
		return ztree.Txn{Type: ztree.TxnSync, Path: req.Path, Session: sessionID}, wire.ErrOK

	case wire.OpMulti:
		var req wire.MultiRequest
		if req.Deserialize(&d) != nil || d.Remaining() != 0 {
			return ztree.Txn{}, wire.ErrMarshallingError
		}
		return r.prepMulti(&req, sessionID)

	case wire.OpCloseSession:
		return ztree.Txn{Type: ztree.TxnCloseSession, Session: sessionID}, wire.ErrOK

	case wire.OpReconfig:
		var req wire.ReconfigRequest
		if req.Deserialize(&d) != nil || d.Remaining() != 0 {
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

// prepMulti resolves a MultiRequest into one TxnMulti: every sub-op is
// statically validated and sequential-node names resolved here on the
// leader, so the resulting transaction applies deterministically on
// every replica. Per-sub static failures become TxnError sub-ops — the
// tree aborts the whole multi on them, preserving per-op results and
// the all-or-nothing contract.
func (r *Replica) prepMulti(req *wire.MultiRequest, sessionID int64) (ztree.Txn, wire.ErrCode) {
	if len(req.Ops) == 0 || len(req.Ops) > wire.MaxMultiOps {
		return ztree.Txn{}, wire.ErrBadArguments
	}
	subs := make([]ztree.Txn, len(req.Ops))
	for i := range req.Ops {
		op := &req.Ops[i]
		switch op.Op {
		case wire.OpCheck:
			subs[i] = ztree.Txn{Type: ztree.TxnCheck, Path: op.Path, Version: op.Version, Session: sessionID}
		case wire.OpCreate:
			// Path validity is checked by the tree's overlay validation
			// at apply time (deterministic on every replica); only the
			// sequence suffix must resolve here on the leader.
			path := op.Path
			if op.Flags&wire.FlagSequential != 0 && ztree.ValidatePath(path) == nil {
				parent, _ := ztree.SplitPath(path)
				newPath, err := r.cfg.SeqAppend(path, r.nextSeq(parent))
				if err != nil {
					// TxnError aborts the multi at apply; ReqOp keeps the
					// original op code for the per-op result body.
					subs[i] = ztree.Txn{Type: ztree.TxnError, Err: wire.ErrMarshallingError,
						ReqOp: op.Op, Session: sessionID}
					continue
				}
				path = newPath
			}
			subs[i] = ztree.Txn{Type: ztree.TxnCreate, Path: path, Data: op.Data, Flags: op.Flags, Session: sessionID}
		case wire.OpDelete:
			subs[i] = ztree.Txn{Type: ztree.TxnDelete, Path: op.Path, Version: op.Version, Session: sessionID}
		case wire.OpSetData:
			subs[i] = ztree.Txn{Type: ztree.TxnSetData, Path: op.Path, Data: op.Data, Version: op.Version, Session: sessionID}
		default:
			subs[i] = ztree.Txn{Type: ztree.TxnError, Err: wire.ErrUnimplemented,
				ReqOp: op.Op, Session: sessionID}
		}
	}
	return ztree.Txn{Type: ztree.TxnMulti, Session: sessionID, Subs: subs}, wire.ErrOK
}

// restoreFromSync installs a snapshot received from the leader during
// recovery sync and, for durable replicas, persists it immediately (the
// old log no longer matches the tree).
func (r *Replica) restoreFromSync(snap *ztree.Snapshot) {
	r.tree.Restore(snap)
	if r.persister != nil {
		// The peer updates its commit position before calling Restore.
		// Failure to persist the synced snapshot means this replica's
		// durable state is stale AND its disk is suspect: degrade
		// rather than keep acknowledging (the sticky persister failure
		// blocks later Records anyway).
		if err := r.persister.Snapshot(r.peer.LastCommitted()); err != nil {
			r.enterDegraded(err)
		}
	}
}

// deliver applies a committed transaction (zab loop goroutine) and
// completes the originating client request if it belongs to us. The
// completion answers the write in its session's FIFO and wakes the
// session's writer, which releases it in order and then executes the
// reads that waited behind it.
//
// On a durable replica the completion is deferred past the WAL fsync:
// the transaction is enqueued to the persister's commit-log goroutine
// (this loop never blocks on disk, so consecutive deliveries pile into
// one shared fsync) and the client sees "committed" only once it means
// "on disk". A persistence failure drops the replica into degraded
// mode and fails the write instead of acknowledging it.
func (r *Replica) deliver(c zab.Committed) {
	applyStart := obs.Now()
	res := r.tree.Apply(&c.Txn)
	r.applyHist.Observe(obs.Now() - applyStart)
	var entry *inflightReq
	var sess *session
	if c.Origin.Peer == r.cfg.ID {
		r.mu.Lock()
		key := pendingKey{session: c.Origin.Session, xid: c.Origin.Xid}
		if pw, ok := r.pending[key]; ok {
			delete(r.pending, key)
			entry, sess = pw.entry, pw.sess
			r.putPendingWrite(pw)
		}
		r.mu.Unlock()
	}
	if r.persister == nil {
		if sess != nil {
			sess.writeDone(entry, r.buildWriteResponse(&c.Txn, entry.op, c.Origin.Xid, &res), false)
		}
		return
	}
	// Build the response now (it reads c.Txn and res, both owned by
	// this goroutine); the fsync callback only releases it.
	var resp []byte
	if sess != nil {
		resp = r.buildWriteResponse(&c.Txn, entry.op, c.Origin.Xid, &res)
	}
	r.persister.Record(&c.Txn, func(err error) {
		if err != nil {
			r.enterDegraded(err)
			if sess != nil {
				sess.writeDone(entry, errorReply(entry.xid, 0, wire.ErrConnectionLoss), true)
			}
			return
		}
		if sess != nil {
			sess.writeDone(entry, resp, false)
		}
	})
}

// enterDegraded latches the replica into read-only degraded mode after
// a persistence failure: it must not acknowledge commits it can no
// longer store, so new writes are refused up front and every write
// still in flight is failed (its transaction may yet commit on the
// ensemble, but this replica cannot vouch for it durably —
// ConnectionLoss tells the client to retry elsewhere, exactly as on a
// leader change). Reads keep serving from the in-memory tree.
func (r *Replica) enterDegraded(cause error) {
	if r.degraded.Swap(true) {
		return
	}
	r.degradedGauge.Set(1)
	r.logf("server: replica %d: PERSISTENCE FAILURE, entering degraded read-only mode (writes refused): %v",
		r.cfg.ID, cause)
	r.abortPending(allPending, wire.ErrConnectionLoss)
}

// Degraded reports whether the replica refused further writes after a
// persistence failure.
func (r *Replica) Degraded() bool { return r.degraded.Load() }

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// abortPending takes the pending writes match selects out of r.pending
// and answers each with code as aborted: its fate is unknown (the
// ensemble may or may not commit it), so the client gets an error reply
// and the reads waiting behind it in its session fail too.
func (r *Replica) abortPending(match func(pendingKey) bool, code wire.ErrCode) {
	r.mu.Lock()
	var aborted []pendingWrite
	for key, pw := range r.pending {
		if match(key) {
			aborted = append(aborted, *pw)
			delete(r.pending, key)
			r.putPendingWrite(pw)
		}
	}
	r.mu.Unlock()
	for _, pw := range aborted {
		pw.sess.writeDone(pw.entry, errorReply(pw.entry.xid, 0, code), true)
	}
}

func allPending(pendingKey) bool { return true }

// failPending aborts the one pending write origin names.
func (r *Replica) failPending(origin zab.Origin, code wire.ErrCode) {
	key := pendingKey{session: origin.Session, xid: origin.Xid}
	r.abortPending(func(k pendingKey) bool { return k == key }, code)
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

// onRoleChange fails all in-flight writes when leadership moves: their
// fate is unknown (the new leader may or may not have committed them),
// so clients get ConnectionLoss, matching ZooKeeper semantics.
func (r *Replica) onRoleChange(role zab.Role, leader zab.PeerID) {
	if role == zab.RoleRemoved && !r.removed.Swap(true) {
		// A committed reconfig dropped this replica. Latch write refusal
		// and say so loudly: an operator who removed the wrong node
		// should find out from the log, not from a silent hang.
		r.logf("server: replica %d: REMOVED FROM ENSEMBLE by reconfig; "+
			"refusing writes, serving reads from the frozen tree — decommission this process",
			r.cfg.ID)
	}
	// An observer that loses its leader is in the same boat as a looking
	// voter: forwarded writes in flight have an unknown fate. A removed
	// replica's in-flight writes are equally unknowable.
	if role == zab.RoleLooking || role == zab.RoleRemoved || (role == zab.RoleObserving && leader < 0) {
		// Drop the sequence hints: a future leadership term re-derives
		// them from the applied tree.
		r.seqMu.Lock()
		r.seqHint = make(map[string]int32)
		r.seqMu.Unlock()
		// Aborted, not committed: reads waiting behind the writes get
		// CONNECTIONLOSS instead of hanging across the failover.
		r.abortPending(allPending, wire.ErrConnectionLoss)
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
	var b strings.Builder
	b.WriteString("voters=")
	for i, id := range voters {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(id), 10))
	}
	b.WriteString(" observers=")
	for i, id := range observers {
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

// --- read pipeline ---

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
		if req.Deserialize(&d) != nil || d.Remaining() != 0 {
			return errorReply(entry.xid, zxid, wire.ErrMarshallingError)
		}
		// Reference read: the payload is serialized into the reply right
		// below, which is the copy at the session boundary.
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
		if req.Deserialize(&d) != nil || d.Remaining() != 0 {
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
		if req.Deserialize(&d) != nil || d.Remaining() != 0 {
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
		if r.obsReg != nil {
			snap := r.obsReg.Mntr()
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

// --- forwarded-request encoding ---

// App-message kinds tunneled between replicas.
const (
	fwdRequest byte = 1 // follower -> leader: propose this write
	fwdReject  byte = 2 // leader -> origin: the write will not be proposed
)

func encodeForward(op wire.OpCode, body []byte, origin zab.Origin) []byte {
	e := wire.GetEncoder()
	_ = e.WriteByte(fwdRequest)
	writeOrigin(e, origin)
	e.WriteInt32(int32(op))
	e.WriteBuffer(body)
	return wire.Detach(e)
}

func encodeReject(origin zab.Origin) []byte {
	e := wire.GetEncoder()
	_ = e.WriteByte(fwdReject)
	writeOrigin(e, origin)
	return wire.Detach(e)
}

func writeOrigin(e *wire.Encoder, origin zab.Origin) {
	e.WriteInt64(int64(origin.Peer))
	e.WriteInt64(origin.Session)
	e.WriteInt32(origin.Xid)
}

// decodeForward parses a tunneled message. The request body it returns
// aliases buf: the mesh decoded the APP payload into memory the message
// owns, and prep copies out of it what the transaction keeps.
func decodeForward(buf []byte) (byte, wire.OpCode, []byte, zab.Origin, error) {
	var d wire.Decoder
	d.Reset(buf)
	d.SetZeroCopy(true)
	var origin zab.Origin
	kind, err := d.ReadByte()
	if err != nil {
		return 0, 0, nil, origin, err
	}
	peer, err := d.ReadInt64()
	if err != nil {
		return 0, 0, nil, origin, err
	}
	origin.Peer = zab.PeerID(peer)
	if origin.Session, err = d.ReadInt64(); err != nil {
		return 0, 0, nil, origin, err
	}
	if origin.Xid, err = d.ReadInt32(); err != nil {
		return 0, 0, nil, origin, err
	}
	if kind == fwdReject {
		return kind, 0, nil, origin, nil
	}
	opRaw, err := d.ReadInt32()
	if err != nil {
		return 0, 0, nil, origin, err
	}
	body, err := d.ReadBuffer()
	if err != nil {
		return 0, 0, nil, origin, err
	}
	return kind, wire.OpCode(opRaw), body, origin, nil
}
