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

// OnRequests implements Interceptor.
func (NopInterceptor) OnRequests(msgs [][]byte) ([][]byte, error) { return msgs, nil }

// OnResponses implements Interceptor.
func (NopInterceptor) OnResponses(msgs [][]byte) ([][]byte, error) { return msgs, nil }

// SequenceAppender merges sequence numbers into (possibly encrypted)
// paths during sequential-node creation, a burst's names at a time:
// for every i it replaces paths[i] with the path named seqs[i], or sets
// errs[i] to why it cannot (paths[i] then stays as it was). The three
// slices have one length. The default appends the ZooKeeper "%010d"
// suffix to the plaintext path; SecureKeeper installs the counter
// enclave here, which resolves the batch in one crossing.
type SequenceAppender func(paths []string, seqs []int32, errs []error)

// PlainSequenceAppender is the vanilla behaviour.
func PlainSequenceAppender(paths []string, seqs []int32, errs []error) {
	for i := range paths {
		paths[i], errs[i] = wire.AppendSequence(paths[i], seqs[i]), nil
	}
}

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

	// mu guards the session table, the replica's one record of what its
	// clients have in flight — a write is its slot in its session's ring,
	// found again from the Origin{Session, Xid} a commit, reject
	// or abort carries — and closing, the sessions that left the table
	// with their connection and await their CloseSession's delivery,
	// each with the obs.Now at which it joined.
	mu       sync.Mutex
	sessions map[int64]*session
	closing  map[int64]int64
	nextSess int64
	closed   bool

	// Owned by the zab loop: seqHint is the leader's next sequence
	// number per parent, covering creates that are named but not yet
	// applied (see nextSeq and dropHints); seqPaths, seqNums and seqErrs
	// are nameSequential's batch for the SequenceAppender.
	seqHint  map[string]int32
	seqPaths []string
	seqNums  []int32
	seqErrs  []error

	stop chan struct{}
	wg   sync.WaitGroup
	// forwarded queues forwarded bursts, undecoded, for the forward
	// worker; fwdQueued counts their writes against maxForwardWrites.
	forwarded chan []byte
	fwdQueued atomic.Int64

	// server_reads_total and server_writes_total.
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

// NewReplica constructs and starts a replica.
func NewReplica(cfg Config) *Replica {
	if cfg.SeqAppend == nil {
		cfg.SeqAppend = PlainSequenceAppender
	}
	r := &Replica{
		cfg:      cfg,
		tree:     ztree.New(),
		sessions: make(map[int64]*session),
		closing:  make(map[int64]int64),
		seqHint:  make(map[string]int32),
		stop:     make(chan struct{}),
		// Forwarded writes must be proposed in arrival order to keep
		// each client session's writes ordered; a single worker drains
		// the queue (buffered: the zab loop must never block).
		forwarded: make(chan []byte, maxForwardWrites),
	}
	var recoveredZxid int64
	if cfg.DataDir != "" {
		p, zxid, err := storage.Recover(storage.PersisterConfig{
			Dir:           cfg.DataDir,
			Tree:          r.tree,
			SnapshotEvery: cfg.SnapshotEvery,
			Obs:           cfg.Obs,
			OnFail:        r.enterDegraded,
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
		Prepare:         r.nameSequential,
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
		defer r.mu.Unlock()
		return int64(len(r.sessions))
	})
	reg.GaugeFunc("server_watches", "", "Registered (path, watcher) pairs.", func() int64 {
		return int64(r.tree.Watches().Count())
	})
	reg.GaugeFunc("server_forward_queue_depth", "", "Forwarded writes queued for leader prep.", func() int64 {
		return r.fwdQueued.Load()
	})
	reg.GaugeFunc("server_uptime_seconds", "", "Process uptime.", obs.Uptime)
	r.tree.Watches().SetDispatchObserver(func(fired int) {
		r.watchDispatch.Inc()
		r.watchFanout.Observe(int64(fired))
	})
}

// ID returns the replica's ensemble identity.
func (r *Replica) ID() zab.PeerID { return r.cfg.ID }

// Tree exposes the replica's database (tests and experiments).
func (r *Replica) Tree() *ztree.Tree { return r.tree }

// Peer exposes the broadcast protocol instance.
func (r *Replica) Peer() *zab.Peer { return r.peer }

// IsLeader reports whether this replica currently leads the ensemble.
func (r *Replica) IsLeader() bool { return r.peer.Role() == zab.RoleLeading }

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
		TimeoutMillis: wire.SessionTimeoutMillis,
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

// dropSession takes a session whose connection ended from live to
// closing: it leaves the table — what it still has in flight will find
// nobody to answer — and its ephemeral nodes go through the agreed log,
// so that all replicas converge. The CloseSession is the client's own
// when the session's reader handed it on; otherwise dropSession submits
// one. No client waits for that CloseSession or would retry it when a
// missing leader, a reject or a role change swallows it: the session
// stays listed as closing until deliver sees the transaction, and
// retryCloses submits it again. A session whose CloseSession was
// delivered before it left the table is gone already.
func (r *Replica) dropSession(s *session) {
	// run has joined the reader and the writer, the only goroutines that
	// execute this session's reads, so no read can re-register a watch
	// after this deregistration.
	s.shutdown()
	r.tree.Watches().RemoveWatcher(s)
	r.mu.Lock()
	delete(r.sessions, s.id)
	if r.closed || s.closeDelivered {
		r.mu.Unlock()
		return // no ensemble to tell any more, or nothing left to tell it
	}
	r.closing[s.id] = obs.Now()
	r.mu.Unlock()
	if !s.closeHandedOn {
		r.submitCloses([]int64{s.id})
	}
}

// submitCloses hands on the CloseSession of each of the closing
// sessions, as one burst, under an xid no client uses. A failure is
// retryCloses' business.
func (r *Replica) submitCloses(sessions []int64) {
	b := burst{writes: make([]write, len(sessions))}
	for i, id := range sessions {
		b.writes[i] = write{op: wire.OpCloseSession, origin: zab.Origin{Peer: r.cfg.ID, Session: id, Xid: -3}}
	}
	r.handOn(&b)
}

// closeRetryInterval is short against an election, so a session that
// died while the ensemble had no leader is cleaned up soon after it has
// one, and long against a commit, so a CloseSession is rarely submitted
// twice (which is harmless: the second removes nothing).
const closeRetryInterval = 200 * time.Millisecond

// retryCloses is the forward worker's ticker: submitCloses, again, for
// every session that has been closing for a whole interval. One that
// joined since is left to the CloseSession it just handed on.
func (r *Replica) retryCloses() {
	now := obs.Now()
	var due []int64
	r.mu.Lock()
	for id, since := range r.closing {
		if now-since >= int64(closeRetryInterval) {
			due = append(due, id)
		}
	}
	r.mu.Unlock()
	if len(due) > 0 {
		r.submitCloses(due)
	}
}

// closeDelivered records that a session's CloseSession was delivered: a
// closing session is gone, and a live one is gone when it leaves the
// table.
func (r *Replica) closeDelivered(session int64) {
	r.mu.Lock()
	delete(r.closing, session)
	if s := r.sessions[session]; s != nil {
		s.closeDelivered = true
	}
	r.mu.Unlock()
}

// session returns the live session with this id, or nil: it is gone,
// and whatever it had in flight has nobody left to answer.
func (r *Replica) session(id int64) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions[id]
}

// abortWrite aborts the one write origin names: the leader rejected it.
func (r *Replica) abortWrite(origin zab.Origin) {
	if s := r.session(origin.Session); s != nil {
		s.abort(origin.Xid)
	}
}

// abortWrites aborts every write in flight: its fate is unknown (the
// ensemble may or may not commit it), so the client gets CONNECTIONLOSS
// and the reads waiting behind it in its session fail too.
func (r *Replica) abortWrites() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sessions {
		s.abortWrites()
	}
}

// deliver applies a committed transaction (zab loop goroutine) and, if
// one of this replica's sessions sent it, completes that request: the
// session builds the reply into the write's slot (session.commit), and
// its writer releases it in order and then executes the reads that
// waited behind it. The write is named by its Origin's xid and looked up
// under the session's lock (see session.find), so a commit that an
// abort overtook answers nothing.
//
// On a durable replica the transaction first goes to the persister's
// commit-log goroutine (this loop never blocks on disk, so consecutive
// deliveries pile into one shared fsync) and the reply is released when
// the fsync covering it returns: the client sees "committed" only once
// it means "on disk" — the reply waits, staged, in the slot until then.
// Only a record a local client waits on carries a callback, which is how
// the persister's flush rule tells awaited records from the rest. A
// persistence failure aborts the write instead; the replica has dropped
// into degraded mode already (OnFail).
func (r *Replica) deliver(c zab.Committed) {
	applyStart := obs.Now()
	res := r.tree.Apply(&c.Txn)
	r.applyHist.Observe(obs.Now() - applyStart)
	if len(r.seqHint) > 0 {
		r.dropHints(&c.Txn)
	}
	var flushed func(error) // set when a session staged the reply
	xid, zxid := c.Origin.Xid, c.Txn.Zxid
	if c.Origin.Peer == r.cfg.ID {
		if c.Txn.Type == ztree.TxnCloseSession {
			r.closeDelivered(c.Origin.Session)
		}
		if s := r.session(c.Origin.Session); s != nil && s.commit(xid, zxid, &c.Txn, &res, r.persister != nil) {
			flushed = func(err error) { s.flushed(xid, zxid, err) }
		}
	}
	if r.persister != nil {
		r.persister.Record(&c.Txn, flushed)
	}
}

// restoreFromSync installs a snapshot received from the leader during
// recovery sync and, for durable replicas, persists it immediately (the
// old log no longer matches the tree).
func (r *Replica) restoreFromSync(snap *ztree.Snapshot) {
	r.tree.Restore(snap)
	if r.persister != nil {
		// The peer updates its commit position before calling Restore.
		// Failure to persist the synced snapshot means this replica's
		// durable state is stale AND its disk is suspect: the failure
		// latched in the persister, whose OnFail has degraded the replica
		// already (and the sticky failure blocks later Records anyway).
		// The other error, ErrClosed, only comes while the replica closes.
		_ = r.persister.Snapshot(r.peer.LastCommitted())
	}
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
	r.abortWrites()
}

// Degraded reports whether the replica refused further writes after a
// persistence failure.
func (r *Replica) Degraded() bool { return r.degraded.Load() }

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
		r.seqHint = make(map[string]int32)
		// Aborted, not committed: reads waiting behind the writes get
		// CONNECTIONLOSS instead of hanging across the failover.
		r.abortWrites()
	}
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}
