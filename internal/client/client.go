// Package client implements the coordination-service client library:
// session establishment, synchronous and asynchronous (pipelined)
// operations, watch notification delivery, atomic multi-op
// transactions, and response demultiplexing. The client is oblivious
// to SecureKeeper: encryption happens in the transport layer (secure
// channel) and on the replica side (entry enclave), so the paper's
// claim of an (almost) unchanged client holds here too.
//
// API v2: every synchronous operation takes a context.Context whose
// deadline/cancellation is plumbed into the Future layer (a cancelled
// call abandons the wire response without leaking its pooled Future);
// watch-taking operations return a typed *Watch handle with a
// per-subscription event channel (see watch.go); and Txn builds atomic
// multi-op transactions committed under one zxid (see txn.go).
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
)

// Client errors.
var (
	ErrClosed     = errors.New("client: closed")
	ErrShortReply = errors.New("client: malformed reply")
)

// ReadPreference selects which ensemble member Dial settles on. Writes
// always reach the leader (replicas forward them over the broadcast
// mesh); the preference decides where this session's READS are served.
type ReadPreference int32

// Read preferences.
const (
	// Nearest accepts the first reachable member — voter or observer.
	// The default: reads scale across whatever is closest.
	Nearest ReadPreference = iota
	// Leader insists on the current leader: reads observe every commit
	// the moment it is acknowledged, with no replication lag.
	Leader
	// ObserverOnly insists on a non-voting observer: read load stays
	// entirely off the voting quorum.
	ObserverOnly
)

// String returns the mnemonic used in errors and logs.
func (p ReadPreference) String() string {
	switch p {
	case Nearest:
		return "nearest"
	case Leader:
		return "leader"
	case ObserverOnly:
		return "observer-only"
	default:
		return fmt.Sprintf("ReadPreference(%d)", int32(p))
	}
}

// Options configure a client session.
type Options struct {
	// ReadPreference steers Dial's choice of ensemble member (see the
	// constants). Ignored by NewSession, which serves whatever single
	// connection it is handed.
	ReadPreference ReadPreference
	// Secure runs the secure-channel handshake after Dial connects
	// (the tls and securekeeper server variants require it).
	Secure bool
	// VerifyPeer pins the server identity for Secure dials; nil
	// accepts any peer (demo mode — production clients pin the
	// enclave key received out of band, §4.1).
	VerifyPeer transport.PeerVerifier
}

// Result is the outcome of an asynchronous call.
type Result struct {
	Op   wire.OpCode
	Zxid int64
	Err  error

	// Populated per operation type.
	Data        []byte
	Stat        wire.Stat
	Path        string
	Children    []string
	Multi       []wire.MultiOpResult
	ServerStats wire.ServerStatsResponse
	Reconfig    wire.ReconfigResponse
}

// Future resolves to a Result when the response arrives. A Future is
// waited once: Wait hands the future back to the client together with
// its result, and the caller must not use it afterwards — a second
// Wait, or a Done after Wait, may meet another call's result. A future
// whose result is read through Done instead stays with the caller and
// is never reused.
type Future struct {
	ch chan Result
}

// Wait blocks for the result and recycles the future (see Future).
func (f *Future) Wait() Result {
	res := <-f.ch
	futurePool.Put(f)
	return res
}

// Done exposes the completion channel for select loops. A future read
// through it is not recycled.
func (f *Future) Done() <-chan Result { return f.ch }

// futurePool recycles futures: a Future and its 1-buffered channel are
// three objects a call would otherwise allocate. A future receives
// exactly one result; once that result has been consumed (or provably
// never sent) the future goes back here, so a pooled future's channel
// is always empty. Wait recycles, and so does every synchronous call;
// a future read through Done escapes to a caller who may hold the
// channel indefinitely, and is left to the collector.
var futurePool = sync.Pool{
	New: func() any { return &Future{ch: make(chan Result, 1)} },
}

type call struct {
	op     wire.OpCode
	future *Future
	// watch, when set, is the subscription this call arms: the receive
	// loop marks it armed (eligible for event delivery) the moment the
	// call's response is processed, so an in-flight event from an OLDER
	// subscription on the same path can never consume this handle's
	// one-shot delivery with a change its own read already observed.
	watch *Watch
}

// Client is one session with a replica.
type Client struct {
	conn      transport.Conn
	sessionID int64

	// lastZxid is the highest zxid observed in any reply header —
	// written only by the receive loop, read by LastZxid. It is the
	// session's commit frontier: a client that reconnects elsewhere can
	// hand it to Sync-style barriers or compare it against another
	// member's committed zxid to detect stale reads.
	lastZxid atomic.Int64
	mu       sync.Mutex
	xid      int32 // the last xid handed out (see nextXid)
	pending  map[int32]call
	watches  map[watchKey]map[*Watch]struct{}
	closed   bool
	readErr  error

	recvDone chan struct{}
}

// NewSession establishes a session over an already-connected transport.
// Callers who hold addresses rather than a connection should use Dial.
func NewSession(conn transport.Conn, opts Options) (*Client, error) {
	req := wire.ConnectRequest{TimeoutMillis: wire.SessionTimeoutMillis}
	if err := conn.SendFrame(wire.Marshal(&req)); err != nil {
		return nil, fmt.Errorf("client: send connect: %w", err)
	}
	frame, err := conn.RecvFrame()
	if err != nil {
		return nil, fmt.Errorf("client: recv connect: %w", err)
	}
	var resp wire.ConnectResponse
	if err := wire.Unmarshal(frame, &resp); err != nil {
		return nil, fmt.Errorf("client: parse connect: %w", err)
	}
	c := &Client{
		conn:      conn,
		sessionID: resp.SessionID,
		pending:   make(map[int32]call),
		watches:   make(map[watchKey]map[*Watch]struct{}),
		recvDone:  make(chan struct{}),
	}
	go c.recvLoop()
	return c, nil
}

// SessionID returns the server-assigned session identifier.
func (c *Client) SessionID() int64 { return c.sessionID }

// LastZxid returns the highest zxid seen in any reply on this session
// — the commit frontier this client has provably observed.
func (c *Client) LastZxid() int64 { return c.lastZxid.Load() }

// Close terminates the session and the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	xid := c.nextXid()
	c.mu.Unlock()

	hdr := wire.RequestHeader{Xid: xid, Op: wire.OpCloseSession}
	_ = c.conn.SendFrame(wire.MarshalPair(&hdr, nil))
	err := c.conn.Close()
	<-c.recvDone
	c.closeAllWatches()
	return err
}

func (c *Client) recvLoop() {
	defer close(c.recvDone)
	for {
		frame, err := c.conn.RecvFrame()
		if err != nil {
			c.failAll(err)
			return
		}
		var hdr wire.ReplyHeader
		var d wire.Decoder
		d.Reset(frame)
		if err := hdr.Deserialize(&d); err != nil {
			c.failAll(fmt.Errorf("%w: %v", ErrShortReply, err))
			return
		}
		if hdr.Xid == wire.WatcherEventXid {
			var ev wire.WatcherEvent
			if err := ev.Deserialize(&d); err == nil {
				c.dispatchEvent(ev)
			}
			continue
		}
		if hdr.Xid == wire.PingXid {
			continue
		}
		if hdr.Zxid > c.lastZxid.Load() {
			c.lastZxid.Store(hdr.Zxid)
		}
		c.mu.Lock()
		ca, ok := c.pending[hdr.Xid]
		if ok {
			delete(c.pending, hdr.Xid)
			if ca.watch != nil {
				// Arm before any later frame is read: the server sends a
				// watch's own events strictly after this response, so
				// everything the armed subscription now receives is a
				// change that happened after its read.
				ca.watch.armed = true
			}
		}
		c.mu.Unlock()
		if !ok {
			continue
		}
		ca.future.ch <- decodeResult(ca.op, hdr, frame[d.Offset():])
	}
}

func (c *Client) failAll(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed) {
		err = ErrClosed
	}
	c.mu.Lock()
	c.readErr = err
	pending := c.pending
	c.pending = make(map[int32]call)
	c.mu.Unlock()
	for _, ca := range pending {
		ca.future.ch <- Result{Op: ca.op, Err: err}
	}
	c.closeAllWatches()
}

// decodeResult turns a reply into the call's Result. body lies in the
// connection's receive buffer, which the next receive reuses: the
// decoder copies every field a Result keeps (a GET's Data, a CREATE's
// Path) and nothing else is made. Each response record is decoded by a
// concrete call, so it and the decoder stay on this stack.
func decodeResult(op wire.OpCode, hdr wire.ReplyHeader, body []byte) Result {
	res := Result{Op: op, Zxid: hdr.Zxid}
	var d wire.Decoder
	d.Reset(body)
	if hdr.Err != wire.ErrOK {
		res.Err = hdr.Err.Error()
		if op == wire.OpMulti {
			// An aborted multi still carries its per-op result body,
			// telling the caller which sub-op failed.
			var resp wire.MultiResponse
			if d.Finish(resp.Deserialize(&d)) == nil {
				res.Multi = resp.Results
			}
		}
		return res
	}
	var err error
	switch op {
	case wire.OpCreate, wire.OpSync:
		var resp wire.PathRecord
		if err = d.Finish(resp.Deserialize(&d)); err == nil {
			res.Path = resp.Path
		}
	case wire.OpGetData:
		var resp wire.GetDataResponse
		if err = d.Finish(resp.Deserialize(&d)); err == nil {
			res.Data, res.Stat = resp.Data, resp.Stat
		}
	case wire.OpSetData, wire.OpExists:
		var resp wire.StatRecord
		if err = d.Finish(resp.Deserialize(&d)); err == nil {
			res.Stat = resp.Stat
		}
	case wire.OpGetChildren:
		var resp wire.GetChildrenResponse
		if err = d.Finish(resp.Deserialize(&d)); err == nil {
			res.Children = resp.Children
		}
	case wire.OpMulti:
		var resp wire.MultiResponse
		if err = d.Finish(resp.Deserialize(&d)); err == nil {
			res.Multi = resp.Results
		}
	case wire.OpServerStats:
		var resp wire.ServerStatsResponse
		if err = d.Finish(resp.Deserialize(&d)); err == nil {
			res.ServerStats = resp
		}
	case wire.OpReconfig:
		var resp wire.ReconfigResponse
		if err = d.Finish(resp.Deserialize(&d)); err == nil {
			res.Reconfig = resp
		}
	}
	// Every other reply (DELETE, CLOSE, PING) is its header alone.
	if err != nil {
		res.Err = fmt.Errorf("%w: %v", ErrShortReply, err)
	}
	return res
}

// nextXid hands out the next request xid: 1 up to MaxInt32, then 1
// again. Zero and the negative xids are the server's — WatcherEventXid,
// PingXid, and the -3 under which a replica closes a dropped session —
// and a reply under one of them would never reach its caller. Caller
// holds c.mu.
func (c *Client) nextXid() int32 {
	if c.xid == math.MaxInt32 {
		c.xid = 0
	}
	c.xid++
	return c.xid
}

// request starts the request frame of op: a pooled encoder holding the
// header, whose xid submit fills in. The caller serializes the body, if
// the request has one, with a concrete call — the record stays on its
// stack — and hands the encoder to submit or do.
func request(op wire.OpCode) *wire.Encoder {
	hdr := wire.RequestHeader{Op: op}
	e := wire.GetEncoder()
	hdr.Serialize(e)
	return e
}

// The request frames of the typed calls, one function per wire shape.

func readRequest(op wire.OpCode, path string, watch bool) *wire.Encoder {
	e := request(op)
	req := wire.ReadRequest{Path: path, Watch: watch}
	req.Serialize(e)
	return e
}

func createRequest(path string, data []byte, flags wire.CreateFlags) *wire.Encoder {
	e := request(wire.OpCreate)
	req := wire.CreateRequest{Path: path, Data: data, Flags: flags}
	req.Serialize(e)
	return e
}

func setRequest(path string, data []byte, version int32) *wire.Encoder {
	e := request(wire.OpSetData)
	req := wire.SetDataRequest{Path: path, Data: data, Version: version}
	req.Serialize(e)
	return e
}

func deleteRequest(path string, version int32) *wire.Encoder {
	e := request(wire.OpDelete)
	req := wire.DeleteRequest{Path: path, Version: version}
	req.Serialize(e)
	return e
}

func syncRequest(path string) *wire.Encoder {
	e := request(wire.OpSync)
	req := wire.SyncRequest{Path: path}
	req.Serialize(e)
	return e
}

func multiRequest(ops []wire.MultiOp) *wire.Encoder {
	e := request(wire.OpMulti)
	req := wire.MultiRequest{Ops: ops}
	req.Serialize(e)
	return e
}

// submit is the one way a request leaves the client. It gives the frame
// e (see request) its xid, registers the call — with w, the
// subscription the response arms, if any (see call.watch) — sends the
// frame and puts e back. The returned xid identifies the pending entry
// for context cancellation; it is 0 when the future was resolved before
// registration (closed client, prior read error), in which case a
// result is already buffered.
func (c *Client) submit(op wire.OpCode, e *wire.Encoder, w *Watch) (*Future, int32) {
	future := futurePool.Get().(*Future)
	c.mu.Lock()
	err := c.readErr
	if c.closed {
		err = ErrClosed
	}
	if err != nil {
		c.mu.Unlock()
		wire.PutEncoder(e)
		future.ch <- Result{Op: op, Err: err}
		return future, 0
	}
	xid := c.nextXid()
	c.pending[xid] = call{op: op, future: future, watch: w}
	c.mu.Unlock()

	// SendFrame does not retain the payload (transport.Conn contract).
	wire.SetRequestXid(e.Bytes(), xid)
	err = c.conn.SendFrame(e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		// Resolve the future only if it is still ours: failAll (the
		// recvLoop dying concurrently with this failed send) may have
		// already resolved it, and a second send into the 1-buffered
		// channel would block forever.
		c.mu.Lock()
		_, stillOurs := c.pending[xid]
		delete(c.pending, xid)
		c.mu.Unlock()
		if stillOurs {
			future.ch <- Result{Op: op, Err: err}
		}
	}
	return future, xid
}

// do runs one synchronous operation under ctx: submit the request frame
// e (arming w on response, if set), wait, recycle the future.
//
// Cancellation must not leak the pooled future: the pool invariant is
// an EMPTY 1-buffered channel. On ctx expiry the call withdraws its
// pending entry; if the withdrawal wins (the receive loop had not
// claimed the xid) no result can ever be sent, so the empty future is
// recycled immediately. If it loses, a sender is already committed —
// the 1-buffered send never blocks, so the result is consumed (and the
// call succeeds with it: the response did arrive) before recycling.
func (c *Client) do(ctx context.Context, op wire.OpCode, e *wire.Encoder, w *Watch) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		wire.PutEncoder(e)
		return Result{Op: op, Err: err}
	}
	future, xid := c.submit(op, e, w)
	if ctx.Done() == nil {
		return future.Wait()
	}
	select {
	case res := <-future.ch:
		futurePool.Put(future)
		return res
	case <-ctx.Done():
		c.mu.Lock()
		_, stillOurs := c.pending[xid]
		if stillOurs {
			delete(c.pending, xid)
		}
		c.mu.Unlock()
		if stillOurs {
			futurePool.Put(future)
			return Result{Op: op, Err: ctx.Err()}
		}
		return future.Wait()
	}
}

// --- asynchronous API ---
//
// Each call returns a Future, waited once (see Future).

// CreateAsync creates a znode without waiting.
func (c *Client) CreateAsync(path string, data []byte, flags wire.CreateFlags) *Future {
	f, _ := c.submit(wire.OpCreate, createRequest(path, data, flags), nil)
	return f
}

// DeleteAsync deletes a znode without waiting.
func (c *Client) DeleteAsync(path string, version int32) *Future {
	f, _ := c.submit(wire.OpDelete, deleteRequest(path, version), nil)
	return f
}

// GetAsync reads a znode without waiting.
func (c *Client) GetAsync(path string, watch bool) *Future {
	f, _ := c.submit(wire.OpGetData, readRequest(wire.OpGetData, path, watch), nil)
	return f
}

// SetAsync writes a znode without waiting.
func (c *Client) SetAsync(path string, data []byte, version int32) *Future {
	f, _ := c.submit(wire.OpSetData, setRequest(path, data, version), nil)
	return f
}

// ExistsAsync checks a znode without waiting.
func (c *Client) ExistsAsync(path string, watch bool) *Future {
	f, _ := c.submit(wire.OpExists, readRequest(wire.OpExists, path, watch), nil)
	return f
}

// ChildrenAsync lists children without waiting.
func (c *Client) ChildrenAsync(path string, watch bool) *Future {
	f, _ := c.submit(wire.OpGetChildren, readRequest(wire.OpGetChildren, path, watch), nil)
	return f
}

// SyncAsync flushes the leader channel without waiting.
func (c *Client) SyncAsync(path string) *Future {
	f, _ := c.submit(wire.OpSync, syncRequest(path), nil)
	return f
}

// MultiAsync submits an atomic multi-op transaction without waiting.
func (c *Client) MultiAsync(ops []wire.MultiOp) *Future {
	f, _ := c.submit(wire.OpMulti, multiRequest(ops), nil)
	return f
}

// --- synchronous API ---
//
// The plain methods return the operation-specific values. CreateR
// returns the full Result, so a caller that cares about the commit
// coordinate gets the Zxid instead of dropping it: the fenced-lock
// recipe turns it directly into its fencing token (the created node's
// Czxid IS the create op's zxid). For any other op the async API
// carries the Result.

// Create creates a znode and returns its actual path (with the
// sequence suffix for sequential nodes).
func (c *Client) Create(ctx context.Context, path string, data []byte, flags wire.CreateFlags) (string, error) {
	res := c.CreateR(ctx, path, data, flags)
	return res.Path, res.Err
}

// CreateR is Create returning the full Result: Path carries the actual
// (sequence-suffixed) node path and Zxid the creating transaction —
// the node's Czxid, usable as a fencing token without a second read.
func (c *Client) CreateR(ctx context.Context, path string, data []byte, flags wire.CreateFlags) Result {
	return c.do(ctx, wire.OpCreate, createRequest(path, data, flags), nil)
}

// Delete removes a znode; version -1 matches any version.
func (c *Client) Delete(ctx context.Context, path string, version int32) error {
	return c.do(ctx, wire.OpDelete, deleteRequest(path, version), nil).Err
}

// Get reads a znode's payload and Stat.
func (c *Client) Get(ctx context.Context, path string) ([]byte, wire.Stat, error) {
	res := c.do(ctx, wire.OpGetData, readRequest(wire.OpGetData, path, false), nil)
	return res.Data, res.Stat, res.Err
}

// GetW reads a znode and leaves a data watch, returning the
// subscription handle. The watch is armed whether or not the node
// exists (a missing node leaves a creation watch), matching the
// server's registration semantics; on transport failure the handle is
// returned already closed.
func (c *Client) GetW(ctx context.Context, path string) ([]byte, wire.Stat, *Watch, error) {
	w := c.addWatch(path, wire.WatchData)
	res := c.do(ctx, wire.OpGetData, readRequest(wire.OpGetData, path, true), w)
	if res.Err != nil && !isProtocolErr(res.Err) {
		w.Cancel() // request never reached the server: no watch exists
	}
	return res.Data, res.Stat, w, res.Err
}

// Set replaces a znode's payload; version -1 matches any version.
func (c *Client) Set(ctx context.Context, path string, data []byte, version int32) (wire.Stat, error) {
	res := c.do(ctx, wire.OpSetData, setRequest(path, data, version), nil)
	return res.Stat, res.Err
}

// Exists returns the znode's Stat or a NoNode error.
func (c *Client) Exists(ctx context.Context, path string) (wire.Stat, error) {
	res := c.do(ctx, wire.OpExists, readRequest(wire.OpExists, path, false), nil)
	return res.Stat, res.Err
}

// ExistsW checks existence and leaves a watch (data watch if the node
// exists, creation watch otherwise), returning the subscription handle.
func (c *Client) ExistsW(ctx context.Context, path string) (wire.Stat, *Watch, error) {
	w := c.addWatch(path, wire.WatchData)
	res := c.do(ctx, wire.OpExists, readRequest(wire.OpExists, path, true), w)
	if res.Err != nil && !isProtocolErr(res.Err) {
		w.Cancel()
	}
	return res.Stat, w, res.Err
}

// Children lists a znode's children, sorted.
func (c *Client) Children(ctx context.Context, path string) ([]string, error) {
	res := c.do(ctx, wire.OpGetChildren, readRequest(wire.OpGetChildren, path, false), nil)
	return res.Children, res.Err
}

// ChildrenW lists children and leaves a child watch, returning the
// subscription handle. Unlike GetW/ExistsW the server arms no watch on
// a failed listing, so any error closes the handle.
func (c *Client) ChildrenW(ctx context.Context, path string) ([]string, *Watch, error) {
	w := c.addWatch(path, wire.WatchChild)
	res := c.do(ctx, wire.OpGetChildren, readRequest(wire.OpGetChildren, path, true), w)
	if res.Err != nil {
		w.Cancel()
	}
	return res.Children, w, res.Err
}

// Sync flushes the leader-replica channel for a path.
func (c *Client) Sync(ctx context.Context, path string) error {
	return c.do(ctx, wire.OpSync, syncRequest(path), nil).Err
}

// Multi atomically applies the given sub-operations: either every op
// commits under one zxid, or none does and the per-op results report
// which op failed. Most callers should use the Txn builder instead.
func (c *Client) Multi(ctx context.Context, ops []wire.MultiOp) ([]wire.MultiOpResult, error) {
	res := c.do(ctx, wire.OpMulti, multiRequest(ops), nil)
	return res.Multi, res.Err
}

// ServerStats reports the serving replica's identity and load: its
// ensemble role, the leader it follows, its committed zxid, and its
// session/watch/outstanding-proposal counts. The snapshot describes the
// replica this session happens to be connected to, not the ensemble as
// a whole — that is the point: orchestration asks each member directly
// instead of grepping process logs.
func (c *Client) ServerStats(ctx context.Context) (wire.ServerStatsResponse, error) {
	res := c.do(ctx, wire.OpServerStats, request(wire.OpServerStats), nil)
	return res.ServerStats, res.Err
}

// Reconfig submits an incremental membership change — "add" (id, addr)
// joins as an observer, "promote" turns a synced observer into a voter,
// "remove" drops a member. It is a write: it routes through the leader
// and the agreed log, and the response reports the post-change ensemble
// as of the reconfig transaction's zxid. Unsafe changes (unknown peer,
// unsynced joiner, the leader itself, the last voter) are refused with
// BADARGUMENTS.
func (c *Client) Reconfig(ctx context.Context, action string, id int64, addr string) (wire.ReconfigResponse, error) {
	e := request(wire.OpReconfig)
	req := wire.ReconfigRequest{Action: action, ID: id, Addr: addr}
	req.Serialize(e)
	res := c.do(ctx, wire.OpReconfig, e, nil)
	return res.Reconfig, res.Err
}

// isProtocolErr reports whether err is a server-side protocol error
// (the request reached the replica) as opposed to a transport or
// context failure.
func isProtocolErr(err error) bool {
	var pe *wire.ProtocolError
	return errors.As(err, &pe)
}

// Reissue runs op until it returns anything but CONNECTIONLOSS, pausing
// between tries, or until ctx ends. CONNECTIONLOSS is a replica's answer
// to a request it could not hand to a leader: a fresh session's first
// requests while its replica is not yet following a synced leader (right
// after the ensemble starts, or mid-election), or any request across a
// failover. ZooKeeper clients re-issue on it, and so may callers here,
// but only with an op that is safe to run twice: a write lost after it
// was submitted may have committed.
func Reissue(ctx context.Context, op func() error) error {
	for {
		err := op()
		var pe *wire.ProtocolError
		if !errors.As(err, &pe) || pe.Code != wire.ErrConnectionLoss {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(20 * time.Millisecond):
		}
	}
}
