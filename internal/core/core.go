// Package core assembles the complete SecureKeeper system and the two
// baselines the paper evaluates against:
//
//   - Vanilla: plaintext client connections, plaintext storage — the
//     unmodified coordination service.
//   - TLS: secure-channel client connections terminated in untrusted
//     server code, plaintext storage — "TLS-ZK".
//   - SecureKeeper: secure-channel client connections terminated inside
//     a per-client entry enclave, storage encryption of paths and
//     payloads, and a counter enclave on the leader for sequential
//     nodes (§4).
//
// A Cluster runs an ensemble of replicas connected by the in-process
// broadcast network, accepts client connections over in-process pipes
// or TCP, and wires up the SGX runtime, attestation and key management
// per variant.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/enclave"
	"securekeeper/internal/obs"
	"securekeeper/internal/server"
	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
)

// Variant selects the system under test.
type Variant int

// Cluster variants, matching the evaluation's three configurations.
const (
	Vanilla Variant = iota + 1
	TLS
	SecureKeeper
)

// String returns the graph-label name of the variant.
func (v Variant) String() string {
	switch v {
	case Vanilla:
		return "Vanilla-ZK"
	case TLS:
		return "TLS-ZK"
	case SecureKeeper:
		return "SecureKeeper"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config parameterizes a cluster.
type Config struct {
	// Variant selects Vanilla, TLS or SecureKeeper.
	Variant Variant
	// Replicas is the voting-ensemble size (default 3).
	Replicas int
	// Observers adds that many non-voting replicas (ids after the
	// voters): they replay the committed stream and serve reads and
	// watches without widening the quorum.
	Observers int
	// TickInterval and ElectionTimeout tune the broadcast protocol.
	TickInterval    time.Duration
	ElectionTimeout time.Duration
	// ApplySGXLatency makes the simulated enclave-crossing and paging
	// costs real wall-clock time (end-to-end benchmarks); when false
	// they are only accounted in the runtime's meter.
	ApplySGXLatency bool
	// SGXCost overrides the default cost model (ablation studies).
	SGXCost *sgx.CostModel
	// DataDir, when set, makes every replica durable: replica i keeps
	// its WAL and snapshots under DataDir/r<i+1>. A restarted replica
	// then recovers from disk instead of snapshot-syncing from scratch.
	DataDir       string
	SnapshotEvery int
	// WrapTransport, when set, wraps each replica's peer transport —
	// the seam the chaos injector hooks to impose drops, delays and
	// partitions on the in-process ensemble. reg is the host's metrics
	// registry, so the wrapper's fault counters land on that replica's
	// scrape. Applied again on RestartReplica.
	WrapTransport func(id zab.PeerID, inner zab.Transport, reg *obs.Registry) zab.Transport
}

// Cluster errors.
var (
	ErrNoLeader       = errors.New("core: no leader elected")
	ErrReplicaStopped = errors.New("core: replica is stopped")
)

// replicaHost bundles one replica with its machine-local SGX state.
type replicaHost struct {
	replica  *server.Replica
	identity *transport.Identity
	runtime  *sgx.Runtime // nil except SecureKeeper
	counter  *enclave.Counter
	sealed   *enclave.SealedKeyStore
	obs      *obs.Registry
	stopped  bool
	// provMu guards entryProvisioned, which records whether the initial
	// remote attestation for the entry-enclave measurement has happened
	// on this replica; later enclaves unseal instead (§4.5).
	provMu           sync.Mutex
	entryProvisioned bool
	// entryCache is where the path-chunk caches of the host's entry
	// enclaves, one per client connection, count together.
	entryCache skcrypto.CacheCounters
}

// newKeyServer builds the variant's key-release administrator. A nil
// storageKey generates a fresh random key (single-process ensembles); a
// multi-process ensemble passes the same key to every replica, playing
// the role of the paper's central key server that all enclaves attest
// against.
func newKeyServer(storageKey []byte) (*enclave.KeyServer, error) {
	trusted := []sgx.Measurement{
		sgx.MeasureCode(enclave.EntryCodeIdentity),
		sgx.MeasureCode(enclave.CounterCodeIdentity),
	}
	if storageKey != nil {
		return enclave.NewKeyServerWithKey(storageKey, trusted...)
	}
	return enclave.NewKeyServer(trusted...)
}

// buildHost assembles one replica host: channel identity, the SGX
// runtime and counter enclave for SecureKeeper, and the replica itself
// on the given peer transport. Shared by the in-process Cluster and the
// process-per-replica Node. reg is the host's metrics registry (one per
// host, like production; instrumentation is always on — exposition is
// what's opt-in).
func buildHost(variant Variant, ks *enclave.KeyServer, cost *sgx.CostModel, applyLatency bool, reg *obs.Registry, scfg server.Config) (*replicaHost, error) {
	host := &replicaHost{obs: reg}
	identity, err := transport.NewIdentity()
	if err != nil {
		return nil, err
	}
	host.identity = identity

	scfg.SeqAppend = server.PlainSequenceAppender
	scfg.Obs = reg
	if variant == SecureKeeper {
		c := sgx.DefaultCostModel()
		if cost != nil {
			c = *cost
		}
		host.runtime = sgx.NewRuntime(sgx.EPCUsableBytes, c, applyLatency)
		registerEcallMetrics(reg, host.runtime)
		registerCacheMetrics(reg, "entry", host.entryCache.Stats)
		host.sealed = enclave.NewSealedKeyStore()
		ks.TrustPlatform(host.runtime.QuoteVerificationKey())

		counter, err := enclave.NewCounter(host.runtime)
		if err != nil {
			return nil, err
		}
		if err := enclave.ProvisionCounter(counter, ks, host.sealed); err != nil {
			return nil, err
		}
		host.counter = counter
		registerCacheMetrics(reg, "counter", counter.CacheStats)
		scfg.SeqAppend = counter.AppendSequence
	}

	host.replica = server.NewReplica(scfg)
	return host, nil
}

// registerEcallMetrics hooks the SGX runtime's ecall observer into the
// host registry: one crossing counter, one latency histogram and one
// messages-per-crossing histogram per ecall kind (entry
// request/response, counter sequence). The observer fires on every
// enclave crossing, so the lookup is a prebuilt map hit — no registry
// scan on the hot path.
func registerEcallMetrics(reg *obs.Registry, rt *sgx.Runtime) {
	if reg == nil {
		return
	}
	type instruments struct {
		count *obs.Counter
		lat   *obs.Histogram
		msgs  *obs.Histogram
	}
	instrument := func(op string) instruments {
		labels := fmt.Sprintf("op=%q", op)
		return instruments{
			count: reg.Counter("enclave_ecalls_total", labels,
				"Enclave crossings by ecall kind."),
			lat: reg.Histogram("enclave_ecall_seconds", labels,
				"Full ecall crossing latency, simulated SGX transition costs included."),
			msgs: reg.CountHistogram("enclave_msgs_per_ecall", labels,
				"Messages one crossing carried: what the session reader or releaser held when it entered the enclave."),
		}
	}
	byName := map[string]instruments{
		enclave.EcallRequest:  instrument(enclave.EcallRequest),
		enclave.EcallResponse: instrument(enclave.EcallResponse),
		enclave.EcallSequence: instrument(enclave.EcallSequence),
	}
	other := instrument("other")
	rt.SetEcallObserver(func(name string, msgs int, durNs int64) {
		p, ok := byName[name]
		if !ok {
			p = other
		}
		p.count.Inc()
		p.lat.Observe(durNs)
		p.msgs.Observe(int64(msgs))
	})
}

// registerCacheMetrics exposes the path-chunk cache counters of one
// kind of enclave, per direction: enc maps a plaintext path prefix to
// its encrypted chunk, dec an encrypted chunk back. hits/(hits+misses)
// is the share of path crypto the cache saved; evictions against misses
// says how much of what it holds is pushed out before anyone asks again.
func registerCacheMetrics(reg *obs.Registry, kind string, stats func() (enc, dec skcrypto.CacheStats)) {
	if reg == nil {
		return
	}
	for i, dir := range []string{"enc", "dec"} {
		labels := fmt.Sprintf("enclave=%q,dir=%q", kind, dir)
		one := func() skcrypto.CacheStats {
			enc, dec := stats()
			if i == 0 {
				return enc
			}
			return dec
		}
		reg.CounterFunc("skcrypto_path_cache_hits_total", labels,
			"Path-chunk cache lookups that found their chunk.", func() int64 { return one().Hits })
		reg.CounterFunc("skcrypto_path_cache_misses_total", labels,
			"Path-chunk cache lookups that went on to encrypt or decrypt.", func() int64 { return one().Misses })
		reg.CounterFunc("skcrypto_path_cache_evictions_total", labels,
			"Chunks pushed out of a full path-chunk cache.", func() int64 { return one().Evictions })
	}
}

// hostEntryEnclave instantiates and provisions a per-client entry
// enclave on the host's SGX runtime: the first one on a replica is
// remote-attested by the key server; subsequent ones unseal the key
// blob the first left behind (§4.5).
func hostEntryEnclave(ks *enclave.KeyServer, host *replicaHost) (*enclave.Entry, error) {
	entry, err := enclave.NewEntry(host.runtime)
	if err != nil {
		return nil, err
	}
	entry.CountCacheIn(&host.entryCache)
	host.provMu.Lock()
	provisioned := host.entryProvisioned
	host.provMu.Unlock()
	if provisioned {
		if err := enclave.UnsealEntry(entry, host.sealed); err == nil {
			return entry, nil
		}
		// Sealed blob missing or damaged: fall back to attestation.
	}
	if err := enclave.ProvisionEntry(entry, ks, host.sealed); err != nil {
		entry.Close()
		return nil, err
	}
	host.provMu.Lock()
	host.entryProvisioned = true
	host.provMu.Unlock()
	return entry, nil
}

// serveExternalHost serves an externally accepted (e.g. TCP) connection
// with the variant's full stack. Blocks until the session ends.
func serveExternalHost(variant Variant, ks *enclave.KeyServer, host *replicaHost, conn transport.Conn) error {
	switch variant {
	case Vanilla:
		return host.replica.ServeConn(conn, server.NopInterceptor{})
	case TLS:
		sc, err := transport.Handshake(conn, host.identity, false, transport.VerifyAny())
		if err != nil {
			return err
		}
		return host.replica.ServeConn(sc, server.NopInterceptor{})
	case SecureKeeper:
		entry, err := hostEntryEnclave(ks, host)
		if err != nil {
			return err
		}
		defer entry.Close()
		sc, err := transport.Handshake(conn, host.identity, false, transport.VerifyAny())
		if err != nil {
			return err
		}
		return host.replica.ServeConn(sc, &entryInterceptor{entry: entry})
	default:
		return fmt.Errorf("core: unknown variant %d", variant)
	}
}

// Cluster is a running ensemble.
type Cluster struct {
	cfg       Config
	net       *zab.Network
	keyServer *enclave.KeyServer

	mu    sync.Mutex
	hosts []*replicaHost
	wg    sync.WaitGroup
}

// NewCluster starts an ensemble and waits for leader election.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Variant == 0 {
		cfg.Variant = Vanilla
	}
	c := &Cluster{cfg: cfg, net: zab.NewNetwork()}
	peers, observers := c.memberIDs()

	// SecureKeeper: one storage key shared by all enclaves, released
	// only after attestation.
	if cfg.Variant == SecureKeeper {
		ks, err := newKeyServer(nil)
		if err != nil {
			return nil, err
		}
		c.keyServer = ks
	}

	for i := 0; i < cfg.Replicas+cfg.Observers; i++ {
		host, err := c.newHost(peers, observers, zab.PeerID(i+1))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.hosts = append(c.hosts, host)
	}

	// Wait for the ensemble to elect a leader.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.LeaderIndex() >= 0 {
			return c, nil
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	return nil, ErrNoLeader
}

func (c *Cluster) newHost(peers, observers []zab.PeerID, id zab.PeerID) (*replicaHost, error) {
	reg := obs.NewRegistry()
	var tr zab.Transport = c.net.Endpoint(id)
	if c.cfg.WrapTransport != nil {
		tr = c.cfg.WrapTransport(id, tr, reg)
	}
	scfg := server.Config{
		ID:              id,
		Peers:           peers,
		Observers:       observers,
		Transport:       tr,
		TickInterval:    c.cfg.TickInterval,
		ElectionTimeout: c.cfg.ElectionTimeout,
	}
	if c.cfg.DataDir != "" {
		scfg.DataDir = fmt.Sprintf("%s/r%d", c.cfg.DataDir, id)
		scfg.SnapshotEvery = c.cfg.SnapshotEvery
	}
	return buildHost(c.cfg.Variant, c.keyServer, c.cfg.SGXCost, c.cfg.ApplySGXLatency, reg, scfg)
}

// Variant returns the cluster's configuration variant.
func (c *Cluster) Variant() Variant { return c.cfg.Variant }

// Size returns the total member count (voters plus observers).
func (c *Cluster) Size() int { return len(c.hosts) }

// Voters returns the voting-ensemble size; hosts with index >= Voters()
// are observers.
func (c *Cluster) Voters() int { return c.cfg.Replicas }

// IsObserver reports whether replica i is a non-voting member.
func (c *Cluster) IsObserver(i int) bool { return i >= c.cfg.Replicas }

// Replica returns the i-th replica (tests and experiments).
func (c *Cluster) Replica(i int) *server.Replica { return c.hosts[i].replica }

// Runtime returns the i-th replica's SGX runtime (nil for baselines).
func (c *Cluster) Runtime(i int) *sgx.Runtime { return c.hosts[i].runtime }

// Obs returns the i-th replica's metrics registry.
func (c *Cluster) Obs(i int) *obs.Registry { return c.hosts[i].obs }

// LeaderIndex returns the index of the current leader, or -1.
func (c *Cluster) LeaderIndex() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, host := range c.hosts {
		if !host.stopped && host.replica.IsLeader() {
			return i
		}
	}
	return -1
}

// WaitForLeader blocks until a leader exists or the timeout expires.
func (c *Cluster) WaitForLeader(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if i := c.LeaderIndex(); i >= 0 {
			return i, nil
		}
		time.Sleep(time.Millisecond)
	}
	return -1, ErrNoLeader
}

// StopReplica simulates a crash of replica i: its network endpoint goes
// down and its sessions drop (Fig 12 fault injection).
func (c *Cluster) StopReplica(i int) {
	c.mu.Lock()
	host := c.hosts[i]
	if host.stopped {
		c.mu.Unlock()
		return
	}
	host.stopped = true
	c.mu.Unlock()

	c.net.SetDown(zab.PeerID(i+1), true)
	host.replica.Close()
}

// memberIDs lists the ensemble's voter and observer identities (ids
// are 1-based; observers follow the voters).
func (c *Cluster) memberIDs() (peers, observers []zab.PeerID) {
	peers = make([]zab.PeerID, c.cfg.Replicas)
	for i := range peers {
		peers[i] = zab.PeerID(i + 1)
	}
	observers = make([]zab.PeerID, c.cfg.Observers)
	for i := range observers {
		observers[i] = zab.PeerID(c.cfg.Replicas + i + 1)
	}
	return peers, observers
}

// RestartReplica brings a stopped replica back under the same ensemble
// identity: a fresh host rejoins over the shared network, resyncing its
// state from the leader (or recovering from its DataDir slice when the
// cluster is durable). This is the in-process counterpart of the
// multi-process harness's kill-and-re-exec, and the primitive behind
// chaos leader-churn schedules.
func (c *Cluster) RestartReplica(i int) error {
	c.mu.Lock()
	if i < 0 || i >= len(c.hosts) {
		c.mu.Unlock()
		return fmt.Errorf("core: restart replica %d of %d", i, len(c.hosts))
	}
	if !c.hosts[i].stopped {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()

	peers, observers := c.memberIDs()
	// Drop everything addressed to the previous incarnation BEFORE the
	// new peer starts consuming: stale election votes in the mailbox
	// could hand the fresh, empty-logged peer a ghost quorum and wipe
	// committed state when the survivors resync from it.
	c.net.Flush(zab.PeerID(i + 1))
	host, err := c.newHost(peers, observers, zab.PeerID(i+1))
	if err != nil {
		return err
	}
	c.net.SetDown(zab.PeerID(i+1), false)
	c.mu.Lock()
	old := c.hosts[i]
	c.hosts[i] = host
	c.mu.Unlock()
	// The crashed host's replica is already closed (StopReplica); only
	// its enclave resources remain to reclaim.
	if old.counter != nil {
		old.counter.Close()
	}
	return nil
}

// Stopped reports whether replica i has been stopped.
func (c *Cluster) Stopped(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hosts[i].stopped
}

// Close stops all replicas and the peer network.
func (c *Cluster) Close() {
	c.mu.Lock()
	hosts := append([]*replicaHost(nil), c.hosts...)
	c.mu.Unlock()
	for i, host := range hosts {
		if host == nil {
			continue
		}
		c.mu.Lock()
		stopped := host.stopped
		host.stopped = true
		c.mu.Unlock()
		if !stopped {
			c.net.SetDown(zab.PeerID(i+1), true)
			host.replica.Close()
		}
		if host.counter != nil {
			host.counter.Close()
		}
	}
	c.net.Close()
	c.wg.Wait()
}

// Connect opens a client session to replica i, wiring the transport and
// enclave stack dictated by the variant.
func (c *Cluster) Connect(i int, opts client.Options) (*client.Client, error) {
	c.mu.Lock()
	host := c.hosts[i]
	stopped := host.stopped
	c.mu.Unlock()
	if stopped {
		return nil, ErrReplicaStopped
	}

	clientEnd, serverEnd := transport.NewChanPipe()

	switch c.cfg.Variant {
	case Vanilla:
		c.serve(host, serverEnd, server.NopInterceptor{})
		return client.NewSession(clientEnd, opts)

	case TLS:
		c.serveTLS(host, serverEnd, nil)
		return c.connectSecure(clientEnd, host, opts)

	case SecureKeeper:
		entry, err := c.newEntryEnclave(host)
		if err != nil {
			return nil, err
		}
		c.serveTLS(host, serverEnd, entry)
		return c.connectSecure(clientEnd, host, opts)

	default:
		return nil, fmt.Errorf("core: unknown variant %d", c.cfg.Variant)
	}
}

// newEntryEnclave provisions a per-client entry enclave on the host.
func (c *Cluster) newEntryEnclave(host *replicaHost) (*enclave.Entry, error) {
	return hostEntryEnclave(c.keyServer, host)
}

// serve runs a plaintext server-side session.
func (c *Cluster) serve(host *replicaHost, conn transport.Conn, icept server.Interceptor) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = host.replica.ServeConn(conn, icept)
	}()
}

// serveTLS handshakes the secure channel server-side (with the entry
// enclave's identity when present) and serves the session.
func (c *Cluster) serveTLS(host *replicaHost, conn transport.Conn, entry *enclave.Entry) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if entry != nil {
			defer entry.Close()
		}
		sc, err := transport.Handshake(conn, host.identity, false, transport.VerifyAny())
		if err != nil {
			_ = conn.Close()
			return
		}
		var icept server.Interceptor = server.NopInterceptor{}
		if entry != nil {
			icept = &entryInterceptor{entry: entry}
		}
		_ = host.replica.ServeConn(sc, icept)
	}()
}

// connectSecure handshakes the client side of the secure channel,
// pinning the replica's public key (received out of band, §4.1).
func (c *Cluster) connectSecure(conn transport.Conn, host *replicaHost, opts client.Options) (*client.Client, error) {
	id, err := transport.NewIdentity()
	if err != nil {
		return nil, err
	}
	sc, err := transport.Handshake(conn, id, true, transport.VerifyExact(host.identity.Public))
	if err != nil {
		return nil, err
	}
	return client.NewSession(sc, opts)
}

// ServeExternal serves an externally accepted (e.g. TCP) connection
// against replica i using the variant's full stack: plaintext for
// Vanilla, secure channel for TLS, secure channel terminated at a fresh
// entry enclave for SecureKeeper. Blocks until the session ends.
func (c *Cluster) ServeExternal(i int, conn transport.Conn) error {
	c.mu.Lock()
	host := c.hosts[i]
	stopped := host.stopped
	c.mu.Unlock()
	if stopped {
		return ErrReplicaStopped
	}
	return serveExternalHost(c.cfg.Variant, c.keyServer, host, conn)
}

// ReplicaPublicKey returns replica i's channel identity public key, the
// value a client pins out of band (§4.1).
func (c *Cluster) ReplicaPublicKey(i int) []byte {
	return append([]byte(nil), c.hosts[i].identity.Public...)
}

// entryInterceptor adapts the entry enclave to the server's
// interception points: one ecall per burst. The session reader is the
// only caller of OnRequests and the releaser of OnResponses, so each
// direction reuses its own result slice, as the entry reuses the packed
// buffer the results lie in.
type entryInterceptor struct {
	entry       *enclave.Entry
	reqs, resps [][]byte
}

var _ server.Interceptor = (*entryInterceptor)(nil)

// OnRequests implements server.Interceptor.
func (ei *entryInterceptor) OnRequests(msgs [][]byte) (_ [][]byte, err error) {
	ei.reqs, err = ei.entry.ProcessRequests(msgs, ei.reqs[:0])
	return ei.reqs, err
}

// OnResponses implements server.Interceptor.
func (ei *entryInterceptor) OnResponses(msgs [][]byte) (_ [][]byte, err error) {
	ei.resps, err = ei.entry.ProcessResponses(msgs, ei.resps[:0])
	return ei.resps, err
}

// StorageCodec returns a codec holding the cluster's storage key the
// way a freshly attested enclave would obtain it, letting tests inspect
// what the untrusted tree actually stores. Returns nil for baselines.
func (c *Cluster) StorageCodec() *skcrypto.Codec {
	if c.cfg.Variant != SecureKeeper {
		return nil
	}
	host := c.hosts[0]
	entry, err := enclave.NewEntry(host.runtime)
	if err != nil {
		return nil
	}
	defer entry.Close()
	quote := entry.Enclave().GenerateQuote(nil)
	key, err := c.keyServer.Release(quote)
	if err != nil {
		return nil
	}
	codec, err := skcrypto.NewCodec(key)
	if err != nil {
		return nil
	}
	return codec
}

// OpName maps an op code to the row label used in the paper's tables.
func OpName(op wire.OpCode) string { return op.String() }
