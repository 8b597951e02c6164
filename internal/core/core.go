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

// Cluster is a running ensemble in one process: N Nodes whose peer
// transports are the endpoints of one in-process channel network.
type Cluster struct {
	cfg       Config
	topo      Topology // ids 1..Replicas vote, the rest observe; no addresses
	net       *zab.Network
	keyServer *enclave.KeyServer

	mu    sync.Mutex
	nodes []*Node // nodes[i] has id i+1; a stopped one stays until restarted
}

// NewCluster starts an ensemble and returns once it is ready to serve:
// one replica leads and every other member follows it.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Variant == 0 {
		cfg.Variant = Vanilla
	}
	c := &Cluster{cfg: cfg, net: zab.NewNetwork()}
	c.topo.Voters = make(map[zab.PeerID]string, cfg.Replicas)
	c.topo.Observers = make(map[zab.PeerID]string, cfg.Observers)
	for i := 0; i < cfg.Replicas+cfg.Observers; i++ {
		if c.IsObserver(i) {
			c.topo.Observers[zab.PeerID(i+1)] = ""
		} else {
			c.topo.Voters[zab.PeerID(i+1)] = ""
		}
	}

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
		n, err := c.startNode(zab.PeerID(i + 1))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}

	// No fault can have been injected yet, so wait for everyone.
	if _, err := c.waitStanding(10*time.Second, true); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// startNode builds member id on its endpoint of the channel network.
func (c *Cluster) startNode(id zab.PeerID) (*Node, error) {
	reg := obs.NewRegistry()
	var tr zab.Transport = c.net.Endpoint(id)
	if c.cfg.WrapTransport != nil {
		tr = c.cfg.WrapTransport(id, tr, reg)
	}
	ncfg := NodeConfig{
		Variant:         c.cfg.Variant,
		ID:              id,
		Topology:        c.topo,
		TickInterval:    c.cfg.TickInterval,
		ElectionTimeout: c.cfg.ElectionTimeout,
		ApplySGXLatency: c.cfg.ApplySGXLatency,
		SGXCost:         c.cfg.SGXCost,
	}
	if c.cfg.DataDir != "" {
		ncfg.DataDir = fmt.Sprintf("%s/r%d", c.cfg.DataDir, id)
		ncfg.SnapshotEvery = c.cfg.SnapshotEvery
	}
	return newNode(ncfg, c.keyServer, reg, tr, func() { c.net.SetDown(id, true) })
}

func (c *Cluster) node(i int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// Size returns the total member count (voters plus observers).
func (c *Cluster) Size() int { return c.cfg.Replicas + c.cfg.Observers }

// Voters returns the voting-ensemble size; replicas with index >=
// Voters() are observers.
func (c *Cluster) Voters() int { return c.cfg.Replicas }

// IsObserver reports whether replica i is a non-voting member.
func (c *Cluster) IsObserver(i int) bool { return i >= c.cfg.Replicas }

// Replica returns the i-th replica (tests and experiments).
func (c *Cluster) Replica(i int) *server.Replica { return c.node(i).replica }

// Runtime returns the i-th replica's SGX runtime (nil for baselines).
func (c *Cluster) Runtime(i int) *sgx.Runtime { return c.node(i).runtime }

// Obs returns the i-th replica's metrics registry.
func (c *Cluster) Obs(i int) *obs.Registry { return c.node(i).obs }

// Stopped reports whether replica i has been stopped.
func (c *Cluster) Stopped(i int) bool { return c.node(i).stopped() }

// ReplicaPublicKey returns replica i's channel identity public key, the
// value a client pins out of band (§4.1).
func (c *Cluster) ReplicaPublicKey(i int) []byte { return c.node(i).ReplicaPublicKey() }

// Connect opens a client session to replica i (see Node.Connect);
// ErrReplicaStopped if it is stopped.
func (c *Cluster) Connect(i int, opts client.Options) (*client.Client, error) {
	return c.node(i).Connect(opts)
}

// ServeExternal serves an externally accepted (e.g. TCP) connection
// against replica i (see Node.ServeExternal); ErrReplicaStopped if it is
// stopped. Blocks until the session ends.
func (c *Cluster) ServeExternal(i int, conn transport.Conn) error {
	return c.node(i).ServeExternal(conn)
}

// LeaderIndex returns the index of the current leader, or -1.
func (c *Cluster) LeaderIndex() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, n := range c.nodes {
		if !n.stopped() && n.IsLeader() {
			return i
		}
	}
	return -1
}

// standing returns the index of a live replica that leads with a quorum
// of live voters following it, or -1: a replica is LEADING the moment its
// tally is unanimous, but refuses writes until a quorum has synced with
// it. With everyone set, every other member must be behind it as well,
// voters following and observers observing.
func (c *Cluster) standing(everyone bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for l, leader := range c.nodes {
		if leader.stopped() || !leader.IsLeader() {
			continue
		}
		voters, members := 1, 1
		for i, n := range c.nodes {
			if n.stopped() || n.Leader() != leader.id {
				continue
			}
			switch role := n.Role(); {
			case role == zab.RoleFollowing && !c.IsObserver(i):
				voters++
				members++
			case role == zab.RoleObserving && c.IsObserver(i):
				members++
			}
		}
		if voters > c.cfg.Replicas/2 && (!everyone || members == len(c.nodes)) {
			return l
		}
	}
	return -1
}

func (c *Cluster) waitStanding(timeout time.Duration, everyone bool) (int, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if i := c.standing(everyone); i >= 0 {
			return i, nil
		}
		time.Sleep(time.Millisecond)
	}
	return -1, ErrNoLeader
}

// WaitForLeader blocks until a leader stands with a quorum of the live
// voters following it — the ensemble accepts writes — or the timeout
// expires. Replicas that a fault holds back are not waited for.
func (c *Cluster) WaitForLeader(timeout time.Duration) (int, error) {
	return c.waitStanding(timeout, false)
}

// StopReplica simulates a crash of replica i: its network endpoint goes
// down and its sessions drop (Fig 12 fault injection).
func (c *Cluster) StopReplica(i int) { c.node(i).Close() }

// RestartReplica brings a stopped replica back under the same ensemble
// identity: a fresh node rejoins over the shared network, resyncing its
// state from the leader (or recovering from its DataDir slice when the
// cluster is durable). This is the in-process counterpart of the
// multi-process harness's kill-and-re-exec, and the primitive behind
// chaos leader-churn schedules.
func (c *Cluster) RestartReplica(i int) error {
	if i < 0 || i >= c.Size() {
		return fmt.Errorf("core: restart replica %d of %d", i, c.Size())
	}
	if !c.Stopped(i) {
		return nil
	}
	id := zab.PeerID(i + 1)
	// Drop everything addressed to the previous incarnation BEFORE the
	// new peer starts consuming: stale election votes in the mailbox
	// could hand the fresh, empty-logged peer a ghost quorum and wipe
	// committed state when the survivors resync from it.
	c.net.Flush(id)
	n, err := c.startNode(id)
	if err != nil {
		return err
	}
	c.net.SetDown(id, false)
	c.mu.Lock()
	c.nodes[i] = n
	c.mu.Unlock()
	return nil
}

// Close stops all replicas and the peer network.
func (c *Cluster) Close() {
	c.mu.Lock()
	nodes := append([]*Node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
	c.net.Close()
}

// StorageCodec returns a codec holding the cluster's storage key the
// way a freshly attested enclave would obtain it, letting tests inspect
// what the untrusted tree actually stores. Returns nil for baselines.
func (c *Cluster) StorageCodec() *skcrypto.Codec {
	if c.cfg.Variant != SecureKeeper {
		return nil
	}
	entry, err := enclave.NewEntry(c.Runtime(0))
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

// registerEcallMetrics hooks the SGX runtime's ecall observer into the
// host registry: one crossing counter, one latency histogram and one
// messages-per-crossing histogram per ecall kind (entry
// request/response, counter sequence). The observer fires on every
// enclave crossing, so the lookup is a prebuilt map hit — no registry
// scan on the hot path.
func registerEcallMetrics(reg *obs.Registry, rt *sgx.Runtime) {
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
