package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/zab"
)

// LinkFault describes the per-message behaviour imposed on the peer
// links. The zero value is a healthy link.
type LinkFault struct {
	// Drop is the probability in [0,1] that a message is silently
	// discarded (the zab loss model: the protocol resyncs).
	Drop float64
	// Delay is added to every delivery; Jitter adds a further uniform
	// random amount in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
}

// healthy reports whether the fault is a no-op.
func (f LinkFault) healthy() bool {
	return f.Drop == 0 && f.Delay == 0 && f.Jitter == 0
}

// String renders the fault for schedules and logs.
func (f LinkFault) String() string {
	if f.healthy() {
		return "healthy"
	}
	return fmt.Sprintf("drop=%.2f delay=%v jitter=%v", f.Drop, f.Delay, f.Jitter)
}

// linkKey addresses a DIRECTED link: faults may be asymmetric.
type linkKey struct{ from, to zab.PeerID }

// Injector is the shared fault state consulted by every replica's
// transport shim. One Injector covers one ensemble; all methods are
// safe for concurrent use with message delivery.
type Injector struct {
	mu sync.Mutex
	// rng drives per-message decisions (drop coin flips, jitter).
	// Seeded for reproducibility, but see the package determinism
	// contract: message-level outcomes depend on interleaving.
	rng *rand.Rand
	// fault applies to every link.
	fault LinkFault
	// side assigns each peer to a partition side; peers missing from
	// the map share the implicit side 0. Cross-side messages drop.
	side map[zab.PeerID]int
	// cuts severs individual directed links (asymmetric partitions).
	cuts map[linkKey]bool

	// Aggregate fault accounting (Stats).
	dropped atomic.Int64 // messages eaten by Drop probability
	cut     atomic.Int64 // messages eaten by partitions/cuts
	delayed atomic.Int64 // messages that incurred injected latency
}

// NewInjector returns an injector with no active faults. seed drives
// the per-message randomness only; schedules are planned by Plan.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:  rand.New(rand.NewSource(seed)),
		side: make(map[zab.PeerID]int),
		cuts: make(map[linkKey]bool),
	}
}

// SetDefaults applies f to every link.
func (inj *Injector) SetDefaults(f LinkFault) {
	inj.mu.Lock()
	inj.fault = f
	inj.mu.Unlock()
}

// ClearLinks removes the link fault; partitions and cuts are untouched.
func (inj *Injector) ClearLinks() {
	inj.SetDefaults(LinkFault{})
}

// Partition splits the ensemble: messages flow only within a side.
// Peers not listed share one implicit extra side. An empty call is a
// heal.
func (inj *Injector) Partition(sides ...[]zab.PeerID) {
	inj.mu.Lock()
	inj.side = make(map[zab.PeerID]int)
	for i, members := range sides {
		for _, id := range members {
			inj.side[id] = i + 1 // 0 is the implicit side
		}
	}
	inj.mu.Unlock()
}

// CutOneWay severs the DIRECTED link from→to until the next Heal,
// leaving the reverse direction alone — the asymmetric partition case
// (a can hear b, b cannot hear a) that trips naive failure detectors.
func (inj *Injector) CutOneWay(from, to zab.PeerID) {
	inj.mu.Lock()
	inj.cuts[linkKey{from, to}] = true
	inj.mu.Unlock()
}

// Heal removes every partition and one-way cut (link-quality faults
// persist until ClearLinks).
func (inj *Injector) Heal() {
	inj.mu.Lock()
	inj.side = make(map[zab.PeerID]int)
	inj.cuts = make(map[linkKey]bool)
	inj.mu.Unlock()
}

// decide returns the fate of one message on the directed link from→to:
// whether it is dropped, and if not, how much injected latency it
// incurs before the underlying transport sees it.
func (inj *Injector) decide(from, to zab.PeerID) (drop bool, wait time.Duration) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.side[from] != inj.side[to] || inj.cuts[linkKey{from, to}] {
		inj.cut.Add(1)
		return true, 0
	}
	f := inj.fault
	if f.healthy() {
		return false, 0
	}
	if f.Drop > 0 && inj.rng.Float64() < f.Drop {
		inj.dropped.Add(1)
		return true, 0
	}
	wait = f.Delay
	if f.Jitter > 0 {
		wait += time.Duration(inj.rng.Int63n(int64(f.Jitter)))
	}
	if wait > 0 {
		inj.delayed.Add(1)
	}
	return false, wait
}

// severed reports whether the directed link is currently partitioned
// or cut, counting the loss. Used for delayed deliveries, which paid
// their drop coin when originally sent.
func (inj *Injector) severed(from, to zab.PeerID) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.side[from] != inj.side[to] || inj.cuts[linkKey{from, to}] {
		inj.cut.Add(1)
		return true
	}
	return false
}

// Stats is a snapshot of the injector's aggregate fault accounting.
type Stats struct {
	Dropped, Cut, Delayed int64
}

// Stats snapshots the counters.
func (inj *Injector) Stats() Stats {
	return Stats{
		Dropped: inj.dropped.Load(),
		Cut:     inj.cut.Load(),
		Delayed: inj.delayed.Load(),
	}
}

// Wrap returns a core.Config-compatible transport wrapper: each
// replica's peer transport is shimmed through this injector. The
// registry, which core.Config.WrapTransport's signature passes, is not
// used: the injector's counts are the run's, in Stats.
func (inj *Injector) Wrap(id zab.PeerID, inner zab.Transport, _ *obs.Registry) zab.Transport {
	return &shim{id: id, inner: inner, inj: inj}
}

// shim is the fault-wrapping zab.Transport for one replica. It
// deliberately does NOT implement zab.MultiSender: fan-out falls back
// to per-peer Send, which is what lets every directed link get its own
// drop/delay/partition decision.
type shim struct {
	id    zab.PeerID
	inner zab.Transport
	inj   *Injector
}

var _ zab.Transport = (*shim)(nil)

// Send implements zab.Transport: consult the injector, then drop,
// delay (delivery rides a timer so the zab loop never blocks on an
// injected latency) or pass through.
func (t *shim) Send(to zab.PeerID, msg zab.Message) error {
	drop, wait := t.inj.decide(t.id, to)
	if drop {
		// Indistinguishable from network loss for the sender, exactly
		// like the underlying transports' shed paths.
		return zab.ErrPeerUnreachable
	}
	if wait <= 0 {
		return t.inner.Send(to, msg)
	}
	time.AfterFunc(wait, func() {
		// The link may have partitioned while the message was "in
		// flight"; best-effort loss is the contract either way. Only the
		// severed state is re-checked — the message already paid its
		// drop coin at send time.
		if !t.inj.severed(t.id, to) {
			_ = t.inner.Send(to, msg)
		}
	})
	return nil
}

// Receive implements zab.Transport.
func (t *shim) Receive() <-chan zab.Message { return t.inner.Receive() }

// Close implements zab.Transport.
func (t *shim) Close() error { return t.inner.Close() }
