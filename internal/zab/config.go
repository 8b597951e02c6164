package zab

import (
	"errors"
	"fmt"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/ztree"
)

// Role is the peer's current protocol role.
type Role int32

// Protocol roles.
const (
	RoleLooking Role = iota + 1
	RoleFollowing
	RoleLeading
	// RoleObserving marks a non-voting replica: it replays the leader's
	// committed stream and serves reads, but never votes, never counts
	// toward any quorum, and never leads.
	RoleObserving
	// RoleRemoved marks a replica that learned — by delivering a
	// reconfig txn removing its id, or from the leader's REMOVED reply
	// to one of its election votes — that it is no longer an ensemble
	// member. A removed peer stops campaigning, ignores the protocol,
	// and stays removed until the process is restarted under a
	// membership that includes it again.
	RoleRemoved
)

var roleNames = [...]string{RoleLooking: "LOOKING", RoleFollowing: "FOLLOWING", RoleLeading: "LEADING", RoleObserving: "OBSERVING", RoleRemoved: "REMOVED"}

// String returns the mnemonic for a role.
func (r Role) String() string {
	if r > 0 && int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("ROLE(%d)", int32(r))
}

// Submission errors.
var (
	ErrNotLeader = errors.New("zab: not the leader")
	ErrStopped   = errors.New("zab: peer stopped")
)

// Config parameterizes a Peer.
type Config struct {
	// ID is this replica's identity; Peers lists the VOTING members of
	// the ensemble (including ID when this peer votes) AT BOOT. Quorum
	// size and election fan-out derive from the voter set, which
	// committed reconfig transactions may grow or shrink at runtime.
	ID    PeerID
	Peers []PeerID
	// Observers lists the non-voting members at boot (including ID when
	// this peer is an observer). Observers receive the leader's
	// heartbeats and committed stream but are excluded from vote
	// tallies, quorum counts, and outstanding-proposal replay.
	Observers []PeerID
	// Logf, when set, receives membership-lifecycle log lines (reconfig
	// applications, removal notices). Optional; must not block.
	Logf func(format string, args ...any)
	// Transport connects this peer to the ensemble.
	Transport Transport
	// Deliver is invoked from the peer's loop goroutine for every
	// committed transaction, in zxid order. It must not block.
	Deliver func(Committed)
	// Snapshot and Restore let the protocol transfer database state
	// during follower recovery.
	Snapshot func() *ztree.Snapshot
	Restore  func(*ztree.Snapshot)
	// OnApp receives application messages tunneled between replicas
	// (the server layer's request forwarding). Must not block.
	OnApp func(from PeerID, payload []byte)
	// OnRoleChange is invoked when the peer's role or known leader
	// changes. Optional.
	OnRoleChange func(role Role, leader PeerID)
	// TickInterval drives heartbeats; ElectionTimeout bounds how long
	// a peer waits for votes or leader liveness before (re)electing.
	TickInterval    time.Duration
	ElectionTimeout time.Duration
	// MaxLogEntries caps the committed log kept for diff syncs; beyond
	// it followers recover via snapshot.
	MaxLogEntries int
	// LastZxid seeds the peer's history position after a restart that
	// recovered state from disk.
	LastZxid int64
	// Obs, when set, receives the peer's protocol metrics: the
	// propose→quorum-ack latency histogram, queue-depth gauges, zxid
	// frontier gauges, and the Stats counters.
	Obs *obs.Registry
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.TickInterval <= 0 {
		out.TickInterval = 10 * time.Millisecond
	}
	if out.ElectionTimeout <= 0 {
		out.ElectionTimeout = 120 * time.Millisecond
	}
	if out.MaxLogEntries <= 0 {
		// Bounded for memory: the log is a ring of this many entries,
		// and entries retain their transaction payloads. Followers that
		// fall further behind recover via snapshot instead.
		out.MaxLogEntries = 20000
	}
	return out
}

// Stats counts protocol events for observability and tests.
type Stats struct {
	Elections int64
	Proposals int64
	Commits   int64
	Resyncs   int64
	// ProposeFrames counts PROPOSE frames actually sent (one per
	// follower per flush). With batching, ProposeFrames/Proposals drops
	// below the follower count under concurrent load; the contended
	// benchmarks assert on that ratio.
	ProposeFrames int64
	// ObserverFrames counts OBSERVERCOMMIT frames streamed to synced
	// observers (leader side).
	ObserverFrames int64
}
