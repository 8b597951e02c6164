// Package zab implements the atomic broadcast protocol that keeps the
// replicated znode database consistent: leader election, a two-phase
// propose/ack/commit broadcast with quorum tracking, follower recovery
// by snapshot or diff, and failure detection via heartbeats. It follows
// the structure of ZAB (Junqueira et al., DSN'11) as used by ZooKeeper:
// a single leader orders all writes, followers acknowledge proposals,
// and a proposal commits once a quorum (including the leader) has
// acknowledged it.
package zab

import (
	"fmt"

	"securekeeper/internal/ztree"
)

// PeerID identifies a replica within the ensemble.
type PeerID int64

// Kind discriminates protocol messages.
type Kind int32

// Protocol message kinds.
const (
	// Election.
	KindVote Kind = iota + 1
	// Leader activation and recovery.
	KindFollowerInfo
	KindSyncSnap
	KindSyncDiff
	KindNewLeaderAck
	// Wire value 6 was KindPropose, the single-record proposal that
	// batches subsume. It stays reserved so every later kind keeps its
	// number; decoding it is an unknown-kind error.
	_
	// Broadcast. The leader batches submissions into KindProposeBatch
	// frames; a lone submission is a one-record batch.
	KindProposeBatch
	KindAck
	KindCommit
	// Failure detection.
	KindPing
	KindPong
	// Application-level messages tunneled over the peer transport
	// (e.g. the server layer's write-request forwarding to the leader).
	KindApp
	// Wire value 13 was KindObserverInfo, an observer's announce. The
	// leader answered it exactly as FOLLOWERINFO (what a member is comes
	// from the leader's row for it, not from the kind it announces
	// with), so observers announce with FOLLOWERINFO; the value stays
	// reserved like 6.
	_
	// Observer log shipping: the leader streams already-committed
	// records to synced observers — Batch carries the records, Zxid the
	// commit bound, and no ACK is ever expected, so observers stay
	// entirely off the write path's quorum accounting. Appended after
	// KindApp to preserve the wire values of every pre-observer kind.
	KindObserverCommit
	// KindRemoved is the leader telling a peer it is no longer an
	// ensemble member (its id appears in neither the voter nor the
	// observer set). Sent in reply to election votes from non-members,
	// so a removed replica restarted from stale state stops campaigning
	// against a quorum that no longer counts it.
	KindRemoved
)

var kindNames = [...]string{
	KindVote: "VOTE", KindFollowerInfo: "FOLLOWERINFO", KindSyncSnap: "SYNCSNAP", KindSyncDiff: "SYNCDIFF",
	KindNewLeaderAck: "NEWLEADERACK", KindProposeBatch: "PROPOSEBATCH", KindAck: "ACK", KindCommit: "COMMIT",
	KindPing: "PING", KindPong: "PONG", KindApp: "APP", KindObserverCommit: "OBSERVERCOMMIT",
	KindRemoved: "REMOVED",
}

// String returns the mnemonic for a message kind.
func (k Kind) String() string {
	if k > 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("KIND(%d)", int32(k))
}

// Origin correlates a committed transaction back to the replica and
// client request that initiated it, so the owning replica can complete
// the pending client call.
type Origin struct {
	Peer    PeerID
	Session int64
	Xid     int32
}

// Message is the envelope exchanged between peers. A single struct with
// optional fields keeps the in-process transport allocation-light; the
// TCP transport serializes only the populated fields for each kind.
type Message struct {
	Kind  Kind
	From  PeerID
	Epoch int64
	Zxid  int64

	// Vote fields. VoteReply marks responses to vote broadcasts;
	// replies never trigger further replies (otherwise two settled
	// peers answering each other's stray votes would ping-pong
	// forever).
	VoteFor   PeerID
	VoteZxid  int64
	VoteReply bool

	// Batch carries a multi-record PROPOSE frame in ascending zxid
	// order. For KindProposeBatch the Zxid field piggybacks the
	// leader's commit bound so followers can apply without waiting for
	// a separate COMMIT frame.
	Batch []ProposalRecord

	// Sync fields. Config piggybacks the leader's encoded membership
	// (see Membership.Encode) on every sync answer, so a joiner that
	// recovered via snapshot — or a follower restarted from stale state
	// — adopts the ensemble's current voter/observer sets along with
	// the data it missed.
	Snapshot *ztree.Snapshot
	Diff     []ProposalRecord
	Config   []byte

	// App payload (opaque to zab).
	App []byte
}

// ProposalRecord pairs a transaction with its origin: what a proposal
// frame, a diff and the commit log carry.
type ProposalRecord struct {
	Txn    ztree.Txn
	Origin Origin
}

// Committed is that same record once the ensemble has committed it, as
// delivered to the replica layer, in zxid order.
type Committed = ProposalRecord

// EpochOf extracts the epoch from a zxid.
func EpochOf(zxid int64) int64 { return zxid >> 32 }

// CounterOf extracts the in-epoch counter from a zxid.
func CounterOf(zxid int64) int64 { return zxid & 0xffffffff }

// MakeZxid composes a zxid from epoch and counter.
func MakeZxid(epoch, counter int64) int64 { return epoch<<32 | (counter & 0xffffffff) }
