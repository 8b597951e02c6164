package zab

import (
	"fmt"

	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

// Wire codec for the complete peer protocol: every Message kind the
// in-process transport carries by reference can be framed for a TCP
// peer link. The layout is a fixed header (kind, epoch, zxid) followed
// by kind-specific fields; the sender's identity is NOT on the wire —
// the mesh stamps Message.From from the link's handshaken identity, so
// a connected peer cannot claim frames as another replica's. (What the
// handshake proves about that identity is the mesh's business: a hello
// with an attested tail on a SecureKeeper ensemble, a bare id exchange
// on the baselines — see zabnet.)
//
// Decoding is defensive throughout: every length is bounds-checked,
// record counts are capped, batch/diff zxids must ascend, and unknown
// kinds are rejected — a truncated or adversarial frame yields an
// error, never a panic or an over-allocation.

// maxDiffRecords bounds the record count accepted in a SYNCDIFF frame.
// Diffs are capped by Config.MaxLogEntries on the sender; this is the
// decode-side ceiling for any sender.
const maxDiffRecords = wire.MaxVectorLen

// Serialize implements wire.Record. Only the fields meaningful for the
// message's kind are written.
func (m *Message) Serialize(e *wire.Encoder) {
	e.WriteInt32(int32(m.Kind))
	e.WriteInt64(m.Epoch)
	e.WriteInt64(m.Zxid)
	switch m.Kind {
	case KindVote:
		e.WriteInt64(int64(m.VoteFor))
		e.WriteInt64(m.VoteZxid)
		e.WriteBool(m.VoteReply)
	case KindFollowerInfo, KindNewLeaderAck, KindAck, KindCommit, KindPing, KindPong, KindObserverInfo, KindRemoved:
		// Header only: the zxid field carries the payload.
	case KindProposeBatch, KindObserverCommit:
		e.WriteInt32(int32(len(m.Batch)))
		for i := range m.Batch {
			m.Batch[i].Serialize(e)
		}
	case KindSyncDiff:
		e.WriteInt32(int32(len(m.Diff)))
		for i := range m.Diff {
			m.Diff[i].Serialize(e)
		}
		e.WriteBuffer(m.Config)
	case KindSyncSnap:
		e.WriteBool(m.Snapshot != nil)
		if m.Snapshot != nil {
			m.Snapshot.Serialize(e)
		}
		e.WriteBuffer(m.Config)
	case KindApp:
		e.WriteBuffer(m.App)
	}
}

// Deserialize implements wire.Record.
func (m *Message) Deserialize(d *wire.Decoder) error {
	m.Kind = Kind(d.ReadInt32())
	m.Epoch = d.ReadInt64()
	m.Zxid = d.ReadInt64()
	if d.Err() != nil {
		return d.Err()
	}
	switch m.Kind {
	case KindVote:
		m.VoteFor = PeerID(d.ReadInt64())
		m.VoteZxid = d.ReadInt64()
		m.VoteReply = d.ReadBool()
	case KindFollowerInfo, KindNewLeaderAck, KindAck, KindCommit, KindPing, KindPong, KindObserverInfo, KindRemoved:
		// Header only.
	case KindProposeBatch, KindObserverCommit:
		var err error
		m.Batch, err = deserializeRecords(d, maxBatchRecords, "batch")
		return err
	case KindSyncDiff:
		var err error
		if m.Diff, err = deserializeRecords(d, maxDiffRecords, "diff"); err != nil {
			return err
		}
		m.Config = d.ReadBuffer()
	case KindSyncSnap:
		if d.ReadBool() {
			m.Snapshot = new(ztree.Snapshot)
			if err := m.Snapshot.Deserialize(d); err != nil {
				return err
			}
		}
		m.Config = d.ReadBuffer()
	case KindApp:
		m.App = d.ReadBuffer()
	default:
		return fmt.Errorf("zab: unknown message kind %d", m.Kind)
	}
	return d.Err()
}

// minRecordWireLen is the encoding of a proposal record with an empty
// path, no payload and no sub-transactions: the fixed fields of the
// transaction (44 bytes), its sub count (4) and the origin (20).
const minRecordWireLen = 68

// deserializeRecords reads a bounded, strictly-ascending proposal
// record vector (the invariant followers rely on when replaying a
// frame in zxid order). This is where a replicated write's bytes change
// owner on a follower: each record is decoded in place into the one
// slice made for the frame, and its Path and Data are copied out of the
// link's receive chunk once, exactly sized — the arrays inflight buffer,
// commit log, WAL encoder and tree then share.
func deserializeRecords(d *wire.Decoder, limit int, what string) ([]ProposalRecord, error) {
	n := d.ReadInt32()
	if n < 0 || int(n) > limit {
		return nil, fmt.Errorf("zab: bad %s record count %d", what, n)
	}
	if n == 0 {
		return nil, d.Err()
	}
	// The claimed count is attacker-controlled until the records
	// actually parse, so the allocation is bounded by what the bytes at
	// hand could hold; for a well-formed frame that is the count.
	out := make([]ProposalRecord, 0, min(int(n), d.Remaining()/minRecordWireLen))
	var prev int64
	for i := int32(0); i < n; i++ {
		out = append(out, ProposalRecord{})
		rec := &out[i]
		if err := rec.Deserialize(d); err != nil {
			return nil, fmt.Errorf("zab: %s record %d: %w", what, i, err)
		}
		if i > 0 && rec.Txn.Zxid <= prev {
			return nil, fmt.Errorf("zab: %s zxid order violated: %#x after %#x", what, rec.Txn.Zxid, prev)
		}
		prev = rec.Txn.Zxid
	}
	return out, nil
}
