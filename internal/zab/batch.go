package zab

import "securekeeper/internal/wire"

// maxBatchRecords caps how many transactions the leader packs into one
// PROPOSE frame. Large enough to absorb a burst of concurrent writers,
// small enough that a frame stays well under transport frame limits.
const maxBatchRecords = 512

// Serialize implements wire.Record for a single proposal record.
func (r *ProposalRecord) Serialize(e *wire.Encoder) {
	r.Txn.Serialize(e)
	e.WriteInt64(int64(r.Origin.Peer))
	e.WriteInt64(r.Origin.Session)
	e.WriteInt32(r.Origin.Xid)
}

// Deserialize implements wire.Record.
func (r *ProposalRecord) Deserialize(d *wire.Decoder) error {
	if err := r.Txn.Deserialize(d); err != nil {
		return err
	}
	peer, err := d.ReadInt64()
	if err != nil {
		return err
	}
	r.Origin.Peer = PeerID(peer)
	if r.Origin.Session, err = d.ReadInt64(); err != nil {
		return err
	}
	if r.Origin.Xid, err = d.ReadInt32(); err != nil {
		return err
	}
	return nil
}
