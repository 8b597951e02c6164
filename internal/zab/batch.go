package zab

import "securekeeper/internal/wire"

// maxBatchRecords caps how many transactions the leader packs into one
// PROPOSE frame. Large enough to absorb a burst of concurrent writers,
// small enough that a frame stays well under transport frame limits.
const maxBatchRecords = 512

// Serialize implements wire.Record for a single proposal record.
func (r *ProposalRecord) Serialize(e *wire.Encoder) {
	r.Txn.Serialize(e)
	r.Origin.Serialize(e)
}

// Deserialize implements wire.Record.
func (r *ProposalRecord) Deserialize(d *wire.Decoder) error {
	if err := r.Txn.Deserialize(d); err != nil {
		return err
	}
	return r.Origin.Deserialize(d)
}

// Serialize implements wire.Record: the one encoding of an Origin, in a
// proposal record and in the replica layer's forwarded writes.
func (o *Origin) Serialize(e *wire.Encoder) {
	e.WriteInt64(int64(o.Peer))
	e.WriteInt64(o.Session)
	e.WriteInt32(o.Xid)
}

// Deserialize implements wire.Record.
func (o *Origin) Deserialize(d *wire.Decoder) error {
	o.Peer = PeerID(d.ReadInt64())
	o.Session = d.ReadInt64()
	o.Xid = d.ReadInt32()
	return d.Err()
}
