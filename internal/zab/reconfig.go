package zab

import (
	"fmt"

	"securekeeper/internal/wire"
)

// Incremental reconfiguration, ZooKeeper-style: a membership change is
// an ordinary transaction (ztree.TxnReconfig with a ReconfigChange
// encoded in Data) committed through the broadcast pipeline itself.
// Every replica applies the change when it delivers the txn, so the
// voter set — and with it the quorum size — switches at exactly the
// reconfig txn's zxid on every member, with no side channel to race.
//
// The protocol is deliberately incremental (one member per change) and
// staged: a joining replica is always added as an OBSERVER first, which
// snapshot-syncs it off the write path's quorum accounting; only once
// the leader has seen its sync complete may it be promoted to voter.
// That staging is the joiner-not-counted-before-sync guarantee — an
// empty replica can never widen a quorum it cannot yet help form.

// ReconfigAction discriminates membership changes.
type ReconfigAction int32

// Membership change kinds.
const (
	// ReconfigAdd introduces a new member as a non-voting observer;
	// Addr is its peer-mesh address (may be empty for in-process
	// ensembles).
	ReconfigAdd ReconfigAction = iota + 1
	// ReconfigRemove drops a member (voter or observer). The replica
	// itself learns it was removed when it delivers the txn (or, if it
	// was down, from the leader's REMOVED reply to its next election
	// vote) and stops participating.
	ReconfigRemove
	// ReconfigPromote turns a synced observer into a voter.
	ReconfigPromote
)

var reconfigNames = [...]string{ReconfigAdd: "add", ReconfigRemove: "remove", ReconfigPromote: "promote"}

// String returns the operator-facing name of the action.
func (a ReconfigAction) String() string {
	if a > 0 && int(a) < len(reconfigNames) {
		return reconfigNames[a]
	}
	return fmt.Sprintf("reconfig(%d)", int32(a))
}

// ParseReconfigAction maps the operator-facing name back to the action.
func ParseReconfigAction(s string) (ReconfigAction, error) {
	for a, name := range reconfigNames {
		if a > 0 && name == s {
			return ReconfigAction(a), nil
		}
	}
	return 0, fmt.Errorf("zab: unknown reconfig action %q (want add, remove or promote)", s)
}

// ReconfigChange is one incremental membership change.
type ReconfigChange struct {
	Action ReconfigAction
	ID     PeerID
	Addr   string
}

// Encode serializes the change for a TxnReconfig payload.
func (c *ReconfigChange) Encode() []byte {
	e := wire.NewEncoder(16 + len(c.Addr))
	e.WriteInt32(int32(c.Action))
	e.WriteInt64(int64(c.ID))
	e.WriteString(c.Addr)
	return e.Bytes()
}

// DecodeReconfigChange parses a TxnReconfig payload.
func DecodeReconfigChange(data []byte) (ReconfigChange, error) {
	d := wire.NewDecoder(data)
	c := ReconfigChange{
		Action: ReconfigAction(d.ReadInt32()),
		ID:     PeerID(d.ReadInt64()),
		Addr:   d.ReadString(),
	}
	if d.Err() != nil {
		return c, d.Err()
	}
	switch c.Action {
	case ReconfigAdd, ReconfigRemove, ReconfigPromote:
	default:
		return c, fmt.Errorf("zab: bad reconfig action %d", c.Action)
	}
	if c.ID <= 0 {
		return c, fmt.Errorf("zab: bad reconfig peer id %d", c.ID)
	}
	return c, nil
}

// maxMembers bounds the member count accepted when decoding a
// membership snapshot — far above any real ensemble, low enough that a
// hostile length prefix cannot drive allocation.
const maxMembers = 1024

// encodeMembership serializes the member table (already sorted by id,
// so identical memberships encode identically): id, address, observer
// flag per member.
func encodeMembership(members []member) []byte {
	e := wire.NewEncoder(4 + 32*len(members))
	n := 0
	for i := range members {
		if members[i].isMember() {
			n++
		}
	}
	e.WriteInt32(int32(n))
	for i := range members {
		if m := &members[i]; m.isMember() {
			e.WriteInt64(int64(m.id))
			e.WriteString(m.addr)
			e.WriteBool(!m.voter)
		}
	}
	return e.Bytes()
}

// decodeMembership parses an encoded membership snapshot into rows that
// carry id, address and kind.
func decodeMembership(data []byte) ([]member, error) {
	d := wire.NewDecoder(data)
	n := d.ReadInt32()
	if n < 0 || n > maxMembers {
		return nil, fmt.Errorf("zab: bad membership count %d", n)
	}
	members := make([]member, 0, n)
	for i := int32(0); i < n && d.Err() == nil; i++ {
		members = append(members, member{
			id:    PeerID(d.ReadInt64()),
			addr:  d.ReadString(),
			voter: !d.ReadBool(),
		})
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return members, nil
}
