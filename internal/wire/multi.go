package wire

import "fmt"

// MaxMultiOps bounds the number of sub-operations in one multi request.
// The bound is enforced on both serialization directions: a decoder
// facing an adversarial frame must never allocate more than this many
// records before validation fails.
const MaxMultiOps = 512

// MultiOp is one sub-operation of an atomic multi transaction. Op
// selects the interpretation of the remaining fields:
//
//	OpCheck:   Path, Version  (version -1 checks bare existence)
//	OpCreate:  Path, Data, Flags
//	OpDelete:  Path, Version
//	OpSetData: Path, Data, Version
type MultiOp struct {
	Op      OpCode
	Path    string
	Data    []byte
	Flags   CreateFlags
	Version int32
}

// validMultiOpCode reports whether op may appear inside a multi.
func validMultiOpCode(op OpCode) bool {
	switch op {
	case OpCheck, OpCreate, OpDelete, OpSetData:
		return true
	default:
		return false
	}
}

// Serialize implements Record.
func (o *MultiOp) Serialize(e *Encoder) {
	e.WriteInt32(int32(o.Op))
	e.WritePath(o.Path)
	e.WriteBuffer(o.Data)
	e.WriteInt32(int32(o.Flags))
	e.WriteInt32(o.Version)
}

// Deserialize implements Record.
func (o *MultiOp) Deserialize(d *Decoder) error {
	o.Op = OpCode(d.ReadInt32())
	if d.Err() == nil && !validMultiOpCode(o.Op) {
		return fmt.Errorf("wire: invalid multi sub-op %d", o.Op)
	}
	o.Path = d.ReadString()
	o.Data = d.ReadBuffer()
	o.Flags = CreateFlags(d.ReadInt32())
	o.Version = d.ReadInt32()
	return d.Err()
}

// MultiRequest carries the sub-operations of one atomic transaction.
// The replica validates every sub-op and applies all of them under a
// single zab proposal, or none.
type MultiRequest struct {
	Ops []MultiOp
}

// Serialize implements Record.
func (r *MultiRequest) Serialize(e *Encoder) {
	e.WriteInt32(int32(len(r.Ops)))
	for i := range r.Ops {
		r.Ops[i].Serialize(e)
	}
}

// Deserialize implements Record.
func (r *MultiRequest) Deserialize(d *Decoder) error {
	n := d.ReadInt32()
	if n < 0 || n > MaxMultiOps {
		return fmt.Errorf("wire: multi op count %d out of range [0, %d]", n, MaxMultiOps)
	}
	r.Ops = make([]MultiOp, n)
	for i := range r.Ops {
		if err := r.Ops[i].Deserialize(d); err != nil {
			return err
		}
	}
	return d.Err()
}

// MultiOpResult is the per-sub-op outcome of a multi. On an aborted
// transaction every result carries an error code: the failing sub-op's
// own code, and ErrRuntimeInconsistency for the sub-ops that were
// rolled back with it (ZooKeeper's convention).
type MultiOpResult struct {
	Op   OpCode
	Err  ErrCode
	Path string // created path for OpCreate
	Stat Stat   // updated Stat for OpSetData and OpCheck
}

// Serialize implements Record.
func (o *MultiOpResult) Serialize(e *Encoder) {
	e.WriteInt32(int32(o.Op))
	e.WriteInt32(int32(o.Err))
	e.WritePath(o.Path)
	o.Stat.Serialize(e)
}

// Deserialize implements Record.
func (o *MultiOpResult) Deserialize(d *Decoder) error {
	o.Op = OpCode(d.ReadInt32())
	if d.Err() == nil && !validMultiOpCode(o.Op) {
		return fmt.Errorf("wire: invalid multi result op %d", o.Op)
	}
	o.Err = ErrCode(d.ReadInt32())
	o.Path = d.ReadString()
	return o.Stat.Deserialize(d)
}

// MultiResponse carries one result per requested sub-op, in order.
type MultiResponse struct {
	Results []MultiOpResult
}

// Serialize implements Record.
func (r *MultiResponse) Serialize(e *Encoder) {
	e.WriteInt32(int32(len(r.Results)))
	for i := range r.Results {
		r.Results[i].Serialize(e)
	}
}

// Deserialize implements Record.
func (r *MultiResponse) Deserialize(d *Decoder) error {
	n := d.ReadInt32()
	if n < 0 || n > MaxMultiOps {
		return fmt.Errorf("wire: multi result count %d out of range [0, %d]", n, MaxMultiOps)
	}
	r.Results = make([]MultiOpResult, n)
	for i := range r.Results {
		if err := r.Results[i].Deserialize(d); err != nil {
			return err
		}
	}
	return d.Err()
}
