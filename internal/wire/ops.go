// Package wire implements the SecureKeeper wire protocol: a jute-like
// big-endian binary serialization of the request and response records
// exchanged between clients, entry enclaves, and replicas. The format
// mirrors the ZooKeeper protocol closely enough that the entry enclave's
// (de)serialization code — the bulk of the paper's trusted code base —
// operates on the same message shapes as the original system.
//
// The two halves of the codec share one error model. An Encoder appends
// and cannot fail but for the path mapping of AppendToMapping, whose
// first error it keeps for Err. A Decoder keeps the first read that
// failed (short buffer, negative length, a length or count over its
// limit): every later read returns the zero value, consumes nothing and
// allocates nothing, so a record's Deserialize is one assignment per
// field ending in "return d.Err()", and Finish says whether a buffer was
// exactly one record.
//
// Each wire shape is declared once. Three are shared by several ops and
// carry the per-op names as aliases: ReadRequest {Path, Watch} is
// GetDataRequest, ExistsRequest and GetChildrenRequest; PathRecord
// {Path} is CreateResponse, SyncRequest and SyncResponse; StatRecord
// {Stat} is ExistsResponse and SetDataResponse.
package wire

import (
	"fmt"
	"strconv"
)

// OpCode identifies a client operation. Values follow the ZooKeeper
// protocol numbering where one exists.
type OpCode int32

// Client operation codes.
const (
	OpNotify       OpCode = 0
	OpCreate       OpCode = 1
	OpDelete       OpCode = 2
	OpExists       OpCode = 3
	OpGetData      OpCode = 4
	OpSetData      OpCode = 5
	OpGetChildren  OpCode = 8
	OpSync         OpCode = 9
	OpPing         OpCode = 11
	OpCheck        OpCode = 13 // only valid as a sub-op inside a multi
	OpMulti        OpCode = 14
	OpServerStats  OpCode = 21 // admin: role, leader, zxid, load counters
	OpReconfig     OpCode = 22 // admin: incremental ensemble membership change
	OpCloseSession OpCode = -11
	OpError        OpCode = -1
)

var opNames = map[OpCode]string{
	OpNotify: "NOTIFY", OpCreate: "CREATE", OpDelete: "DELETE", OpExists: "EXISTS",
	OpGetData: "GET", OpSetData: "SET", OpGetChildren: "LS", OpSync: "SYNC",
	OpPing: "PING", OpCheck: "CHECK", OpMulti: "MULTI", OpServerStats: "STAT",
	OpReconfig: "RECONFIG", OpCloseSession: "CLOSE", OpError: "ERROR",
}

// String returns the mnemonic used in logs and the benchmark tables.
func (op OpCode) String() string {
	if name, ok := opNames[op]; ok {
		return name
	}
	return fmt.Sprintf("OP(%d)", int32(op))
}

// IsWrite reports whether the operation mutates the data tree and must
// therefore be agreed through the atomic broadcast protocol.
func (op OpCode) IsWrite() bool {
	switch op {
	case OpCreate, OpDelete, OpSetData, OpMulti, OpCloseSession, OpReconfig:
		return true
	default:
		return false
	}
}

// CreateFlags describe znode creation modes.
type CreateFlags int32

// Creation mode flags (bitmask, matching ZooKeeper's CreateMode ordinals).
const (
	FlagEphemeral  CreateFlags = 1
	FlagSequential CreateFlags = 2
)

// SeqDigits is the width of the suffix ZooKeeper appends to the name of
// a sequential node: the sequence number, zero-padded ("%010d").
const SeqDigits = 10

// AppendSequence appends the sequential-node suffix for seq to path.
func AppendSequence(path string, seq int32) string {
	var buf [SeqDigits + 1]byte
	digits := strconv.AppendInt(buf[:0], int64(seq), 10)
	sign := ""
	if seq < 0 {
		sign, digits = "-", digits[1:]
	}
	pad := max(0, SeqDigits-len(sign)-len(digits))
	return path + sign + "0000000000"[:pad] + string(digits)
}

// ErrCode is a protocol-level error code carried in reply headers.
type ErrCode int32

// Protocol error codes (subset of ZooKeeper's KeeperException codes).
const (
	ErrOK                      ErrCode = 0
	ErrSystemError             ErrCode = -1
	ErrRuntimeInconsistency    ErrCode = -2
	ErrDataInconsistency       ErrCode = -3
	ErrConnectionLoss          ErrCode = -4
	ErrMarshallingError        ErrCode = -5
	ErrUnimplemented           ErrCode = -6
	ErrOperationTimeout        ErrCode = -7
	ErrBadArguments            ErrCode = -8
	ErrNoNode                  ErrCode = -101
	ErrNoAuth                  ErrCode = -102
	ErrBadVersion              ErrCode = -103
	ErrNoChildrenForEphemerals ErrCode = -108
	ErrNodeExists              ErrCode = -110
	ErrNotEmpty                ErrCode = -111
	ErrSessionExpired          ErrCode = -112
	ErrInvalidCallback         ErrCode = -113
	ErrAuthFailed              ErrCode = -115
	ErrSessionMoved            ErrCode = -118
	ErrIntegrity               ErrCode = -200 // SecureKeeper: binding/HMAC verification failed
)

var errNames = map[ErrCode]string{
	ErrOK: "OK", ErrSystemError: "SYSTEMERROR", ErrRuntimeInconsistency: "RUNTIMEINCONSISTENCY",
	ErrDataInconsistency: "DATAINCONSISTENCY", ErrConnectionLoss: "CONNECTIONLOSS",
	ErrMarshallingError: "MARSHALLINGERROR", ErrUnimplemented: "UNIMPLEMENTED",
	ErrOperationTimeout: "OPERATIONTIMEOUT", ErrBadArguments: "BADARGUMENTS", ErrNoNode: "NONODE",
	ErrNoAuth: "NOAUTH", ErrBadVersion: "BADVERSION", ErrNoChildrenForEphemerals: "NOCHILDRENFOREPHEMERALS",
	ErrNodeExists: "NODEEXISTS", ErrNotEmpty: "NOTEMPTY", ErrSessionExpired: "SESSIONEXPIRED",
	ErrInvalidCallback: "INVALIDCALLBACK", ErrAuthFailed: "AUTHFAILED", ErrSessionMoved: "SESSIONMOVED",
	ErrIntegrity: "INTEGRITY",
}

// String returns the mnemonic for the error code.
func (e ErrCode) String() string {
	if name, ok := errNames[e]; ok {
		return name
	}
	return fmt.Sprintf("ERR(%d)", int32(e))
}

// Error converts a non-OK code into a Go error; ErrOK yields nil.
func (e ErrCode) Error() error {
	if e == ErrOK {
		return nil
	}
	return &ProtocolError{Code: e}
}

// ProtocolError wraps an ErrCode as a Go error so callers can match on
// the code with errors.As.
type ProtocolError struct {
	Code ErrCode
}

// Error implements the error interface.
func (e *ProtocolError) Error() string {
	return fmt.Sprintf("zk: %s", e.Code)
}

// EventType identifies watch event kinds.
type EventType int32

// Watch event types (matching ZooKeeper's Watcher.Event.EventType).
const (
	EventNodeCreated         EventType = 1
	EventNodeDeleted         EventType = 2
	EventNodeDataChanged     EventType = 3
	EventNodeChildrenChanged EventType = 4
)

var eventNames = [...]string{
	EventNodeCreated: "NodeCreated", EventNodeDeleted: "NodeDeleted",
	EventNodeDataChanged: "NodeDataChanged", EventNodeChildrenChanged: "NodeChildrenChanged",
}

// String returns the mnemonic for the event type.
func (t EventType) String() string {
	if t > 0 && int(t) < len(eventNames) {
		return eventNames[t]
	}
	return fmt.Sprintf("Event(%d)", int32(t))
}

// WatchKind distinguishes the watch registration tables.
type WatchKind int32

// Watch registration kinds.
const (
	WatchData WatchKind = iota + 1
	WatchExist
	WatchChild
)
