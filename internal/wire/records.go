package wire

import "encoding/binary"

// Stat carries znode metadata, mirroring ZooKeeper's Stat record.
type Stat struct {
	Czxid          int64 // zxid of the transaction that created the node
	Mzxid          int64 // zxid of the last modification
	Ctime          int64 // creation time, ms since epoch
	Mtime          int64 // last-modification time, ms since epoch
	Version        int32 // data version
	Cversion       int32 // child version (bumped on child create/delete)
	Aversion       int32 // ACL version (kept for wire compatibility)
	EphemeralOwner int64 // session id owning an ephemeral node, else 0
	DataLength     int32 // length of the stored payload
	NumChildren    int32 // number of children
	Pzxid          int64 // zxid of the last child change
}

// Serialize implements Record.
func (s *Stat) Serialize(e *Encoder) {
	e.WriteInt64(s.Czxid)
	e.WriteInt64(s.Mzxid)
	e.WriteInt64(s.Ctime)
	e.WriteInt64(s.Mtime)
	e.WriteInt32(s.Version)
	e.WriteInt32(s.Cversion)
	e.WriteInt32(s.Aversion)
	e.WriteInt64(s.EphemeralOwner)
	e.WriteInt32(s.DataLength)
	e.WriteInt32(s.NumChildren)
	e.WriteInt64(s.Pzxid)
}

// Deserialize implements Record.
func (s *Stat) Deserialize(d *Decoder) error {
	s.Czxid = d.ReadInt64()
	s.Mzxid = d.ReadInt64()
	s.Ctime = d.ReadInt64()
	s.Mtime = d.ReadInt64()
	s.Version = d.ReadInt32()
	s.Cversion = d.ReadInt32()
	s.Aversion = d.ReadInt32()
	s.EphemeralOwner = d.ReadInt64()
	s.DataLength = d.ReadInt32()
	s.NumChildren = d.ReadInt32()
	s.Pzxid = d.ReadInt64()
	return d.Err()
}

// RequestHeader precedes every client request.
type RequestHeader struct {
	Xid int32
	Op  OpCode
}

// Serialize implements Record.
func (h *RequestHeader) Serialize(e *Encoder) {
	e.WriteInt32(h.Xid)
	e.WriteInt32(int32(h.Op))
}

// Deserialize implements Record.
func (h *RequestHeader) Deserialize(d *Decoder) error {
	h.Xid = d.ReadInt32()
	h.Op = OpCode(d.ReadInt32())
	return d.Err()
}

// SetRequestXid sets the xid of the request msg, which starts with its
// RequestHeader: a client serializes a request before it knows the xid.
func SetRequestXid(msg []byte, xid int32) { binary.BigEndian.PutUint32(msg, uint32(xid)) }

// ReplyHeader precedes every server response.
type ReplyHeader struct {
	Xid  int32
	Zxid int64
	Err  ErrCode
}

// Serialize implements Record.
func (h *ReplyHeader) Serialize(e *Encoder) {
	e.WriteInt32(h.Xid)
	e.WriteInt64(h.Zxid)
	e.WriteInt32(int32(h.Err))
}

// Deserialize implements Record.
func (h *ReplyHeader) Deserialize(d *Decoder) error {
	h.Xid = d.ReadInt32()
	h.Zxid = d.ReadInt64()
	h.Err = ErrCode(d.ReadInt32())
	return d.Err()
}

// ConnectRequest opens a session.
type ConnectRequest struct {
	ProtocolVersion int32
	LastZxidSeen    int64
	TimeoutMillis   int32
	SessionID       int64
	Passwd          []byte
}

// Serialize implements Record.
func (r *ConnectRequest) Serialize(e *Encoder) {
	e.WriteInt32(r.ProtocolVersion)
	e.WriteInt64(r.LastZxidSeen)
	e.WriteInt32(r.TimeoutMillis)
	e.WriteInt64(r.SessionID)
	e.WriteBuffer(r.Passwd)
}

// Deserialize implements Record.
func (r *ConnectRequest) Deserialize(d *Decoder) error {
	r.ProtocolVersion = d.ReadInt32()
	r.LastZxidSeen = d.ReadInt64()
	r.TimeoutMillis = d.ReadInt32()
	r.SessionID = d.ReadInt64()
	r.Passwd = d.ReadBuffer()
	return d.Err()
}

// ConnectResponse acknowledges a session.
type ConnectResponse struct {
	ProtocolVersion int32
	TimeoutMillis   int32
	SessionID       int64
	Passwd          []byte
}

// Serialize implements Record.
func (r *ConnectResponse) Serialize(e *Encoder) {
	e.WriteInt32(r.ProtocolVersion)
	e.WriteInt32(r.TimeoutMillis)
	e.WriteInt64(r.SessionID)
	e.WriteBuffer(r.Passwd)
}

// Deserialize implements Record.
func (r *ConnectResponse) Deserialize(d *Decoder) error {
	r.ProtocolVersion = d.ReadInt32()
	r.TimeoutMillis = d.ReadInt32()
	r.SessionID = d.ReadInt64()
	r.Passwd = d.ReadBuffer()
	return d.Err()
}

// CreateRequest creates a znode.
type CreateRequest struct {
	Path  string
	Data  []byte
	Flags CreateFlags
}

// Serialize implements Record.
func (r *CreateRequest) Serialize(e *Encoder) {
	e.WritePath(r.Path)
	e.WriteBuffer(r.Data)
	e.WriteInt32(int32(r.Flags))
}

// Deserialize implements Record.
func (r *CreateRequest) Deserialize(d *Decoder) error {
	r.Path = d.ReadString()
	r.Data = d.ReadBuffer()
	r.Flags = CreateFlags(d.ReadInt32())
	return d.Err()
}

// PathRecord is the body that is one path: the actual path of a created
// node (which differs from the requested path for sequential nodes),
// and the path a SYNC names and its reply echoes.
type PathRecord struct {
	Path string
}

// The bodies that are a PathRecord.
type (
	CreateResponse = PathRecord
	SyncRequest    = PathRecord
	SyncResponse   = PathRecord
)

// Serialize implements Record.
func (r *PathRecord) Serialize(e *Encoder) { e.WritePath(r.Path) }

// Deserialize implements Record.
func (r *PathRecord) Deserialize(d *Decoder) error {
	r.Path = d.ReadString()
	return d.Err()
}

// DeleteRequest removes a znode when the version matches (-1 matches any).
type DeleteRequest struct {
	Path    string
	Version int32
}

// Serialize implements Record.
func (r *DeleteRequest) Serialize(e *Encoder) {
	e.WritePath(r.Path)
	e.WriteInt32(r.Version)
}

// Deserialize implements Record.
func (r *DeleteRequest) Deserialize(d *Decoder) error {
	r.Path = d.ReadString()
	r.Version = d.ReadInt32()
	return d.Err()
}

// ReadRequest is the body of the three reads of one node, each of which
// may leave a watch: its payload, its existence, its children.
type ReadRequest struct {
	Path  string
	Watch bool
}

// The requests that are a ReadRequest.
type (
	GetDataRequest     = ReadRequest
	ExistsRequest      = ReadRequest
	GetChildrenRequest = ReadRequest
)

// Serialize implements Record.
func (r *ReadRequest) Serialize(e *Encoder) {
	e.WritePath(r.Path)
	e.WriteBool(r.Watch)
}

// Deserialize implements Record.
func (r *ReadRequest) Deserialize(d *Decoder) error {
	r.Path = d.ReadString()
	r.Watch = d.ReadBool()
	return d.Err()
}

// StatRecord is the body that is a node's Stat: what EXISTS finds and
// what a SET leaves.
type StatRecord struct {
	Stat Stat
}

// The responses that are a StatRecord.
type (
	ExistsResponse  = StatRecord
	SetDataResponse = StatRecord
)

// Serialize implements Record.
func (r *StatRecord) Serialize(e *Encoder) { r.Stat.Serialize(e) }

// Deserialize implements Record.
func (r *StatRecord) Deserialize(d *Decoder) error { return r.Stat.Deserialize(d) }

// GetDataResponse carries payload and Stat.
type GetDataResponse struct {
	Data []byte
	Stat Stat
}

// Serialize implements Record.
func (r *GetDataResponse) Serialize(e *Encoder) {
	e.WriteBuffer(r.Data)
	r.Stat.Serialize(e)
}

// Deserialize implements Record.
func (r *GetDataResponse) Deserialize(d *Decoder) error {
	r.Data = d.ReadBuffer()
	return r.Stat.Deserialize(d)
}

// SetDataRequest replaces a znode's payload when the version matches.
type SetDataRequest struct {
	Path    string
	Data    []byte
	Version int32
}

// Serialize implements Record.
func (r *SetDataRequest) Serialize(e *Encoder) {
	e.WritePath(r.Path)
	e.WriteBuffer(r.Data)
	e.WriteInt32(r.Version)
}

// Deserialize implements Record.
func (r *SetDataRequest) Deserialize(d *Decoder) error {
	r.Path = d.ReadString()
	r.Data = d.ReadBuffer()
	r.Version = d.ReadInt32()
	return d.Err()
}

// GetChildrenResponse carries child node names (not full paths).
type GetChildrenResponse struct {
	Children []string
}

// Serialize implements Record.
func (r *GetChildrenResponse) Serialize(e *Encoder) {
	if r.Children == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(r.Children)))
	for _, child := range r.Children {
		e.WritePath(child)
	}
}

// Deserialize implements Record.
func (r *GetChildrenResponse) Deserialize(d *Decoder) error {
	r.Children = d.ReadStringVector()
	return d.Err()
}

// ServerStatsResponse answers OpServerStats (which has no request
// body): a machine-readable snapshot of the serving replica's identity
// and load, so orchestration and smoke scripts query role and leader
// over the client port instead of grepping process logs.
type ServerStatsResponse struct {
	Role          string // zab role mnemonic: LEADING, FOLLOWING, OBSERVING, ...
	Leader        int64  // known leader id, -1 while unknown
	Zxid          int64  // committed frontier of the serving replica
	Sessions      int32  // live client sessions on this replica
	Watches       int32  // registered watches on this replica
	Outstanding   int32  // leader-side proposals awaiting quorum (0 off-leader)
	UptimeSeconds int64  // seconds since the serving process started
	CommitLag     int64  // leader committed zxid minus locally applied zxid
	Metrics       []KV   // full mntr-style counter snapshot (may be empty)
	// Ensemble is the replica's current membership view, e.g.
	// "voters=1,2,3 observers=4" — dynamic under reconfig, so smoke
	// scripts can watch quorum changes land. (Appended at the codec
	// tail; empty on replicas predating reconfiguration.)
	Ensemble string
}

// KV is one metrics line in a ServerStatsResponse: a flattened metric
// key and its integer value, mirroring internal/obs's mntr dump so
// `skclient mntr` works against any replica over the client port.
type KV struct {
	Key   string
	Value int64
}

// maxStatsMetrics bounds the metrics vector a peer can make us
// allocate; real registries are well under a thousand lines.
const maxStatsMetrics = 1 << 14

// Serialize implements Record.
func (r *ServerStatsResponse) Serialize(e *Encoder) {
	e.WriteString(r.Role)
	e.WriteInt64(r.Leader)
	e.WriteInt64(r.Zxid)
	e.WriteInt32(r.Sessions)
	e.WriteInt32(r.Watches)
	e.WriteInt32(r.Outstanding)
	e.WriteInt64(r.UptimeSeconds)
	e.WriteInt64(r.CommitLag)
	e.WriteInt32(int32(len(r.Metrics)))
	for _, kv := range r.Metrics {
		e.WriteString(kv.Key)
		e.WriteInt64(kv.Value)
	}
	e.WriteString(r.Ensemble)
}

// Deserialize implements Record.
func (r *ServerStatsResponse) Deserialize(d *Decoder) error {
	r.Role = d.ReadString()
	r.Leader = d.ReadInt64()
	r.Zxid = d.ReadInt64()
	r.Sessions = d.ReadInt32()
	r.Watches = d.ReadInt32()
	r.Outstanding = d.ReadInt32()
	r.UptimeSeconds = d.ReadInt64()
	r.CommitLag = d.ReadInt64()
	n := d.ReadInt32()
	if n < 0 {
		return ErrNegativeLen
	}
	if n > maxStatsMetrics {
		return ErrBufferTooLarge
	}
	r.Metrics = nil
	if n > 0 {
		r.Metrics = make([]KV, n)
	}
	for i := 0; i < len(r.Metrics) && d.Err() == nil; i++ {
		r.Metrics[i].Key = d.ReadString()
		r.Metrics[i].Value = d.ReadInt64()
	}
	r.Ensemble = d.ReadString()
	return d.Err()
}

// ReconfigRequest asks the leader to commit one incremental membership
// change: "add" a new replica as an observer, "promote" a synced
// observer to voter, or "remove" a member. Addr is the peer-mesh
// address of an added replica (ignored otherwise).
type ReconfigRequest struct {
	Action string
	ID     int64
	Addr   string
}

// Serialize implements Record.
func (r *ReconfigRequest) Serialize(e *Encoder) {
	e.WriteString(r.Action)
	e.WriteInt64(r.ID)
	e.WriteString(r.Addr)
}

// Deserialize implements Record.
func (r *ReconfigRequest) Deserialize(d *Decoder) error {
	r.Action = d.ReadString()
	r.ID = d.ReadInt64()
	r.Addr = d.ReadString()
	return d.Err()
}

// ReconfigResponse reports the membership after the change committed.
type ReconfigResponse struct {
	Zxid     int64  // zxid of the committed reconfig txn
	Ensemble string // resulting membership view
}

// Serialize implements Record.
func (r *ReconfigResponse) Serialize(e *Encoder) {
	e.WriteInt64(r.Zxid)
	e.WriteString(r.Ensemble)
}

// Deserialize implements Record.
func (r *ReconfigResponse) Deserialize(d *Decoder) error {
	r.Zxid = d.ReadInt64()
	r.Ensemble = d.ReadString()
	return d.Err()
}

// WatcherEvent notifies a client of a triggered watch. It is sent with
// the reserved Xid -1.
type WatcherEvent struct {
	Type  EventType
	State int32
	Path  string
}

// WatcherEventXid is the reserved Xid marking watch notifications.
const WatcherEventXid int32 = -1

// PingXid is the reserved Xid for heartbeat requests.
const PingXid int32 = -2

// Serialize implements Record.
func (r *WatcherEvent) Serialize(e *Encoder) {
	e.WriteInt32(int32(r.Type))
	e.WriteInt32(r.State)
	e.WritePath(r.Path)
}

// Deserialize implements Record.
func (r *WatcherEvent) Deserialize(d *Decoder) error {
	r.Type = EventType(d.ReadInt32())
	r.State = d.ReadInt32()
	r.Path = d.ReadString()
	return d.Err()
}

// ResponseBody returns a zero value of the response record for an op, or
// nil for ops without a response body (delete, ping, close).
func ResponseBody(op OpCode) Record {
	switch op {
	case OpCreate:
		return &CreateResponse{}
	case OpExists:
		return &ExistsResponse{}
	case OpGetData:
		return &GetDataResponse{}
	case OpSetData:
		return &SetDataResponse{}
	case OpGetChildren:
		return &GetChildrenResponse{}
	case OpSync:
		return &SyncResponse{}
	case OpMulti:
		return &MultiResponse{}
	case OpServerStats:
		return &ServerStatsResponse{}
	case OpReconfig:
		return &ReconfigResponse{}
	default:
		return nil
	}
}
