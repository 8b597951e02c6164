package wire

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// roundTrip marshals a record and unmarshals it into a fresh instance,
// failing unless the two are deeply equal.
func roundTrip(t *testing.T, in Record, out Record) {
	t.Helper()
	buf := Marshal(in)
	if err := Unmarshal(buf, out); err != nil {
		t.Fatalf("Unmarshal %T: %v", in, err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip %T:\n in: %+v\nout: %+v", in, in, out)
	}
}

// recordCase is one record of the protocol with every field set, and a
// zero value of its type to decode into.
type recordCase struct {
	name    string
	in, out Record
}

func recordCases() []recordCase {
	stat := Stat{
		Czxid: 1, Mzxid: 2, Ctime: 3, Mtime: 4, Version: 5, Cversion: 6,
		Aversion: 7, EphemeralOwner: 8, DataLength: 9, NumChildren: 10, Pzxid: 11,
	}
	return []recordCase{
		{"stat", &stat, &Stat{}},
		{"reqHeader", &RequestHeader{Xid: 7, Op: OpCreate}, &RequestHeader{}},
		{"replyHeader", &ReplyHeader{Xid: 7, Zxid: 99, Err: ErrNoNode}, &ReplyHeader{}},
		{"connectReq", &ConnectRequest{ProtocolVersion: 1, LastZxidSeen: 2, TimeoutMillis: 3, SessionID: 4, Passwd: []byte("pw")}, &ConnectRequest{}},
		{"connectResp", &ConnectResponse{ProtocolVersion: 1, TimeoutMillis: 2, SessionID: 3, Passwd: []byte("pw")}, &ConnectResponse{}},
		{"createReq", &CreateRequest{Path: "/a/b", Data: []byte("x"), Flags: FlagSequential | FlagEphemeral}, &CreateRequest{}},
		{"createResp", &CreateResponse{Path: "/a/b0000000001"}, &CreateResponse{}},
		{"deleteReq", &DeleteRequest{Path: "/a", Version: -1}, &DeleteRequest{}},
		{"existsReq", &ExistsRequest{Path: "/a", Watch: true}, &ExistsRequest{}},
		{"existsResp", &ExistsResponse{Stat: stat}, &ExistsResponse{}},
		{"getReq", &GetDataRequest{Path: "/a", Watch: true}, &GetDataRequest{}},
		{"getResp", &GetDataResponse{Data: []byte("d"), Stat: stat}, &GetDataResponse{}},
		{"setReq", &SetDataRequest{Path: "/a", Data: []byte("d"), Version: 3}, &SetDataRequest{}},
		{"setResp", &SetDataResponse{Stat: stat}, &SetDataResponse{}},
		{"childrenReq", &GetChildrenRequest{Path: "/", Watch: false}, &GetChildrenRequest{}},
		{"childrenResp", &GetChildrenResponse{Children: []string{"a", "b"}}, &GetChildrenResponse{}},
		{"syncReq", &SyncRequest{Path: "/a"}, &SyncRequest{}},
		{"syncResp", &SyncResponse{Path: "/a"}, &SyncResponse{}},
		{"watcherEvent", &WatcherEvent{Type: EventNodeDataChanged, State: 3, Path: "/a"}, &WatcherEvent{}},
		{"statsResp", &ServerStatsResponse{Role: "LEADING", Leader: 1, Zxid: 2, Sessions: 3, Watches: 4, Outstanding: 5,
			UptimeSeconds: 6, CommitLag: 7, Metrics: []KV{{"a", 1}, {"b", 2}}, Ensemble: "voters=1"}, &ServerStatsResponse{}},
		{"reconfigReq", &ReconfigRequest{Action: "add", ID: 4, Addr: "h:1"}, &ReconfigRequest{}},
		{"reconfigResp", &ReconfigResponse{Zxid: 9, Ensemble: "voters=1,2,3 observers=4"}, &ReconfigResponse{}},
		{"multiReq", sampleMultiRequest(), &MultiRequest{}},
		{"multiResp", &MultiResponse{Results: []MultiOpResult{{Op: OpCreate, Path: "/a", Stat: stat}, {Op: OpCheck, Err: ErrNoNode}}}, &MultiResponse{}},
	}
}

// fresh returns a new zero value of the case's record type.
func (c recordCase) fresh() Record {
	return reflect.New(reflect.TypeOf(c.out).Elem()).Interface().(Record)
}

func TestRecordRoundTrips(t *testing.T) {
	for _, tc := range recordCases() {
		t.Run(tc.name, func(t *testing.T) {
			roundTrip(t, tc.in, tc.out)
			// The language is exactly the encodings: a record cut short
			// anywhere is a short buffer, a byte behind it is refused.
			buf := Marshal(tc.in)
			for cut := 0; cut < len(buf); cut++ {
				if err := Unmarshal(buf[:cut], tc.fresh()); !errors.Is(err, ErrShortBuffer) {
					t.Fatalf("%d of %d bytes: err = %v, want ErrShortBuffer", cut, len(buf), err)
				}
			}
			if err := Unmarshal(append(buf, 0), tc.fresh()); err == nil || errors.Is(err, ErrShortBuffer) {
				t.Fatalf("a byte behind the record: err = %v", err)
			}
		})
	}

	// A count is a claim until the elements parse: one that announces the
	// most the decoder takes, over a body that is not there, fails on the
	// first element and allocates for a bounded few.
	count := func(head Record, n int32) []byte {
		e := NewEncoder(64)
		if head != nil {
			head.Serialize(e)
			e.buf = e.buf[:e.Len()-8] // up to the metrics count
		}
		e.WriteInt32(n)
		return e.Bytes()
	}
	claims := []struct {
		name string
		buf  []byte
		out  Record
	}{
		{"children", count(nil, MaxVectorLen), &GetChildrenResponse{}},
		{"multiReq", count(nil, MaxMultiOps), &MultiRequest{}},
		{"multiResp", count(nil, MaxMultiOps), &MultiResponse{}},
		{"statsMetrics", count(&ServerStatsResponse{Role: "LEADING"}, maxStatsMetrics), &ServerStatsResponse{}},
	}
	for _, tc := range claims {
		t.Run("claim/"+tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := Unmarshal(tc.buf, tc.out)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrShortBuffer) {
				t.Fatalf("err = %v, want ErrShortBuffer", err)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
				t.Fatalf("a %d-byte frame made the decoder allocate %d bytes", len(tc.buf), grown)
			}
		})
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	buf := Marshal(&SyncRequest{Path: "/a"})
	buf = append(buf, 0xFF)
	if err := Unmarshal(buf, &SyncRequest{}); err == nil {
		t.Fatal("want error for trailing bytes")
	}
}

func TestMarshalPair(t *testing.T) {
	hdr := RequestHeader{Xid: 3, Op: OpGetData}
	body := GetDataRequest{Path: "/x", Watch: true}
	buf := MarshalPair(&hdr, &body)

	d := NewDecoder(buf)
	var gotHdr RequestHeader
	if err := gotHdr.Deserialize(d); err != nil {
		t.Fatal(err)
	}
	var gotBody GetDataRequest
	if err := gotBody.Deserialize(d); err != nil {
		t.Fatal(err)
	}
	if gotHdr != hdr || gotBody != body {
		t.Fatalf("got %+v %+v", gotHdr, gotBody)
	}
	if got := MarshalPair(&hdr, nil); len(got) != 8 {
		t.Fatalf("header-only pair length %d, want 8", len(got))
	}
}

func TestRequestResponseBodyFactories(t *testing.T) {
	for _, op := range []OpCode{OpCreate, OpExists, OpGetData, OpSetData, OpGetChildren, OpSync} {
		if ResponseBody(op) == nil {
			t.Errorf("ResponseBody(%v) = nil", op)
		}
	}
	if ResponseBody(OpDelete) != nil {
		t.Error("ResponseBody(delete) should be nil")
	}
}

// Property: Stat survives serialization for arbitrary field values.
func TestQuickStatRoundTrip(t *testing.T) {
	f := func(s Stat) bool {
		var out Stat
		if err := Unmarshal(Marshal(&s), &out); err != nil {
			return false
		}
		return s == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CreateRequest survives serialization for arbitrary content.
func TestQuickCreateRequestRoundTrip(t *testing.T) {
	f := func(path string, data []byte, flags int32) bool {
		in := CreateRequest{Path: path, Data: data, Flags: CreateFlags(flags)}
		var out CreateRequest
		if err := Unmarshal(Marshal(&in), &out); err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpCodeStringsAndIsWrite(t *testing.T) {
	writes := map[OpCode]bool{
		OpCreate: true, OpDelete: true, OpSetData: true, OpCloseSession: true,
		OpGetData: false, OpExists: false, OpGetChildren: false, OpSync: false, OpPing: false,
	}
	for op, want := range writes {
		if op.IsWrite() != want {
			t.Errorf("%v.IsWrite() = %v, want %v", op, op.IsWrite(), want)
		}
		if op.String() == "" {
			t.Errorf("%v has empty string", op)
		}
	}
	if OpCode(77).String() != "OP(77)" {
		t.Errorf("unknown op string = %q", OpCode(77).String())
	}
}

func TestErrCodes(t *testing.T) {
	if err := ErrOK.Error(); err != nil {
		t.Fatalf("ErrOK.Error() = %v, want nil", err)
	}
	err := ErrNoNode.Error()
	if err == nil {
		t.Fatal("ErrNoNode.Error() = nil")
	}
	var pe *ProtocolError
	if !asProtocolError(err, &pe) || pe.Code != ErrNoNode {
		t.Fatalf("error does not carry code: %v", err)
	}
	if ErrNoNode.String() != "NONODE" || ErrCode(-999).String() != "ERR(-999)" {
		t.Fatal("bad error code strings")
	}
}

func asProtocolError(err error, target **ProtocolError) bool {
	pe, ok := err.(*ProtocolError)
	if ok {
		*target = pe
	}
	return ok
}

func TestEventTypeStrings(t *testing.T) {
	for _, ev := range []EventType{EventNodeCreated, EventNodeDeleted, EventNodeDataChanged, EventNodeChildrenChanged} {
		if ev.String() == "" {
			t.Errorf("%d has empty string", ev)
		}
	}
}
