package wire

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestEncoderPoolRoundTrip: pooled encoders start empty and reuse their
// allocation.
func TestEncoderPoolRoundTrip(t *testing.T) {
	e := GetEncoder()
	e.WriteString("hello")
	PutEncoder(e)
	e2 := GetEncoder()
	if e2.Len() != 0 {
		t.Fatalf("pooled encoder not reset: len=%d", e2.Len())
	}
	PutEncoder(e2)
}

// TestAppendToMatchesMarshalPair: an encoder over caller memory must
// produce byte-identical output in place, and leave the caller's array
// for a fresh one — which Len shows — instead of writing past it.
func TestAppendToMatchesMarshalPair(t *testing.T) {
	hdr := RequestHeader{Xid: 7, Op: OpGetData}
	body := GetDataRequest{Path: "/a/b", Watch: true}
	want := MarshalPair(&hdr, &body)

	buf := make([]byte, 256)
	e := AppendTo(buf[:0])
	hdr.Serialize(&e)
	body.Serialize(&e)
	if e.Len() > len(buf) || !bytes.Equal(buf[:e.Len()], want) {
		t.Fatalf("AppendTo wrote %x, want %x", buf[:e.Len()], want)
	}

	tiny := make([]byte, len(want)-1, len(want)+8)
	guard := tiny[:cap(tiny)][len(tiny):]
	e = AppendTo(tiny[:0:len(tiny)])
	hdr.Serialize(&e)
	body.Serialize(&e)
	if e.Len() <= len(tiny) {
		t.Fatalf("AppendTo fit %d bytes into %d", e.Len(), len(tiny))
	}
	if !bytes.Equal(guard, make([]byte, len(guard))) {
		t.Fatalf("AppendTo wrote past the capacity it was given: %x", guard)
	}
}

// TestAppendToMovesAliasedBufferDown: a byte field may alias the memory
// being written as long as it lies behind where it is going (the entry
// enclave serializes a GET reply's payload, decrypted in place further
// back in the slot, over the reply it arrived in).
func TestAppendToMovesAliasedBufferDown(t *testing.T) {
	buf := make([]byte, 256)
	payload := buf[24:34] // the serialized field starts at 20 and overlaps it
	for i := range payload {
		payload[i] = byte('a' + i)
	}
	wantData := append([]byte(nil), payload...)
	hdr := ReplyHeader{Xid: 1, Err: ErrOK}
	body := GetDataResponse{Data: payload}
	e := AppendTo(buf[:0])
	hdr.Serialize(&e)
	body.Serialize(&e)
	var gotHdr ReplyHeader
	var got GetDataResponse
	d := NewDecoder(buf[:e.Len()])
	if err := gotHdr.Deserialize(d); err != nil {
		t.Fatal(err)
	}
	if err := got.Deserialize(d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, wantData) {
		t.Fatalf("aliased body corrupted: %q, want %q", got.Data, wantData)
	}
}

// TestAppendToMapping: the path fields go through the mapping, the
// record's own layout stays, and the first error is kept with its field
// written empty.
func TestAppendToMapping(t *testing.T) {
	upper := func(dst []byte, s string) ([]byte, error) {
		if s == "bad" {
			return append(dst, "partial"...), ErrBadArguments.Error()
		}
		return append(dst, bytes.ToUpper([]byte(s))...), nil
	}
	e := AppendToMapping(nil, upper)
	(&GetChildrenResponse{Children: []string{"a", "bc"}}).Serialize(&e)
	if want := Marshal(&GetChildrenResponse{Children: []string{"A", "BC"}}); !bytes.Equal(e.Bytes(), want) || e.Err() != nil {
		t.Fatalf("mapped vector = %x (err %v), want %x", e.Bytes(), e.Err(), want)
	}

	e = AppendToMapping(nil, upper)
	(&CreateRequest{Path: "bad", Data: []byte("d"), Flags: FlagSequential}).Serialize(&e)
	if want := Marshal(&CreateRequest{Data: []byte("d"), Flags: FlagSequential}); !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("failed mapping wrote %x, want the field empty: %x", e.Bytes(), want)
	}
	if e.Err() == nil {
		t.Fatal("mapping error lost")
	}
}

// TestAppendToMappingRewritesPathsOnly pins what the entry enclave
// relies on when it serializes a record under its path cipher: of every
// record of the protocol, the mapping reaches the path fields — paths
// and children's names — and no other string, byte or number. A record
// that gains a string field which is not a path must write it with
// WriteString; listed here with the field unchanged, it stays out of the
// cipher's way.
func TestAppendToMappingRewritesPathsOnly(t *testing.T) {
	upper := func(dst []byte, s string) ([]byte, error) {
		return append(dst, strings.ToUpper(s)...), nil
	}
	stat := Stat{Czxid: 3, Version: 4, DataLength: 5}
	for _, tc := range []struct{ in, want Record }{
		{&CreateRequest{Path: "/a/b", Data: []byte("data"), Flags: FlagSequential}, &CreateRequest{Path: "/A/B", Data: []byte("data"), Flags: FlagSequential}},
		{&CreateResponse{Path: "/a/b0000000001"}, &CreateResponse{Path: "/A/B0000000001"}},
		{&DeleteRequest{Path: "/a/b", Version: 2}, &DeleteRequest{Path: "/A/B", Version: 2}},
		{&ExistsRequest{Path: "/a/b", Watch: true}, &ExistsRequest{Path: "/A/B", Watch: true}},
		{&ExistsResponse{Stat: stat}, &ExistsResponse{Stat: stat}},
		{&GetDataRequest{Path: "/a/b", Watch: true}, &GetDataRequest{Path: "/A/B", Watch: true}},
		{&GetDataResponse{Data: []byte("data"), Stat: stat}, &GetDataResponse{Data: []byte("data"), Stat: stat}},
		{&SetDataRequest{Path: "/a/b", Data: []byte("data"), Version: 2}, &SetDataRequest{Path: "/A/B", Data: []byte("data"), Version: 2}},
		{&SetDataResponse{Stat: stat}, &SetDataResponse{Stat: stat}},
		{&GetChildrenRequest{Path: "/a/b", Watch: true}, &GetChildrenRequest{Path: "/A/B", Watch: true}},
		{&GetChildrenResponse{Children: []string{"x", "yz"}}, &GetChildrenResponse{Children: []string{"X", "YZ"}}},
		{&SyncRequest{Path: "/a/b"}, &SyncRequest{Path: "/A/B"}},
		{&SyncResponse{Path: "/a/b"}, &SyncResponse{Path: "/A/B"}},
		{&WatcherEvent{Type: EventNodeDataChanged, State: 3, Path: "/a/b"}, &WatcherEvent{Type: EventNodeDataChanged, State: 3, Path: "/A/B"}},
		{&MultiRequest{Ops: []MultiOp{{Op: OpCreate, Path: "/a/b", Data: []byte("data")}, {Op: OpDelete, Path: "/c", Version: 1}}},
			&MultiRequest{Ops: []MultiOp{{Op: OpCreate, Path: "/A/B", Data: []byte("data")}, {Op: OpDelete, Path: "/C", Version: 1}}}},
		{&MultiResponse{Results: []MultiOpResult{{Op: OpCreate, Path: "/a/b", Stat: stat}}}, &MultiResponse{Results: []MultiOpResult{{Op: OpCreate, Path: "/A/B", Stat: stat}}}},
		// No paths in these: the mapping must leave every string alone.
		{&RequestHeader{Xid: 1, Op: OpCreate}, &RequestHeader{Xid: 1, Op: OpCreate}},
		{&ReplyHeader{Xid: 1, Zxid: 2, Err: ErrNoNode}, &ReplyHeader{Xid: 1, Zxid: 2, Err: ErrNoNode}},
		{&ConnectRequest{TimeoutMillis: 9, Passwd: []byte("pw")}, &ConnectRequest{TimeoutMillis: 9, Passwd: []byte("pw")}},
		{&ConnectResponse{TimeoutMillis: 9, SessionID: 8, Passwd: []byte("pw")}, &ConnectResponse{TimeoutMillis: 9, SessionID: 8, Passwd: []byte("pw")}},
		{&ServerStatsResponse{Role: "leading", Metrics: []KV{{Key: "k", Value: 1}}, Ensemble: "voters=a"}, &ServerStatsResponse{Role: "leading", Metrics: []KV{{Key: "k", Value: 1}}, Ensemble: "voters=a"}},
		{&ReconfigRequest{Action: "add", ID: 4, Addr: "host:1"}, &ReconfigRequest{Action: "add", ID: 4, Addr: "host:1"}},
		{&ReconfigResponse{Zxid: 2, Ensemble: "voters=a"}, &ReconfigResponse{Zxid: 2, Ensemble: "voters=a"}},
	} {
		e := AppendToMapping(nil, upper)
		tc.in.Serialize(&e)
		if want := Marshal(tc.want); !bytes.Equal(e.Bytes(), want) || e.Err() != nil {
			t.Errorf("%T under the mapping = %x (err %v), want %x", tc.in, e.Bytes(), e.Err(), want)
		}
	}
}

// TestAppendSequence: the suffix is what ZooKeeper's "%010d" prints.
func TestAppendSequence(t *testing.T) {
	for _, seq := range []int32{0, 7, 42, 999999999, 1234567890, math.MaxInt32, -1, -42, math.MinInt32} {
		if got, want := AppendSequence("/q/n-", seq), fmt.Sprintf("/q/n-%010d", seq); got != want {
			t.Errorf("AppendSequence(%d) = %q, want %q", seq, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = AppendSequence("/q/n-", 42) }); n > 1 {
		t.Errorf("AppendSequence allocates %v objects, want the result alone", n)
	}
}

// TestDecoderZeroCopy: zero-copy buffers alias the input; the default
// mode copies.
func TestDecoderZeroCopy(t *testing.T) {
	e := NewEncoder(32)
	e.WriteBuffer([]byte("payload"))
	raw := e.Bytes()

	d := NewDecoder(raw)
	copied := d.ReadBuffer()
	var zc Decoder
	zc.Reset(raw)
	zc.SetZeroCopy(true)
	aliased := zc.ReadBuffer()
	if d.Err() != nil || zc.Err() != nil {
		t.Fatal(d.Err(), zc.Err())
	}
	if !bytes.Equal(copied, aliased) {
		t.Fatal("modes disagree on content")
	}
	raw[4] = 'X' // first payload byte
	if copied[0] == 'X' {
		t.Fatal("default mode aliased the input")
	}
	if aliased[0] != 'X' {
		t.Fatal("zero-copy mode copied the input")
	}
	// The aliased slice's capacity is capped: appending must not
	// scribble over bytes the decoder has not read yet.
	if cap(aliased) != len(aliased) {
		t.Fatalf("zero-copy slice capacity %d leaks past its length %d", cap(aliased), len(aliased))
	}
}

// TestDecoderReset clears position, buffer, kept error and mode.
func TestDecoderReset(t *testing.T) {
	var d Decoder
	d.Reset([]byte{0, 0, 0, 1, 0xff})
	d.SetZeroCopy(true)
	if v := d.ReadInt32(); d.Err() != nil || v != 1 {
		t.Fatalf("ReadInt32 = %d, %v", v, d.Err())
	}
	if d.ReadInt32(); d.Err() != ErrShortBuffer {
		t.Fatalf("read past the end: err = %v, want ErrShortBuffer", d.Err())
	}
	d.Reset([]byte{0, 0, 0, 2})
	if d.Err() != nil {
		t.Fatal("Reset kept the error")
	}
	if d.Offset() != 0 {
		t.Fatal("Reset kept the read position")
	}
	if d.zeroCopy {
		t.Fatal("Reset kept zero-copy mode")
	}
	if v := d.ReadInt32(); d.Err() != nil || v != 2 {
		t.Fatalf("ReadInt32 after Reset = %d, %v", v, d.Err())
	}
}
