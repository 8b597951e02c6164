package wire

import (
	"bytes"
	"strings"
	"testing"
)

func sampleMultiRequest() *MultiRequest {
	return &MultiRequest{Ops: []MultiOp{
		{Op: OpCheck, Path: "/config", Version: 7},
		{Op: OpCreate, Path: "/config/audit-", Data: []byte("rotated"), Flags: FlagSequential},
		{Op: OpSetData, Path: "/config/db", Data: []byte("secret"), Version: 3},
		{Op: OpDelete, Path: "/config/stale", Version: -1},
	}}
}

func TestMultiRequestRoundTrip(t *testing.T) {
	req := sampleMultiRequest()
	buf := Marshal(req)
	var got MultiRequest
	if err := Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(req.Ops) {
		t.Fatalf("ops = %d, want %d", len(got.Ops), len(req.Ops))
	}
	for i, op := range got.Ops {
		want := req.Ops[i]
		if op.Op != want.Op || op.Path != want.Path || !bytes.Equal(op.Data, want.Data) ||
			op.Flags != want.Flags || op.Version != want.Version {
			t.Fatalf("op %d = %+v, want %+v", i, op, want)
		}
	}
}

func TestMultiResponseRoundTrip(t *testing.T) {
	resp := &MultiResponse{Results: []MultiOpResult{
		{Op: OpCheck, Err: ErrOK, Stat: Stat{Version: 7}},
		{Op: OpCreate, Err: ErrOK, Path: "/config/audit-0000000001"},
		{Op: OpSetData, Err: ErrBadVersion},
	}}
	buf := Marshal(resp)
	var got MultiResponse
	if err := Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 3 || got.Results[0].Stat.Version != 7 ||
		got.Results[1].Path != "/config/audit-0000000001" || got.Results[2].Err != ErrBadVersion {
		t.Fatalf("results = %+v", got.Results)
	}
}

func TestMultiRequestEmptyRoundTrip(t *testing.T) {
	buf := Marshal(&MultiRequest{})
	var got MultiRequest
	if err := Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 0 {
		t.Fatalf("ops = %v", got.Ops)
	}
}

// TestMultiRequestTruncation: every strict prefix of a valid encoding
// must fail cleanly, never panic or succeed.
func TestMultiRequestTruncation(t *testing.T) {
	buf := Marshal(sampleMultiRequest())
	for cut := 0; cut < len(buf); cut++ {
		var got MultiRequest
		if err := Unmarshal(buf[:cut], &got); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(buf))
		}
	}
}

func TestMultiResponseTruncation(t *testing.T) {
	buf := Marshal(&MultiResponse{Results: []MultiOpResult{
		{Op: OpCreate, Path: "/a"}, {Op: OpCheck, Err: ErrNoNode},
	}})
	for cut := 0; cut < len(buf); cut++ {
		var got MultiResponse
		if err := Unmarshal(buf[:cut], &got); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(buf))
		}
	}
}

// TestMultiRequestAdversarialCounts: a hostile frame must not drive
// unbounded allocation through a huge claimed op count.
func TestMultiRequestAdversarialCounts(t *testing.T) {
	for _, n := range []int32{-1, MaxMultiOps + 1, 1 << 30} {
		e := GetEncoder()
		e.WriteInt32(n)
		var got MultiRequest
		err := Unmarshal(e.Bytes(), &got)
		PutEncoder(e)
		if err == nil {
			t.Fatalf("count %d accepted", n)
		}
		if !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("count %d: err = %v", n, err)
		}
	}
}

// TestMultiRequestInvalidSubOp: only the four sub-op codes may appear.
func TestMultiRequestInvalidSubOp(t *testing.T) {
	for _, op := range []OpCode{OpGetData, OpSync, OpMulti, OpPing, OpCode(99), OpCloseSession} {
		e := GetEncoder()
		e.WriteInt32(1)
		bad := MultiOp{Op: op, Path: "/x"}
		bad.Serialize(e)
		var got MultiRequest
		err := Unmarshal(e.Bytes(), &got)
		PutEncoder(e)
		if err == nil {
			t.Fatalf("sub-op %v accepted inside a multi", op)
		}
	}
}

// TestMultiRequestMutation: single-byte corruptions must never panic;
// they either fail or decode into a different (but bounded) record.
func TestMultiRequestMutation(t *testing.T) {
	orig := Marshal(sampleMultiRequest())
	buf := make([]byte, len(orig))
	for i := 0; i < len(orig); i++ {
		for _, flip := range []byte{0xff, 0x80, 0x01} {
			copy(buf, orig)
			buf[i] ^= flip
			var got MultiRequest
			_ = Unmarshal(buf, &got) // must not panic
			if len(got.Ops) > MaxMultiOps {
				t.Fatalf("mutation at %d produced %d ops", i, len(got.Ops))
			}
		}
	}
}

func TestMultiOpsRegistered(t *testing.T) {
	if !OpMulti.IsWrite() {
		t.Fatal("OpMulti must be a write (agreed through broadcast)")
	}
	if _, ok := ResponseBody(OpMulti).(*MultiResponse); !ok {
		t.Fatal("ResponseBody(OpMulti) wrong type")
	}
	if OpMulti.String() != "MULTI" || OpCheck.String() != "CHECK" {
		t.Fatalf("mnemonics: %s %s", OpMulti, OpCheck)
	}
}
