package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderPrimitives(t *testing.T) {
	e := NewEncoder(0)
	e.WriteBool(true)
	e.WriteBool(false)
	_ = e.WriteByte(0xAB)
	e.WriteInt32(-42)
	e.WriteInt32(math.MaxInt32)
	e.WriteInt64(math.MinInt64)
	e.WriteBuffer([]byte("hello"))
	e.WriteBuffer(nil)
	e.WriteBuffer([]byte{})
	e.WriteString("héllo/wörld")
	e.WriteInt32(3) // a vector of strings: its length, then each one
	for _, s := range []string{"a", "", "c"} {
		e.WriteString(s)
	}
	e.WriteInt32(-1) // a nil vector

	d := NewDecoder(e.Bytes())
	if v := d.ReadBool(); d.Err() != nil || v != true {
		t.Fatalf("ReadBool = %v, %v", v, d.Err())
	}
	if v := d.ReadBool(); d.Err() != nil || v != false {
		t.Fatalf("ReadBool = %v, %v", v, d.Err())
	}
	if v := d.ReadUint8(); d.Err() != nil || v != 0xAB {
		t.Fatalf("ReadUint8 = %v, %v", v, d.Err())
	}
	if v := d.ReadInt32(); d.Err() != nil || v != -42 {
		t.Fatalf("ReadInt32 = %v, %v", v, d.Err())
	}
	if v := d.ReadInt32(); d.Err() != nil || v != math.MaxInt32 {
		t.Fatalf("ReadInt32 = %v, %v", v, d.Err())
	}
	if v := d.ReadInt64(); d.Err() != nil || v != math.MinInt64 {
		t.Fatalf("ReadInt64 = %v, %v", v, d.Err())
	}
	if v := d.ReadBuffer(); d.Err() != nil || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("ReadBuffer = %q, %v", v, d.Err())
	}
	if v := d.ReadBuffer(); d.Err() != nil || v != nil {
		t.Fatalf("ReadBuffer nil = %v, %v", v, d.Err())
	}
	if v := d.ReadBuffer(); d.Err() != nil || v == nil || len(v) != 0 {
		t.Fatalf("ReadBuffer empty = %v, %v", v, d.Err())
	}
	if v := d.ReadString(); d.Err() != nil || v != "héllo/wörld" {
		t.Fatalf("ReadString = %q, %v", v, d.Err())
	}
	if v := d.ReadStringVector(); d.Err() != nil || len(v) != 3 || v[1] != "" {
		t.Fatalf("ReadStringVector = %v, %v", v, d.Err())
	}
	if v := d.ReadStringVector(); d.Err() != nil || v != nil {
		t.Fatalf("ReadStringVector nil = %v, %v", v, d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	cases := []struct {
		name string
		run  func(d *Decoder) error
	}{
		{"bool", func(d *Decoder) error { d.ReadBool(); return d.Err() }},
		{"int32", func(d *Decoder) error { d.ReadInt32(); return d.Err() }},
		{"int64", func(d *Decoder) error { d.ReadInt64(); return d.Err() }},
		{"buffer", func(d *Decoder) error { d.ReadBuffer(); return d.Err() }},
		{"string", func(d *Decoder) error { d.ReadString(); return d.Err() }},
		{"vector", func(d *Decoder) error { d.ReadStringVector(); return d.Err() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(NewDecoder(nil)); err != ErrShortBuffer {
				t.Fatalf("empty buffer: err = %v, want ErrShortBuffer", err)
			}
		})
	}
}

func TestDecoderBufferBodyTruncated(t *testing.T) {
	e := NewEncoder(0)
	e.WriteInt32(100) // declares 100 bytes, provides none
	d := NewDecoder(e.Bytes())
	if d.ReadBuffer(); d.Err() != ErrShortBuffer {
		t.Fatalf("truncated buffer body: err = %v, want ErrShortBuffer", d.Err())
	}
}

func TestDecoderNegativeLengths(t *testing.T) {
	e := NewEncoder(0)
	e.WriteInt32(-7)
	if d := NewDecoder(e.Bytes()); d.ReadBuffer() != nil || d.Err() != ErrNegativeLen {
		t.Fatalf("negative buffer length other than -1: err = %v, want ErrNegativeLen", d.Err())
	}
	if d := NewDecoder(e.Bytes()); d.ReadString() != "" || d.Err() != ErrNegativeLen {
		t.Fatalf("negative string length: err = %v, want ErrNegativeLen", d.Err())
	}
	if d := NewDecoder(e.Bytes()); d.ReadStringVector() != nil || d.Err() != ErrNegativeLen {
		t.Fatalf("negative vector length other than -1: err = %v, want ErrNegativeLen", d.Err())
	}
}

func TestDecoderOversizedDeclaration(t *testing.T) {
	e := NewEncoder(0)
	e.WriteInt32(MaxBufferSize + 1)
	if d := NewDecoder(e.Bytes()); d.ReadBuffer() != nil || d.Err() != ErrBufferTooLarge {
		t.Fatalf("oversized buffer: err = %v, want ErrBufferTooLarge", d.Err())
	}
	if d := NewDecoder(e.Bytes()); d.ReadString() != "" || d.Err() != ErrBufferTooLarge {
		t.Fatalf("oversized string: err = %v, want ErrBufferTooLarge", d.Err())
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.WriteInt64(1)
	if e.Len() != 8 {
		t.Fatalf("Len = %d", e.Len())
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after reset = %d", e.Len())
	}
}

func TestReadBufferCopies(t *testing.T) {
	e := NewEncoder(0)
	e.WriteBuffer([]byte{1, 2, 3})
	raw := e.Bytes()
	d := NewDecoder(raw)
	got := d.ReadBuffer()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	raw[4] = 99 // mutate the underlying storage
	if got[0] != 1 {
		t.Fatal("ReadBuffer must copy, not alias")
	}
}

// Property: every (int32, int64, string, buffer) round-trips.
func TestQuickPrimitivesRoundTrip(t *testing.T) {
	f := func(i32 int32, i64 int64, s string, b []byte, flag bool) bool {
		e := NewEncoder(0)
		e.WriteInt32(i32)
		e.WriteInt64(i64)
		e.WriteString(s)
		e.WriteBuffer(b)
		e.WriteBool(flag)
		d := NewDecoder(e.Bytes())
		same := d.ReadInt32() == i32 && d.ReadInt64() == i64 && d.ReadString() == s &&
			bytes.Equal(d.ReadBuffer(), b) && d.ReadBool() == flag
		return same && d.Finish(nil) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
