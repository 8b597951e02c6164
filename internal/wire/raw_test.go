package wire

import (
	"bytes"
	"testing"
)

func TestRawRoundTrip(t *testing.T) {
	e := NewEncoder(16)
	e.WriteInt32(7)
	e.WriteRaw([]byte("chunkbytes"))
	e.WriteInt32(9)

	d := NewDecoder(e.Bytes())
	if v := d.ReadInt32(); v != 7 {
		t.Fatalf("ReadInt32 = %d, %v", v, d.Err())
	}
	if raw := d.ReadRaw(10); !bytes.Equal(raw, []byte("chunkbytes")) {
		t.Fatalf("ReadRaw = %q, %v", raw, d.Err())
	}
	if v := d.ReadInt32(); v != 9 {
		t.Fatalf("trailing ReadInt32 = %d, %v", v, d.Err())
	}
	if err := d.Finish(nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadRawBounds(t *testing.T) {
	buf := []byte{1, 2, 3}
	if d := NewDecoder(buf); d.ReadRaw(-1) != nil || d.Err() != ErrNegativeLen {
		t.Fatalf("negative length: err = %v", d.Err())
	}
	if d := NewDecoder(buf); d.ReadRaw(4) != nil || d.Err() != ErrShortBuffer {
		t.Fatalf("overlong read: err = %v", d.Err())
	}
	if d := NewDecoder(buf); len(d.ReadRaw(3)) != 3 || d.Err() != nil {
		t.Fatalf("exact read: err = %v", d.Err())
	}
}

func TestReadRawZeroCopyAliases(t *testing.T) {
	buf := []byte("abcdef")
	d := NewDecoder(buf)
	d.SetZeroCopy(true)
	raw := d.ReadRaw(6)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	raw[0] = 'X'
	if buf[0] != 'X' {
		t.Fatal("zero-copy ReadRaw must alias the source buffer")
	}
}
