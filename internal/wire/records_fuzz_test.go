package wire

import (
	"bytes"
	"testing"
)

// FuzzRecordDecode puts arbitrary bytes to every record of the client
// protocol — the first byte picks one of recordCases, headers and Stat
// included. No input may panic the decoder, and the language it accepts
// is the encoder's: accepted bytes re-encode to themselves (but for the
// one non-canonical spelling the format has, a true written as a byte
// other than 1).
func FuzzRecordDecode(f *testing.F) {
	cases := recordCases()
	for i, c := range cases {
		buf := append([]byte{byte(i)}, Marshal(c.in)...)
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
		f.Add(append(buf, 0))
		if c.name == "childrenResp" {
			f.Add([]byte{byte(i), 0xff, 0xff, 0xff, 0xff}) // a nil vector
			f.Add([]byte{byte(i), 0x00, 0x10, 0x00, 0x00}) // MaxVectorLen names, none there
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := cases[int(data[0])%len(cases)]
		data = data[1:]
		rec := c.fresh()
		if err := Unmarshal(data, rec); err != nil {
			return
		}
		want := data
		if r, ok := rec.(*ReadRequest); ok && r.Watch {
			want = append(bytes.Clone(data[:len(data)-1]), 1)
		}
		if re := Marshal(rec); !bytes.Equal(re, want) {
			t.Fatalf("%s: accepted %x, re-encodes as %x", c.name, data, re)
		}
	})
}
