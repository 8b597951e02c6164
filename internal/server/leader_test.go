package server

import (
	"bytes"
	"testing"

	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
)

// FuzzDecodeForward feeds decodeForward what a peer could send in an APP
// message: it must not panic, and whatever it accepts is exactly what
// encode produces for the request or reject it returned — so nothing
// with a tail, an unknown kind or a second spelling of a message gets in.
func FuzzDecodeForward(f *testing.F) {
	origin := zab.Origin{Peer: 2, Session: 2<<48 | 9, Xid: 7}
	body := wire.Marshal(&wire.CreateRequest{Path: "/fwd", Data: []byte("v")})
	request := forwardMsg{kind: fwdRequest, origin: origin, op: wire.OpCreate, body: body}.encode()
	reject := forwardMsg{kind: fwdReject, origin: origin}.encode()
	// kind | peer | session | xid | op | body length | body
	for _, end := range []int{0, 1, 9, 17, 21, 25, 29, len(request)} {
		f.Add(request[:end])
	}
	for _, end := range []int{0, 1, 9, 17, len(reject)} {
		f.Add(reject[:end])
	}
	f.Add(append(bytes.Clone(reject), 0))                                                 // trailing byte
	f.Add(append([]byte{3}, reject[1:]...))                                               // unknown kind
	f.Add(forwardMsg{kind: fwdRequest, origin: origin, op: wire.OpCloseSession}.encode()) // nil body
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeForward(data)
		if err != nil {
			return
		}
		if msg.kind != fwdRequest && msg.kind != fwdReject {
			t.Fatalf("accepted kind %d", msg.kind)
		}
		if again := msg.encode(); !bytes.Equal(again, data) {
			t.Fatalf("accepted % x, which encodes back to % x", data, again)
		}
	})
}
