package main

import (
	"errors"
	"fmt"
	"testing"

	"securekeeper/internal/wire"
)

func TestBurstFate(t *testing.T) {
	protoErr := func(code wire.ErrCode) error {
		return fmt.Errorf("create: %w", &wire.ProtocolError{Code: code})
	}
	for _, tc := range []struct {
		name    string
		err     error
		retried bool
		fate    string
		redial  bool
	}{
		{"acknowledged", nil, false, "ACK", false},
		{"acknowledged on a retry", nil, true, "ACK", false},
		{"session broke", errors.New("read tcp: connection reset by peer"), false, "", true},
		{"leader lost", protoErr(wire.ErrConnectionLoss), false, "", false},
		{"leader lost again", protoErr(wire.ErrConnectionLoss), true, "", false},
		{"earlier attempt committed", protoErr(wire.ErrNodeExists), true, "MAYBE", false},
		{"node predates the burst", protoErr(wire.ErrNodeExists), false, "LOST", false},
		{"parent missing", protoErr(wire.ErrNoNode), false, "LOST", false},
		{"integrity", protoErr(wire.ErrIntegrity), true, "LOST", false},
	} {
		f, redial := fate(tc.err, tc.retried)
		if f != tc.fate || redial != tc.redial {
			t.Errorf("%s: fate(%v, retried=%v) = %q, redial=%v; want %q, redial=%v",
				tc.name, tc.err, tc.retried, f, redial, tc.fate, tc.redial)
		}
	}
}
