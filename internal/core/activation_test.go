package core

import (
	"fmt"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/obs"
	"securekeeper/internal/zab"
)

// slowAcks delays every NEWLEADERACK it sends by 30 ms: a follower has
// synced and reports FOLLOWING well before its leader counts it.
type slowAcks struct{ zab.Transport }

func (s slowAcks) Send(to zab.PeerID, msg zab.Message) error {
	if msg.Kind == zab.KindNewLeaderAck {
		time.AfterFunc(30*time.Millisecond, func() { _ = s.Transport.Send(to, msg) })
		return nil
	}
	return s.Transport.Send(to, msg)
}

// TestNewClusterWaitsForActivation: NewCluster returns once the leader
// takes writes, not once its followers report FOLLOWING. A leader
// refuses writes until a quorum has synced with it, so a write through
// any replica right after NewCluster must succeed.
func TestNewClusterWaitsForActivation(t *testing.T) {
	c, err := NewCluster(Config{
		Replicas:        3,
		TickInterval:    5 * time.Millisecond,
		ElectionTimeout: 250 * time.Millisecond,
		WrapTransport: func(_ zab.PeerID, inner zab.Transport, _ *obs.Registry) zab.Transport {
			return slowAcks{inner}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < c.Size(); i++ {
		cl, err := c.Connect(i, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		if _, err := cl.Create(ctxbg, fmt.Sprintf("/first%d", i), nil, 0); err != nil {
			t.Fatalf("write through replica %d right after NewCluster: %v", i, err)
		}
	}
}
