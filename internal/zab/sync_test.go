package zab

import (
	"sync"
	"testing"
)

// captureTransport records every Send for protocol-level assertions.
type captureTransport struct {
	mu   sync.Mutex
	sent []Message
	box  chan Message
}

func newCaptureTransport() *captureTransport {
	return &captureTransport{box: make(chan Message, 64)}
}

func (c *captureTransport) Send(to PeerID, msg Message) error {
	msg.From = to // irrelevant for these tests
	c.mu.Lock()
	c.sent = append(c.sent, msg)
	c.mu.Unlock()
	return nil
}

func (c *captureTransport) Receive() <-chan Message { return c.box }
func (c *captureTransport) Close() error            { return nil }

func (c *captureTransport) byKind(k Kind) []Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Message
	for _, m := range c.sent {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

// TestFollowerInfoAdvertisesCommittedFrontier: a follower that buffered
// proposals beyond its commit point must NOT claim them in
// FOLLOWERINFO — the leader's diff would start past entries the
// follower never applied, silently diverging its state.
func TestFollowerInfoAdvertisesCommittedFrontier(t *testing.T) {
	tr := newCaptureTransport()
	p := NewPeer(Config{ID: 1, Peers: []PeerID{1, 2, 3}, Transport: tr})
	// Not started: drive the loop-owned state directly.
	p.lastZxid = MakeZxid(3, 9) // buffered ahead of the commit point
	p.lastCommit.Store(MakeZxid(3, 4))

	p.follow(1, 2)
	infos := tr.byKind(KindFollowerInfo)
	if len(infos) != 1 || infos[0].Zxid != MakeZxid(3, 4) {
		t.Fatalf("becomeFollower FOLLOWERINFO = %+v, want Zxid=%#x (committed frontier)",
			infos, MakeZxid(3, 4))
	}

	// The paced tick retry must advertise the same committed frontier.
	p.tick(p.nextSyncAsk + 1) // heard from the leader at 1: not silent yet
	infos = tr.byKind(KindFollowerInfo)
	if len(infos) != 2 || infos[1].Zxid != MakeZxid(3, 4) {
		t.Fatalf("tick retry FOLLOWERINFO = %+v, want Zxid=%#x", infos, MakeZxid(3, 4))
	}
}

// TestFollowerInfoRetryPaced: an unsynced follower re-requests at the
// sync-ask interval, not once per tick — a slow snapshot transfer must
// not be answered with a fresh snapshot every 10ms.
func TestFollowerInfoRetryPaced(t *testing.T) {
	tr := newCaptureTransport()
	p := NewPeer(Config{ID: 1, Peers: []PeerID{1, 2, 3}, Transport: tr})
	p.follow(1, 2) // sends one FOLLOWERINFO, arms nextSyncAsk

	for i := int64(0); i < 10; i++ {
		p.tick(1 + i*p.tickNs)
	}
	got := len(tr.byKind(KindFollowerInfo))
	// 10 ticks at the default 10ms span 90ms; with a 60ms ask interval
	// that allows at most one retry on top of the initial send.
	if got > 2 {
		t.Fatalf("%d FOLLOWERINFOs across 10 ticks; retries must be paced", got)
	}

	// Once synced, retries stop entirely.
	p.leaderSynced = true
	before := len(tr.byKind(KindFollowerInfo))
	for i := int64(0); i < 20; i++ {
		p.heard = 1 + (10+i)*p.tickNs // the leader keeps pinging
		p.tick(1 + (10+i)*p.tickNs)
	}
	if got := len(tr.byKind(KindFollowerInfo)); got != before {
		t.Fatalf("synced follower still sent %d FOLLOWERINFOs", got-before)
	}
}
