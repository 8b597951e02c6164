package chaos

import (
	"errors"
	"testing"
	"time"

	"securekeeper/internal/zab"
)

// twoPeers wires two fault-wrapped transports over the in-proc network.
func twoPeers(t *testing.T, inj *Injector) (a, b zab.Transport) {
	t.Helper()
	net := zab.NewNetwork()
	a = inj.Wrap(1, net.Endpoint(1), nil)
	b = inj.Wrap(2, net.Endpoint(2), nil)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

func mustReceive(t *testing.T, tr zab.Transport) zab.Message {
	t.Helper()
	select {
	case msg := <-tr.Receive():
		return msg
	case <-time.After(2 * time.Second):
		t.Fatal("message never delivered")
		return zab.Message{}
	}
}

func TestInjectorDropAll(t *testing.T) {
	inj := NewInjector(1)
	inj.SetDefaults(LinkFault{Drop: 1})
	a, b := twoPeers(t, inj)
	if err := a.Send(2, zab.Message{Kind: zab.KindPing}); !errors.Is(err, zab.ErrPeerUnreachable) {
		t.Fatalf("send on drop=1 link = %v, want ErrPeerUnreachable", err)
	}
	if err := b.Send(1, zab.Message{Kind: zab.KindPing}); !errors.Is(err, zab.ErrPeerUnreachable) {
		t.Fatalf("send on drop=1 link = %v, want ErrPeerUnreachable", err)
	}
	if s := inj.Stats(); s.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", s.Dropped)
	}
	inj.ClearLinks()
	if err := b.Send(1, zab.Message{Kind: zab.KindPing}); err != nil {
		t.Fatal(err)
	}
	mustReceive(t, a)
}

func TestInjectorPartitionAndHeal(t *testing.T) {
	inj := NewInjector(1)
	a, b := twoPeers(t, inj)
	inj.Partition([]zab.PeerID{1}, []zab.PeerID{2})
	if err := a.Send(2, zab.Message{Kind: zab.KindPing}); !errors.Is(err, zab.ErrPeerUnreachable) {
		t.Fatalf("cross-partition send = %v, want ErrPeerUnreachable", err)
	}
	if err := b.Send(1, zab.Message{Kind: zab.KindPing}); !errors.Is(err, zab.ErrPeerUnreachable) {
		t.Fatalf("cross-partition send = %v, want ErrPeerUnreachable", err)
	}
	inj.Heal()
	if err := a.Send(2, zab.Message{Kind: zab.KindPing}); err != nil {
		t.Fatal(err)
	}
	mustReceive(t, b)
	if s := inj.Stats(); s.Cut != 2 {
		t.Fatalf("cut = %d, want 2", s.Cut)
	}
}

func TestInjectorOneWayCut(t *testing.T) {
	inj := NewInjector(1)
	a, b := twoPeers(t, inj)
	inj.CutOneWay(1, 2)
	if err := a.Send(2, zab.Message{Kind: zab.KindPing}); !errors.Is(err, zab.ErrPeerUnreachable) {
		t.Fatalf("severed direction send = %v, want ErrPeerUnreachable", err)
	}
	if err := b.Send(1, zab.Message{Kind: zab.KindPing}); err != nil {
		t.Fatal(err)
	}
	mustReceive(t, a)
	inj.Heal()
	if err := a.Send(2, zab.Message{Kind: zab.KindPing}); err != nil {
		t.Fatal(err)
	}
	mustReceive(t, b)
}

func TestInjectorDelay(t *testing.T) {
	inj := NewInjector(1)
	inj.SetDefaults(LinkFault{Delay: 30 * time.Millisecond})
	a, b := twoPeers(t, inj)
	start := time.Now()
	if err := a.Send(2, zab.Message{Kind: zab.KindPing}); err != nil {
		t.Fatal(err)
	}
	mustReceive(t, b)
	if took := time.Since(start); took < 25*time.Millisecond {
		t.Fatalf("delivery took %v, want >= the injected 30ms delay", took)
	}
	if s := inj.Stats(); s.Delayed != 1 {
		t.Fatalf("delayed = %d, want 1", s.Delayed)
	}
}
