package zabnet

// The link writer sends whatever its send buffer already holds with one
// write. These tests pin what that must not disturb: fragment
// contiguity under concurrent senders, and the link's lifecycle when a
// batched write fails.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/ztree"
)

// TestCoalescedSnapshotRacesLiveTraffic streams chunked snapshots down
// a link while two other goroutines push PROPOSE and COMMIT frames at
// it, on the plaintext and the attested mesh, and on a link whose
// receiving end overwrites every frame at its next receive (the
// reassembly buffer and the decoded messages must be copies). Every
// snapshot must reassemble exactly (its fragments stay contiguous inside
// and across batches), each live stream must arrive complete and in
// order, and the writer must really have coalesced.
func TestCoalescedSnapshotRacesLiveTraffic(t *testing.T) {
	for _, kind := range []string{"secure=false", "secure=true", "poisoned"} {
		t.Run(kind, func(t *testing.T) {
			reg := obs.NewRegistry()
			var sender, receiver *Mesh
			if kind == "poisoned" {
				sender, receiver = poisonedPair(t, 512, reg)
			} else {
				meshes := newTestMeshes(t, 2, func(c *Config) {
					c.chunkBytes = 512
					if kind == "secure=true" {
						c.Secure = testSecureConfig(t)
					}
					if c.ID == 2 {
						c.Obs = reg
					}
				})
				waitConnected(t, meshes)
				sender, receiver = meshes[1], meshes[0]
			}

			const snapshots, live = 4, 600
			snap := &ztree.Snapshot{}
			for i := 0; i < 100; i++ {
				snap.Nodes = append(snap.Nodes, ztree.SnapshotNode{
					Path: fmt.Sprintf("/chunky/node-%04d", i),
					Data: bytes.Repeat([]byte{byte(i)}, 256),
					Stat: wire.Stat{Czxid: int64(i), DataLength: 256},
				})
			}
			propose := func(zxid int64) zab.Message {
				txn := ztree.Txn{Zxid: zxid, Type: ztree.TxnSetData, Path: "/live", Data: []byte("payload")}
				return zab.Message{Kind: zab.KindProposeBatch, Epoch: 1, Zxid: zxid - 1, Batch: []zab.ProposalRecord{{Txn: txn}}}
			}

			var wg sync.WaitGroup
			send := func(n int, msg func(i int) zab.Message) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 1; i <= n; i++ {
						if err := sender.Send(1, msg(i)); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}()
			}
			send(snapshots, func(i int) zab.Message {
				return zab.Message{Kind: zab.KindSyncSnap, Epoch: 3, Zxid: int64(i), Snapshot: snap}
			})
			send(live, func(i int) zab.Message { return propose(int64(i)) })
			send(live, func(i int) zab.Message { return zab.Message{Kind: zab.KindCommit, Epoch: 1, Zxid: int64(i)} })

			// Checked once everything is in: by then a message that aliased
			// its frame has long been overwritten.
			got := make([]zab.Message, snapshots+2*live)
			for i := range got {
				got[i] = recvMsg(t, receiver, 10*time.Second)
			}
			wg.Wait()
			next := map[zab.Kind]int64{zab.KindSyncSnap: 1, zab.KindProposeBatch: 1, zab.KindCommit: 1}
			for _, msg := range got {
				want, ok := next[msg.Kind]
				if !ok {
					t.Fatalf("unexpected message kind %v", msg.Kind)
				}
				next[msg.Kind]++
				switch msg.Kind {
				case zab.KindSyncSnap:
					if msg.Zxid != want || !reflect.DeepEqual(msg.Snapshot, snap) {
						t.Fatalf("snapshot %d (zxid %d) did not reassemble", want, msg.Zxid)
					}
				case zab.KindProposeBatch:
					if !reflect.DeepEqual(msg.Batch, propose(want).Batch) {
						t.Fatalf("propose stream: got zxid %d, want %d", msg.Batch[0].Txn.Zxid, want)
					}
				case zab.KindCommit:
					if msg.Zxid != want {
						t.Fatalf("commit stream: got zxid %d, want %d", msg.Zxid, want)
					}
				}
			}

			h := sender.framesPerWrite.Snapshot()
			if h.Count == 0 || h.Sum <= h.Count {
				t.Fatalf("zabnet_frames_per_write: %d frames in %d writes — nothing was coalesced", h.Sum, h.Count)
			}
			var prom bytes.Buffer
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(prom.Bytes(), []byte("zabnet_frames_per_write_count ")) {
				t.Fatal("zabnet_frames_per_write is not in the Prometheus exposition")
			}
		})
	}
}

// poisonedPair joins a sending mesh (id 2) and a receiving mesh (id 1)
// by one loopback link, installed without listeners or hellos, whose
// receiving end is a transport.PoisonConn.
func poisonedPair(t *testing.T, chunkBytes int, reg *obs.Registry) (sender, receiver *Mesh) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	bare := func(id zab.PeerID) *Mesh {
		cfg := (&Config{ID: id, chunkBytes: chunkBytes}).withDefaults()
		return &Mesh{cfg: cfg, inbox: make(chan zab.Message, inboxFrames),
			peers: map[zab.PeerID]*peer{1: {member: true}, 2: {member: true}}, closed: make(chan struct{})}
	}
	sender, receiver = bare(2), bare(1)
	sender.framesPerWrite = reg.CountHistogram("zabnet_frames_per_write", "", "")
	out := newLink(1, transport.NewFramedConn(dialed))
	in := newLink(2, transport.NewPoisonConn(transport.NewFramedConn(accepted)))
	sender.installLink(out)
	receiver.installLink(in)
	t.Cleanup(func() {
		out.close()
		in.close()
		sender.wg.Wait()
		receiver.wg.Wait()
	})
	return sender, receiver
}

// failingConn is a link transport whose writes fail.
type failingConn struct {
	transport.Conn // nil: the link under test never reads
	batches        chan int
	closes         atomic.Int64
}

var errWriteFailed = errors.New("write failed")

func (c *failingConn) SendFrame([]byte) error { return errWriteFailed }

func (c *failingConn) SendFrames(frames [][]byte) error {
	c.batches <- len(frames)
	return errWriteFailed
}

func (c *failingConn) Close() error {
	c.closes.Add(1)
	return nil
}

// TestFailedBatchedWriteClosesLinkOnce: the frames of a failed batch
// are lost together, the writer stops, and the link is closed exactly
// once however many parties then close it again (the reader's exit, a
// redial replacing the link, mesh shutdown).
func TestFailedBatchedWriteClosesLinkOnce(t *testing.T) {
	m := &Mesh{}
	fc := &failingConn{batches: make(chan int, 4)}
	l := newLink(2, fc)
	for i := byte(1); i <= 3; i++ {
		if err := l.enqueue([]byte{i}, 512, 8); err != nil {
			t.Fatal(err)
		}
	}
	m.wg.Add(1)
	go m.writeLoop(l)
	m.wg.Wait() // the writer exits on the failed write

	if n := <-fc.batches; n != 3 {
		t.Fatalf("writer sent %d frames in its first write, want the 3 that were queued", n)
	}
	select {
	case <-l.done:
	default:
		t.Fatal("failed write left the link open")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.close()
		}()
	}
	wg.Wait()
	if n := fc.closes.Load(); n != 1 {
		t.Fatalf("link transport closed %d times, want exactly 1", n)
	}
	select {
	case n := <-fc.batches:
		t.Fatalf("writer sent another batch of %d after the failure", n)
	default:
	}
}

// blockedConn is a link transport whose writes wait to be released.
type blockedConn struct {
	transport.Conn // nil: the link under test never reads
	entered        chan int
	release        chan struct{}
}

func (c *blockedConn) SendFrames(frames [][]byte) error {
	c.entered <- len(frames)
	<-c.release
	return nil
}

func (c *blockedConn) Close() error { return nil }

// TestOutboxBoundCountsFramesBeingWritten: the frames the writer took
// out of the send buffer occupy the queue until they are written, so a
// link to a peer that stopped reading holds outboxFrames frames, not
// that many behind the write and as many again inside it.
func TestOutboxBoundCountsFramesBeingWritten(t *testing.T) {
	const maxFrames = 4
	m := &Mesh{}
	fc := &blockedConn{entered: make(chan int, 4), release: make(chan struct{})}
	l := newLink(2, fc)
	for i := byte(1); i <= 3; i++ {
		if err := l.enqueue([]byte{i}, 512, maxFrames); err != nil {
			t.Fatal(err)
		}
	}
	m.wg.Add(1)
	go m.writeLoop(l)
	if n := <-fc.entered; n != 3 {
		t.Fatalf("writer took %d frames, want the 3 queued", n)
	}
	if d := l.depth(); d != 3 {
		t.Fatalf("depth %d while 3 frames are being written, want 3", d)
	}
	if err := l.enqueue([]byte{4}, 512, maxFrames); err != nil {
		t.Fatalf("4th frame of %d: %v", maxFrames, err)
	}
	if err := l.enqueue([]byte{5}, 512, maxFrames); !errors.Is(err, errOutboxFull) {
		t.Fatalf("5th frame behind a blocked write of 3: err %v, want errOutboxFull", err)
	}
	if d := l.depth(); d != 4 {
		t.Fatalf("depth %d, want 4", d)
	}
	fc.release <- struct{}{}       // the write of 3 completes,
	if n := <-fc.entered; n != 1 { // the 4th frame follows
		t.Fatalf("second write carries %d frames, want 1", n)
	}
	for i := byte(6); i <= 8; i++ {
		if err := l.enqueue([]byte{i}, 512, maxFrames); err != nil {
			t.Fatalf("frame %d after the first write completed: %v", i, err)
		}
	}
	l.close()
	close(fc.release)
	m.wg.Wait()
}

// TestLinkSendBufferRetentionIsBounded: a message of 1 MiB fragments
// gets send buffers for the write cycle that carries it and must not pin
// their size on the link; ordinary traffic keeps its buffers.
func TestLinkSendBufferRetentionIsBounded(t *testing.T) {
	meshes := newTestMeshes(t, 2, nil)
	waitConnected(t, meshes)
	sender, receiver := meshes[1], meshes[0]
	l := sender.link(1)
	caps := func() (pending, spare int) {
		l.sendMu.Lock()
		defer l.sendMu.Unlock()
		return cap(l.pending), cap(l.spare)
	}
	// A message received means the write cycle before its own is over.
	small := func() {
		t.Helper()
		if err := sender.Send(1, zab.Message{Kind: zab.KindCommit}); err != nil {
			t.Fatal(err)
		}
		recvMsg(t, receiver, 5*time.Second)
	}

	big := zab.Message{Kind: zab.KindApp, App: bytes.Repeat([]byte{0xab}, 3<<20)}
	for round := 0; round < 2; round++ { // once through each of the two buffers
		if err := sender.Send(1, big); err != nil {
			t.Fatal(err)
		}
		if got := recvMsg(t, receiver, 10*time.Second); !bytes.Equal(got.App, big.App) {
			t.Fatalf("3 MiB message arrived as %d bytes, or content differs", len(got.App))
		}
		small()
		if pending, spare := caps(); pending > transport.MaxScratchRetain || spare > transport.MaxScratchRetain {
			t.Fatalf("link retains send buffers of %d and %d bytes after a 3 MiB message", pending, spare)
		}
	}
	small()
	small()
	waitFor(t, 5*time.Second, "ordinary traffic to keep both send buffers", func() bool {
		pending, spare := caps()
		return pending > 0 && spare > 0
	})
}
