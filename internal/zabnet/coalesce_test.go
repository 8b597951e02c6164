package zabnet

// The link writer sends whatever its outbox already holds with one
// write. These tests pin what that must not disturb: fragment
// contiguity under concurrent senders, and the link's lifecycle when a
// batched write fails.

import (
	"bytes"
	"errors"
	"fmt"
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
// it, on the plaintext and the attested mesh. Every snapshot must
// reassemble exactly (its fragments stay contiguous inside and across
// batches), each live stream must arrive complete and in order, and the
// writer must really have coalesced.
func TestCoalescedSnapshotRacesLiveTraffic(t *testing.T) {
	for _, secure := range []bool{false, true} {
		t.Run(fmt.Sprintf("secure=%v", secure), func(t *testing.T) {
			reg := obs.NewRegistry()
			meshes := newTestMeshes(t, 2, func(c *Config) {
				c.ChunkBytes = 512
				if secure {
					c.Secure = testSecureConfig(t)
				}
				if c.ID == 2 {
					c.Obs = reg
				}
			})
			waitConnected(t, meshes)
			sender, receiver := meshes[1], meshes[0]

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

			next := map[zab.Kind]int64{zab.KindSyncSnap: 1, zab.KindProposeBatch: 1, zab.KindCommit: 1}
			for got := 0; got < snapshots+2*live; got++ {
				msg := recvMsg(t, receiver, 10*time.Second)
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
			wg.Wait()

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
	l := &link{peer: 2, fc: fc, outbox: make(chan []byte, 8), done: make(chan struct{})}
	if err := l.enqueue([][]byte{{frameMsg, 1}, {frameMsg, 2}, {frameMsg, 3}}); err != nil {
		t.Fatal(err)
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
