package core

// The replicated write path copies a payload where it changes owner —
// out of the session's receive chunk (or the entry enclave's burst of
// rewritten messages) into the transaction on the leader, out of the
// mesh link's receive chunk into the decoded record on a follower — and
// nowhere else: inflight buffer, commit log, WAL encoder and tree share
// that one array, and over the in-process transport the trees of all
// three replicas do. The rule is only sound if nobody ever writes to an
// array after handing it on — and if nobody keeps an array that was only
// lent: a received frame is its reader's until the next receive call,
// the caller's payload until the Async call returns. This test drives
// pipelined writes through every stack, overwrites every buffer the
// moment its owner may reuse it, and reads everything back.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/server"
	"securekeeper/internal/storage"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
	"securekeeper/internal/ztree"
)

func fill(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// ownershipEnsemble is what the test needs of either kind of ensemble.
type ownershipEnsemble struct {
	replicas []*server.Replica
	dirs     []string // data directory per replica
	serve    func(i int, conn transport.Conn) error
	pub      func(i int) []byte
	close    func()
}

func (e *ownershipEnsemble) leader(t *testing.T) int {
	t.Helper()
	idx := -1
	waitForCond(t, 15*time.Second, "a leader with both followers following", func() bool {
		idx = -1
		following := 0
		for i, r := range e.replicas {
			switch r.Peer().Role() {
			case zab.RoleLeading:
				idx = i
			case zab.RoleFollowing:
				following++
			}
		}
		return idx >= 0 && following == len(e.replicas)-1
	})
	return idx
}

// dial opens a session to replica i over loopback TCP — the path on
// which requests arrive in bursts inside a shared receive chunk — with
// a transport.PoisonConn at both ends (see dialTCPServed).
func (e *ownershipEnsemble) dial(t *testing.T, i int, v Variant) *client.Client {
	t.Helper()
	return dialTCPServed(t, v, e.pub(i), func(conn transport.Conn) error {
		return e.serve(i, conn)
	})
}

func inProcOwnershipEnsemble(t *testing.T, v Variant) *ownershipEnsemble {
	dir := t.TempDir()
	c, err := NewCluster(Config{Variant: v, Replicas: 3, TickInterval: 5 * time.Millisecond,
		ElectionTimeout: 250 * time.Millisecond, DataDir: dir, SnapshotEvery: 300})
	if err != nil {
		t.Fatal(err)
	}
	e := &ownershipEnsemble{serve: c.ServeExternal, pub: c.ReplicaPublicKey, close: c.Close}
	for i := 0; i < c.Size(); i++ {
		e.replicas = append(e.replicas, c.Replica(i))
		e.dirs = append(e.dirs, filepath.Join(dir, fmt.Sprintf("r%d", i+1)))
	}
	return e
}

func tcpOwnershipEnsemble(t *testing.T, v Variant) *ownershipEnsemble {
	e := &ownershipEnsemble{}
	nodes := newTCPNodeEnsemble(t, 3, v, func(cfg *NodeConfig) {
		cfg.DataDir, cfg.SnapshotEvery = t.TempDir(), 300
		e.dirs = append(e.dirs, cfg.DataDir)
	})
	for _, n := range nodes {
		e.replicas = append(e.replicas, n.Replica())
	}
	e.serve = func(i int, conn transport.Conn) error { return nodes[i].ServeExternal(conn) }
	e.pub = func(i int) []byte { return nodes[i].ReplicaPublicKey() }
	e.close = func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	return e
}

func TestCommittedDataIsNeverRewritten(t *testing.T) {
	kinds := []struct {
		name  string
		build func(*testing.T, Variant) *ownershipEnsemble
	}{{"Cluster", inProcOwnershipEnsemble}, {"TCPNodes", tcpOwnershipEnsemble}}
	for _, kind := range kinds {
		for _, v := range []Variant{Vanilla, SecureKeeper} {
			kind, v := kind, v
			t.Run(kind.name+"/"+v.String(), func(t *testing.T) {
				e := kind.build(t, v)
				closed := false
				defer func() {
					if !closed {
						e.close()
					}
				}()
				leader := e.leader(t)

				// Snapshots are taken all along: each reads every stored
				// payload while the WAL encoders and the other replicas'
				// trees hold the same arrays.
				stop := make(chan struct{})
				var snaps sync.WaitGroup
				for _, r := range e.replicas {
					snaps.Add(1)
					go func(tree *ztree.Tree) {
						defer snaps.Done()
						for {
							select {
							case <-stop:
								return
							default:
								_ = tree.Snapshot()
								time.Sleep(time.Millisecond)
							}
						}
					}(r.Tree())
				}

				// One session on the leader, one on a follower (its writes
				// are forwarded), each with 16 ops in flight on keys of
				// its own: 2 000 sets and sequential creates in all.
				const opsPerSession, window, keys = 1000, 16, 24
				want := make([]map[string][]byte, 2)
				var sessions sync.WaitGroup
				for s := range want {
					s, cl := s, e.dial(t, (leader+s)%3, v)
					want[s] = make(map[string][]byte)
					root := fmt.Sprintf("/own-%d", s)
					// The first write may meet a leader that has not yet
					// heard from a quorum of followers.
					retryWrite(t, "create "+root, func() error {
						_, err := cl.Create(ctxbg, root, nil, 0)
						var pe *wire.ProtocolError
						if errors.As(err, &pe) && pe.Code == wire.ErrNodeExists {
							return nil // an attempt whose reply was lost went through
						}
						return err
					})
					for k := 0; k < keys; k++ {
						if _, err := cl.Create(ctxbg, fmt.Sprintf("%s/key-%02d", root, k), []byte("unset"), 0); err != nil {
							t.Fatal(err)
						}
					}
					sessions.Add(1)
					go func() {
						defer sessions.Done()
						type inflight struct {
							f     *client.Future
							path  string
							value []byte
						}
						var pending []inflight
						settle := func() {
							op := pending[0]
							pending = pending[1:]
							res := op.f.Wait()
							if res.Err != nil {
								t.Errorf("session %d: %s: %v", s, op.path, res.Err)
								return
							}
							if res.Op == wire.OpCreate {
								op.path = res.Path
							}
							want[s][op.path] = op.value
						}
						// scratch is the buffer the caller hands the client, and
						// gets back when the Async call returns.
						scratch := make([]byte, 0, 2048)
						for i := 0; i < opsPerSession; i++ {
							if len(pending) == window {
								settle()
							}
							scratch = scratch[:200+(i*37)%1500]
							for j := range scratch {
								scratch[j] = byte(s*131 + i*7 + j)
							}
							copy(scratch, fmt.Sprintf("session %d op %d;", s, i))
							op := inflight{value: bytes.Clone(scratch)}
							if i%5 == 4 {
								op.path = root + "/seq-"
								op.f = cl.CreateAsync(op.path, scratch, wire.FlagSequential)
							} else {
								op.path = fmt.Sprintf("%s/key-%02d", root, (i*11)%keys)
								op.f = cl.SetAsync(op.path, scratch, -1)
							}
							fill(scratch[:cap(scratch)])
							pending = append(pending, op)
						}
						for len(pending) > 0 {
							settle()
						}
					}()
				}
				sessions.Wait()
				close(stop)
				snaps.Wait()
				if t.Failed() {
					return
				}

				// Every key, read back through every replica, holds what
				// its session wrote last.
				for i := range e.replicas {
					cl := e.dial(t, i, v)
					if err := cl.Sync(ctxbg, "/"); err != nil {
						t.Fatal(err)
					}
					for s := range want {
						for path, value := range want[s] {
							got, _, err := cl.Get(ctxbg, path)
							if err != nil || !bytes.Equal(got, value) {
								t.Fatalf("replica %d: %s = %.40q… (%d bytes, err %v), want %.40q… (%d bytes)",
									i, path, got, len(got), err, value, len(value))
							}
						}
					}
				}
				digest := e.replicas[0].Tree().Digest()
				for i, r := range e.replicas {
					if d := r.Tree().Digest(); d != digest {
						t.Fatalf("replica %d digest %#x, replica 0 has %#x", i, d, digest)
					}
				}

				// What the WAL encoders read from the shared arrays is what
				// the trees hold: each replica's disk recovers to the digest.
				e.close()
				closed = true
				for i, dir := range e.dirs {
					tree := ztree.New()
					p, _, err := storage.Recover(storage.PersisterConfig{Dir: dir, Tree: tree})
					if err != nil {
						t.Fatalf("replica %d: recover: %v", i, err)
					}
					_ = p.Close()
					if d := tree.Digest(); d != digest {
						t.Fatalf("replica %d recovers from disk to digest %#x, the live trees had %#x", i, d, digest)
					}
				}
			})
		}
	}
}
