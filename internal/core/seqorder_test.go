package core

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"

	"securekeeper/internal/client"
	"securekeeper/internal/wire"
)

// TestSequenceNumbersFollowZxidOrder pins the sequential-node guarantee
// the lock and queue recipes are built on: within one parent, a child's
// number increases with its creation zxid. The leader hands the numbers
// out, and several goroutines propose what they named — every session
// reader on the leader and the forward worker for the followers'
// sessions; a create proposed ahead of one with a lower number lets a
// later lock contender take the lowest number while the first holder
// still holds the lock. Sessions on the leader and on a follower
// pipeline sequential creates under one parent, and no child may have a
// lower creation zxid than the child numbered just below it.
func TestSequenceNumbersFollowZxidOrder(t *testing.T) {
	const (
		leaderSessions   = 4
		followerSessions = 2
		perSession       = 400
		window           = 8
	)
	for _, v := range []Variant{Vanilla, SecureKeeper} {
		t.Run(v.String(), func(t *testing.T) {
			c := newTestCluster(t, v)
			leader := c.LeaderIndex()
			follower := (leader + 1) % c.Voters()
			var cls []*client.Client
			for i := 0; i < leaderSessions+followerSessions; i++ {
				at := leader
				if i >= leaderSessions {
					at = follower
				}
				cl, err := c.Connect(at, client.Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = cl.Close() })
				cls = append(cls, cl)
			}
			if _, err := cls[0].Create(ctxbg, "/q", nil, 0); err != nil {
				t.Fatal(err)
			}

			type child struct {
				seq  int
				zxid int64
			}
			var (
				mu       sync.Mutex
				children []child
				wg       sync.WaitGroup
				errs     = make(chan error, len(cls))
			)
			for _, cl := range cls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var inflight []*client.Future
					wait := func() error {
						res := inflight[0].Wait()
						inflight = inflight[1:]
						if res.Err != nil {
							return res.Err
						}
						seq, err := strconv.Atoi(res.Path[len(res.Path)-10:])
						if err != nil {
							return fmt.Errorf("created %q: %v", res.Path, err)
						}
						mu.Lock()
						children = append(children, child{seq, res.Zxid})
						mu.Unlock()
						return nil
					}
					for i := 0; i < perSession; i++ {
						if len(inflight) == window {
							if err := wait(); err != nil {
								errs <- err
								return
							}
						}
						inflight = append(inflight, cl.CreateAsync("/q/n-", nil, wire.FlagSequential))
					}
					for len(inflight) > 0 {
						if err := wait(); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			slices.SortFunc(children, func(a, b child) int { return a.seq - b.seq })
			inversions := 0
			for i := 1; i < len(children); i++ {
				if children[i].seq == children[i-1].seq {
					t.Fatalf("number %d handed out twice", children[i].seq)
				}
				if children[i].zxid < children[i-1].zxid {
					inversions++
				}
			}
			t.Logf("%d sequential children, %d created before the child numbered below them", len(children), inversions)
			if inversions > 0 {
				t.Errorf("%d of %d children have a lower creation zxid than the child numbered just below them", inversions, len(children))
			}
		})
	}
}
