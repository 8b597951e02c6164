// Leaderelection: the ZooKeeper leader-election recipe on SecureKeeper:
// contenders create ephemeral sequential nodes; the lowest sequence is
// the leader; everyone else waits on a per-watch subscription handle
// for its immediate predecessor (no polling herd). The example kills
// the elected leader's session to show failover.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/core"
	"securekeeper/recipes"
)

const electionRoot = "/election/service-a"

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

type contender struct {
	name     string
	cl       *client.Client
	election *recipes.Election
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cluster, err := core.NewCluster(core.Config{
		Variant:         core.SecureKeeper,
		Replicas:        3,
		TickInterval:    10 * time.Millisecond,
		ElectionTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Three service instances volunteer.
	contenders := make([]*contender, 0, 3)
	for i := 0; i < 3; i++ {
		cl, err := cluster.Connect(i%cluster.Size(), client.Options{})
		if err != nil {
			return err
		}
		e, err := recipes.NewElection(ctx, cl, electionRoot)
		if err != nil {
			return err
		}
		c := &contender{name: fmt.Sprintf("instance-%d", i), cl: cl, election: e}
		contenders = append(contenders, c)
		fmt.Printf("%s volunteered as %s\n", c.name, e.Node())
	}
	defer func() {
		for _, c := range contenders {
			if c.cl != nil {
				_ = c.cl.Close()
			}
		}
	}()

	leader, err := electedLeader(ctx, contenders)
	if err != nil {
		return err
	}
	fmt.Printf("elected leader: %s (%s)\n", leader.name, leader.election.Node())

	// The leader's session dies; its ephemeral node disappears and the
	// next contender takes over — woken by its predecessor watch, not
	// by polling.
	fmt.Printf("killing %s's session...\n", leader.name)
	_ = leader.cl.Close()
	leader.cl = nil

	for _, c := range contenders {
		if c.cl == nil {
			continue
		}
		awaitCtx, awaitCancel := context.WithTimeout(ctx, 5*time.Second)
		err := c.election.AwaitLeadership(awaitCtx)
		awaitCancel()
		if err == nil {
			fmt.Printf("failover complete: new leader is %s (%s)\n", c.name, c.election.Node())
			return nil
		}
	}
	return fmt.Errorf("failover did not happen")
}

// electedLeader resolves which contender currently leads.
func electedLeader(ctx context.Context, contenders []*contender) (*contender, error) {
	for _, c := range contenders {
		if c.cl == nil {
			continue
		}
		lead, err := c.election.IsLeader(ctx)
		if err != nil {
			return nil, err
		}
		if lead {
			return c, nil
		}
	}
	return nil, fmt.Errorf("no contender leads")
}
