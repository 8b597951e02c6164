// Lockservice: the classic ZooKeeper distributed-lock recipe built on
// sequential ephemeral znodes — the operation that exercises Secure-
// Keeper's counter enclave (§4.4). Each contender creates a sequential
// node under the lock; the lowest sequence number holds the lock;
// releasing deletes the node. The example uses recipes.Lock, which
// waits on a per-watch subscription handle for its immediate
// predecessor (no polling, no thundering herd) and takes a
// context.Context for cancellation.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/core"
	"securekeeper/recipes"
)

const lockRoot = "/locks/printer"

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
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

	// Three workers contend for the lock; the critical section appends
	// to a shared log guarded only by the lock.
	var (
		mu       sync.Mutex
		sequence []string
		inside   int
		maxIn    int
	)
	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := cluster.Connect(w%cluster.Size(), client.Options{})
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			lock, err := recipes.NewLock(ctx, cl, lockRoot)
			if err != nil {
				errCh <- err
				return
			}
			for round := 0; round < 2; round++ {
				if err := lock.Lock(ctx); err != nil {
					errCh <- fmt.Errorf("worker %d acquire: %w", w, err)
					return
				}
				mu.Lock()
				inside++
				if inside > maxIn {
					maxIn = inside
				}
				sequence = append(sequence, fmt.Sprintf("worker-%d/round-%d", w, round))
				mu.Unlock()

				time.Sleep(5 * time.Millisecond) // critical section work

				mu.Lock()
				inside--
				mu.Unlock()
				if err := lock.Unlock(ctx); err != nil {
					errCh <- fmt.Errorf("worker %d release: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}

	if maxIn != 1 {
		return fmt.Errorf("MUTUAL EXCLUSION VIOLATED: %d workers in the critical section", maxIn)
	}
	fmt.Println("mutual exclusion held; acquisition order:")
	for _, s := range sequence {
		fmt.Println("  ", s)
	}
	return nil
}
