package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"securekeeper/internal/chaos"
	"securekeeper/internal/client"
	"securekeeper/internal/core"
)

// FaultConfig parameterizes the Fig 12 fault-tolerance experiment:
// clients pick replicas at random (so failover is possible, §6.3),
// issue a constant async 70:30 GET/SET load, and one replica is killed
// mid-run; throughput is reported in fixed-width time buckets.
type FaultConfig struct {
	Clients    int
	Window     int
	Payload    int
	BucketDur  time.Duration
	Buckets    int
	KillBucket int  // replica dies at the start of this bucket
	KillLeader bool // leader (12a) vs follower (12b)
	Replicas   int
	Seed       int64
}

func (c *FaultConfig) withDefaults() FaultConfig {
	out := *c
	if out.Clients <= 0 {
		out.Clients = 6
	}
	if out.Window <= 0 {
		out.Window = 32
	}
	if out.Payload <= 0 {
		out.Payload = 1024
	}
	if out.BucketDur <= 0 {
		out.BucketDur = 250 * time.Millisecond
	}
	if out.Buckets <= 0 {
		out.Buckets = 12
	}
	if out.KillBucket <= 0 {
		out.KillBucket = out.Buckets / 2
	}
	if out.Replicas <= 0 {
		out.Replicas = 3
	}
	if out.Seed == 0 {
		out.Seed = 42
	}
	return out
}

// Fig12 reproduces "Fault-tolerance behavior of ZooKeeper variants":
// 12a kills the leader (throughput drops to zero during election, then
// recovers to ~2/3), 12b kills a follower (an immediate step down to
// ~2/3 with no gap).
func Fig12(cfg FaultConfig) (*Figure, error) {
	c := cfg.withDefaults()
	id, what := "fig12b", "follower"
	if c.KillLeader {
		id, what = "fig12a", "leader"
	}
	fig := &Figure{
		ID: id, Title: fmt.Sprintf("Fault tolerance: %s failure at bucket %d", what, c.KillBucket),
		XLabel: "time_bucket", YLabel: "requests/s",
	}
	for _, v := range Variants() {
		series, err := runFaultRun(v, c)
		if err != nil {
			return nil, fmt.Errorf("bench: fig12 %v: %w", v, err)
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

func runFaultRun(v core.Variant, c FaultConfig) (Series, error) {
	cluster, err := newCluster(v, c.Replicas)
	if err != nil {
		return Series{}, err
	}
	defer cluster.Close()

	// Seed the tree: one target node per client.
	seedClient, err := cluster.Connect(0, client.Options{})
	if err != nil {
		return Series{}, err
	}
	payload := makePayload(c.Payload, 0)
	if _, err := seedClient.Create(context.Background(), "/bench", nil, 0); err != nil && !isNodeExists(err) {
		_ = seedClient.Close()
		return Series{}, err
	}
	for i := 0; i < c.Clients; i++ {
		if _, err := seedClient.Create(context.Background(), clientNode(i), payload, 0); err != nil && !isNodeExists(err) {
			_ = seedClient.Close()
			return Series{}, err
		}
	}
	_ = seedClient.Close()

	buckets := make([]atomic.Int64, c.Buckets)
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	record := func() {
		idx := int(time.Since(start) / c.BucketDur)
		if idx >= 0 && idx < c.Buckets {
			buckets[idx].Add(1)
		}
	}

	for i := 0; i < c.Clients; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			faultWorker(cluster, c, idx, record, stop)
		}(i)
	}

	// Fault injection at the configured bucket boundary, driven through
	// the chaos controller: it resolves the victim at fire time (waiting
	// out an in-flight election so the intended role is actually killed)
	// and logs what it did, the same machinery the scenario harness uses.
	act := chaos.ActKillFollower
	if c.KillLeader {
		act = chaos.ActKillLeader
	}
	ctl := &chaos.Controller{Cluster: cluster}
	_ = ctl.Run(context.Background(), chaos.Schedule{
		{At: time.Duration(c.KillBucket)*c.BucketDur - time.Since(start), Act: act},
	})

	end := start.Add(time.Duration(c.Buckets) * c.BucketDur)
	time.Sleep(time.Until(end))
	close(stop)
	wg.Wait()

	s := Series{Name: v.String()}
	perSec := float64(time.Second) / float64(c.BucketDur)
	for i := range buckets {
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, float64(buckets[i].Load())*perSec)
	}
	return s, nil
}

// faultWorker keeps a windowed async 70:30 load running, reconnecting
// to a random live replica whenever its session dies.
func faultWorker(cluster *core.Cluster, c FaultConfig, idx int, record func(), stop chan struct{}) {
	rng := rand.New(rand.NewSource(c.Seed + int64(idx)*6007))
	payload := makePayload(c.Payload, idx)
	path := clientNode(idx)

	for {
		select {
		case <-stop:
			return
		default:
		}
		// Random replica choice, retrying others on failure (§6.3).
		cl := connectRandom(cluster, rng)
		if cl == nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		runFaultSession(cl, c, rng, path, payload, record, stop)
		_ = cl.Close()
	}
}

func connectRandom(cluster *core.Cluster, rng *rand.Rand) *client.Client {
	order := rng.Perm(cluster.Size())
	for _, i := range order {
		if cluster.Stopped(i) {
			continue
		}
		cl, err := cluster.Connect(i, client.Options{})
		if err == nil {
			return cl
		}
	}
	return nil
}

// runFaultSession pipelines requests until an error or stop.
func runFaultSession(cl *client.Client, c FaultConfig, rng *rand.Rand, path string, payload []byte, record func(), stop chan struct{}) {
	inflight := make(chan *client.Future, c.Window)
	failed := make(chan struct{})
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		for f := range inflight {
			res := f.Wait()
			if res.Err != nil {
				select {
				case <-failed:
				default:
					close(failed)
				}
				continue
			}
			record()
		}
	}()

	for {
		select {
		case <-stop:
			close(inflight)
			done.Wait()
			return
		case <-failed:
			close(inflight)
			done.Wait()
			return
		default:
		}
		var f *client.Future
		if rng.Float64() < 0.7 {
			f = cl.GetAsync(path, false)
		} else {
			f = cl.SetAsync(path, payload, -1)
		}
		select {
		case inflight <- f:
		case <-stop:
			go func() { f.Wait() }()
			close(inflight)
			done.Wait()
			return
		}
	}
}
