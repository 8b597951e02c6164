package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/core"
	"securekeeper/internal/obs"
	"securekeeper/internal/wire"
	"securekeeper/recipes"
)

// ScenarioConfig parameterizes one chaos run: which recipe workload,
// which seed (the whole fault schedule replays from it), how long the
// fault phase lasts, and the cluster shape it runs against.
type ScenarioConfig struct {
	Scenario string
	Seed     int64
	Duration time.Duration
	Replicas int
	Workers  int
	Variant  core.Variant
	// DataDir, when set, makes replicas durable and unlocks the
	// storage-fault legs (fsync stall, sticky failure).
	DataDir string
	// Registry, when set, receives the injector's fault metrics and
	// the checker verdict counters (for a /metrics endpoint during the
	// run). A nil registry is fine.
	Registry *obs.Registry
	// Logf, when set, receives controller action lines as they fire.
	Logf func(format string, args ...any)
}

func (c *ScenarioConfig) withDefaults() ScenarioConfig {
	out := *c
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Duration <= 0 {
		out.Duration = 5 * time.Second
	}
	if out.Replicas <= 0 {
		out.Replicas = 3
	}
	if out.Workers <= 0 {
		out.Workers = 4
	}
	return out
}

// Report is the outcome of one scenario run: the planned schedule (the
// replay artifact), what the controller actually executed, the fault
// accounting, and the checkers' verdicts.
type Report struct {
	Scenario   string
	Seed       int64
	Schedule   Schedule
	Executed   []string
	Ops        int
	History    []Op
	Stats      Stats
	Violations []string
}

// Passed reports whether every safety checker came back clean.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// scenario couples a fault profile with a recipe workload and its
// safety checker.
type scenario struct {
	name    string
	about   string
	profile func(cfg ScenarioConfig) Profile
	// run drives the workload while faults fire (returning after the
	// schedule completes and the workload drained) and returns the
	// violations its checker found.
	run func(ctx context.Context, env *runEnv) ([]string, error)
}

// runEnv is what a scenario workload gets to work with.
type runEnv struct {
	cfg     ScenarioConfig
	cluster *core.Cluster
	inj     *Injector
	ctl     *Controller
	sched   Schedule
	hist    *History
}

// Scenarios lists the registered scenario names.
func Scenarios() []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return names
}

// ScenarioAbout returns the one-line description of a scenario.
func ScenarioAbout(name string) string {
	for _, s := range scenarios {
		if s.name == name {
			return s.about
		}
	}
	return ""
}

// PlanScenario returns the fault schedule a (scenario, seed, duration,
// replicas) tuple deterministically plans — what -plan prints and what
// the replay test compares across runs.
func PlanScenario(cfg ScenarioConfig) (Schedule, error) {
	c := cfg.withDefaults()
	s, err := lookup(c.Scenario)
	if err != nil {
		return nil, err
	}
	return Plan(c.Seed, s.profile(c), c.Duration), nil
}

func lookup(name string) (*scenario, error) {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i], nil
		}
	}
	return nil, fmt.Errorf("chaos: unknown scenario %q (have %v)", name, Scenarios())
}

// RunScenario builds a cluster with the chaos transport shim, executes
// the scenario's fault schedule against it while the recipe workload
// runs, drains, and checks the recorded history. The returned Report
// carries violations rather than turning them into an error: a failed
// safety property is a *finding*, the run itself succeeded.
func RunScenario(ctx context.Context, cfg ScenarioConfig) (*Report, error) {
	c := cfg.withDefaults()
	s, err := lookup(c.Scenario)
	if err != nil {
		return nil, err
	}
	inj := NewInjector(c.Seed)
	inj.Register(c.Registry)
	sched := Plan(c.Seed, s.profile(c), c.Duration)

	cluster, err := core.NewCluster(core.Config{
		Variant:         c.Variant,
		Replicas:        c.Replicas,
		TickInterval:    25 * time.Millisecond,
		ElectionTimeout: 500 * time.Millisecond,
		DataDir:         c.DataDir,
		WrapTransport:   inj.Wrap,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	env := &runEnv{
		cfg:     c,
		cluster: cluster,
		inj:     inj,
		ctl:     &Controller{Inj: inj, Cluster: cluster, Logf: c.Logf},
		sched:   sched,
		hist:    &History{},
	}
	violations, err := s.run(ctx, env)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Scenario:   c.Scenario,
		Seed:       c.Seed,
		Schedule:   sched,
		Executed:   env.ctl.Executed(),
		Ops:        env.hist.Len(),
		History:    env.hist.Ops(),
		Stats:      inj.Stats(),
		Violations: violations,
	}
	verdict := "pass"
	if !rep.Passed() {
		verdict = "fail"
	}
	c.Registry.Counter("chaos_checker_verdicts_total",
		fmt.Sprintf(`recipe=%q,verdict=%q`, c.Scenario, verdict),
		"safety-checker verdicts per recipe scenario").Inc()
	return rep, nil
}

// runFaults executes the planned schedule, then heals the network and
// restarts every dead replica so the workload can drain against a
// whole cluster.
func (env *runEnv) runFaults(ctx context.Context) error {
	if err := env.ctl.Run(ctx, env.sched); err != nil {
		return err
	}
	env.inj.Heal()
	env.inj.ClearLinks()
	env.ctl.apply(ctx, Event{At: env.cfg.Duration, Act: ActRestartAll})
	_, err := env.cluster.WaitForLeader(5 * time.Second)
	return err
}

// connectLive dials a random live replica, shuffling with rng so
// workers spread across the ensemble and fail over when replicas die.
func connectLive(cluster *core.Cluster, rng *rand.Rand) *client.Client {
	for _, i := range rng.Perm(cluster.Size()) {
		if cluster.Stopped(i) {
			continue
		}
		if cl, err := cluster.Connect(i, client.Options{}); err == nil {
			return cl
		}
	}
	return nil
}

// workerRng derives a per-worker RNG from the scenario seed.
func (env *runEnv) workerRng(idx int) *rand.Rand {
	return rand.New(rand.NewSource(env.cfg.Seed + int64(idx+1)*7919))
}

func isCode(err error, code wire.ErrCode) bool {
	var pe *wire.ProtocolError
	return errors.As(err, &pe) && pe.Code == code
}

// --- scenario registry ---

var scenarios = []scenario{
	{
		name:    "lock",
		about:   "fenced distributed lock: fencing tokens stay strictly monotonic through partitions and leader churn",
		profile: lockProfile,
		run:     runLockScenario,
	},
	{
		name:    "queue",
		about:   "work queue: no job is claimed twice and no ACKed job is lost through follower kills and drops",
		profile: queueProfile,
		run:     runQueueScenario,
	},
	{
		name:    "ratelimit",
		about:   "token-bucket rate limiter: per-epoch admissions never exceed capacity through races and reconnects",
		profile: rateProfile,
		run:     runRateScenario,
	},
	{
		name:    "configcache",
		about:   "hot-reload config cache: versions never go backwards and all caches converge after heal",
		profile: cacheProfile,
		run:     runCacheScenario,
	},
}

// --- fenced lock scenario ---

func lockProfile(cfg ScenarioConfig) Profile {
	p := Profile{
		Voters:      cfg.Replicas,
		Degrade:     LinkFault{Drop: 0.03, Delay: time.Millisecond, Jitter: 2 * time.Millisecond},
		Partition:   true,
		AsymCut:     true,
		LeaderChurn: true,
	}
	if cfg.DataDir != "" {
		p.FsyncStall = 2 * time.Millisecond
	}
	return p
}

func runLockScenario(ctx context.Context, env *runEnv) ([]string, error) {
	const root = "/chaos/lock"
	if err := withSetupClient(env, func(cl *client.Client) error {
		return recipes.EnsurePath(ctx, cl, root)
	}); err != nil {
		return nil, err
	}

	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < env.cfg.Workers; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			rng := env.workerRng(idx)
			for wctx.Err() == nil {
				cl := connectLive(env.cluster, rng)
				if cl == nil {
					sleepCtx(wctx, 20*time.Millisecond)
					continue
				}
				lockSession(wctx, env, cl, idx, root)
				_ = cl.Close()
			}
		}(i)
	}

	err := env.runFaults(ctx)
	// Let the post-heal cluster serve a last round of acquisitions so
	// the checker sees tokens from both sides of every fault.
	sleepCtx(ctx, 500*time.Millisecond)
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return CheckLockFencing(env.hist.Ops()), nil
}

// lockSession acquires/releases in a loop on one connection until an
// error sends the worker back to reconnect.
func lockSession(ctx context.Context, env *runEnv, cl *client.Client, idx int, root string) {
	lk, err := recipes.NewLock(ctx, cl, root)
	if err != nil {
		return
	}
	for ctx.Err() == nil {
		token, err := lk.Acquire(ctx)
		if err != nil {
			return
		}
		env.hist.Append(Op{Kind: OpLockAcquired, Client: idx, Token: token})
		sleepCtx(ctx, time.Millisecond)
		env.hist.Append(Op{Kind: OpLockReleased, Client: idx, Token: token})
		if err := lk.Unlock(ctx); err != nil {
			return
		}
	}
}

// --- work queue scenario ---

func queueProfile(cfg ScenarioConfig) Profile {
	p := Profile{
		Voters:       cfg.Replicas,
		Degrade:      LinkFault{Drop: 0.05, Delay: time.Millisecond},
		Partition:    true,
		FollowerKill: true,
		LeaderChurn:  true,
	}
	if cfg.DataDir != "" {
		p.FsyncStall = 2 * time.Millisecond
	}
	return p
}

func runQueueScenario(ctx context.Context, env *runEnv) ([]string, error) {
	const root = "/chaos/queue"
	if err := withSetupClient(env, func(cl *client.Client) error {
		_, err := recipes.NewWorkQueue(ctx, cl, root)
		return err
	}); err != nil {
		return nil, err
	}

	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	half := env.cfg.Workers / 2
	if half == 0 {
		half = 1
	}
	// Producers: first half of the workers put jobs, recording ACKed
	// vs unknown-outcome puts distinctly.
	for i := 0; i < half; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			rng := env.workerRng(idx)
			seq := 0
			for wctx.Err() == nil {
				cl := connectLive(env.cluster, rng)
				if cl == nil {
					sleepCtx(wctx, 20*time.Millisecond)
					continue
				}
				q, err := recipes.NewWorkQueue(wctx, cl, root)
				for err == nil && wctx.Err() == nil {
					payload := fmt.Sprintf("w%d-%d", idx, seq)
					seq++
					var name string
					name, err = q.Put(wctx, []byte(payload))
					if err == nil {
						env.hist.Append(Op{Kind: OpQueuePutAck, Client: idx, Name: name})
						sleepCtx(wctx, 5*time.Millisecond)
					} else if !isCode(err, wire.ErrNoNode) {
						// Connection loss mid-put: fate unknown. The job, if
						// it exists, carries the payload, not the name we
						// never learned — record it by payload so the drain
						// can match it up.
						env.hist.Append(Op{Kind: OpQueuePutMaybe, Client: idx, Name: payload})
					}
				}
				_ = cl.Close()
			}
		}(i)
	}
	// Consumers: remaining workers take jobs.
	for i := half; i < env.cfg.Workers; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			rng := env.workerRng(idx)
			for wctx.Err() == nil {
				cl := connectLive(env.cluster, rng)
				if cl == nil {
					sleepCtx(wctx, 20*time.Millisecond)
					continue
				}
				q, err := recipes.NewWorkQueue(wctx, cl, root)
				for err == nil && wctx.Err() == nil {
					var name string
					var data []byte
					name, data, err = q.Take(wctx)
					if err == nil {
						env.hist.Append(Op{Kind: OpQueueTake, Client: idx, Name: name, Data: string(data)})
					} else if errors.Is(err, recipes.ErrQueueEmpty) {
						err = nil
						sleepCtx(wctx, 5*time.Millisecond)
					}
				}
				_ = cl.Close()
			}
		}(i)
	}

	err := env.runFaults(ctx)
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}

	// Drain: claim everything still pending on the healed cluster so
	// "ACKed but never processed" is a real loss, not a timing gap.
	var done, pending []string
	drainErr := withSetupClient(env, func(cl *client.Client) error {
		q, err := recipes.NewWorkQueue(ctx, cl, root)
		if err != nil {
			return err
		}
		for {
			name, data, err := q.Take(ctx)
			if errors.Is(err, recipes.ErrQueueEmpty) {
				break
			}
			if err != nil {
				return err
			}
			env.hist.Append(Op{Kind: OpQueueTake, Client: -1, Name: name, Data: string(data)})
		}
		if done, err = q.Done(ctx); err != nil {
			return err
		}
		pending, err = q.Pending(ctx)
		return err
	})
	if drainErr != nil {
		return nil, drainErr
	}
	violations := CheckQueue(env.hist.Ops(), done, pending)
	violations = append(violations, checkMaybePuts(env.hist.Ops(), done, pending)...)
	return violations, nil
}

// checkMaybePuts resolves unknown-outcome puts by payload: a "maybe"
// job that did commit surfaces in done/ (its data is the payload), and
// that is fine; nothing to assert beyond what CheckQueue covers. It
// exists to flag the impossible case: a payload appearing twice.
func checkMaybePuts(ops []Op, done, pending []string) []string {
	// Payload duplication cannot be detected from names alone here;
	// producers never retry a payload, so a duplicate name in done and
	// pending simultaneously is the only observable corruption.
	inDone := make(map[string]bool, len(done))
	for _, n := range done {
		inDone[n] = true
	}
	var violations []string
	for _, n := range pending {
		if inDone[n] {
			violations = append(violations, fmt.Sprintf("job %s both done and pending", n))
		}
	}
	return violations
}

// --- token-bucket rate limiter scenario ---

const rateCapacity = 8

func rateProfile(cfg ScenarioConfig) Profile {
	return Profile{
		Voters:      cfg.Replicas,
		Degrade:     LinkFault{Drop: 0.04, Delay: time.Millisecond, Jitter: time.Millisecond},
		Partition:   true,
		LeaderChurn: true,
	}
}

func runRateScenario(ctx context.Context, env *runEnv) ([]string, error) {
	const path = "/chaos/bucket"
	if err := withSetupClient(env, func(cl *client.Client) error {
		_, err := recipes.NewTokenBucket(ctx, cl, path, rateCapacity)
		return err
	}); err != nil {
		return nil, err
	}

	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	// Refiller: one goroutine starts a fresh epoch every 150ms.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := env.workerRng(1000)
		for wctx.Err() == nil {
			cl := connectLive(env.cluster, rng)
			if cl == nil {
				sleepCtx(wctx, 20*time.Millisecond)
				continue
			}
			b, err := recipes.NewTokenBucket(wctx, cl, path, rateCapacity)
			for err == nil && wctx.Err() == nil {
				sleepCtx(wctx, 150*time.Millisecond)
				_, err = b.Refill(wctx)
			}
			_ = cl.Close()
		}
	}()
	// Admission workers hammer Acquire.
	for i := 0; i < env.cfg.Workers; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			rng := env.workerRng(idx)
			for wctx.Err() == nil {
				cl := connectLive(env.cluster, rng)
				if cl == nil {
					sleepCtx(wctx, 20*time.Millisecond)
					continue
				}
				b, err := recipes.NewTokenBucket(wctx, cl, path, rateCapacity)
				for err == nil && wctx.Err() == nil {
					var admitted bool
					var epoch int64
					admitted, epoch, err = b.Acquire(wctx)
					if err == nil {
						if admitted {
							env.hist.Append(Op{Kind: OpRateAdmit, Client: idx, Epoch: epoch})
						} else {
							sleepCtx(wctx, 10*time.Millisecond)
						}
					}
				}
				_ = cl.Close()
			}
		}(i)
	}

	err := env.runFaults(ctx)
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return CheckRateLimit(env.hist.Ops(), rateCapacity), nil
}

// --- hot-reload config cache scenario ---

func cacheProfile(cfg ScenarioConfig) Profile {
	return Profile{
		Voters:       cfg.Replicas,
		Degrade:      LinkFault{Drop: 0.03, Delay: time.Millisecond, Jitter: time.Millisecond},
		Partition:    true,
		AsymCut:      true,
		FollowerKill: true,
	}
}

func runCacheScenario(ctx context.Context, env *runEnv) ([]string, error) {
	const path = "/chaos/config/current"
	if err := withSetupClient(env, func(cl *client.Client) error {
		if err := recipes.EnsurePath(ctx, cl, "/chaos/config"); err != nil {
			return err
		}
		_, err := cl.Create(ctx, path, []byte("1"), 0)
		if err != nil && !isCode(err, wire.ErrNodeExists) {
			return err
		}
		return nil
	}); err != nil {
		return nil, err
	}
	env.hist.Append(Op{Kind: OpCachePublish, Client: -1, Ver: 1})

	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	// Cache workers: each keeps a watch-invalidated cache alive,
	// rebuilding it on a fresh connection whenever the session dies.
	for i := 0; i < env.cfg.Workers; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			rng := env.workerRng(idx)
			for wctx.Err() == nil {
				cl := connectLive(env.cluster, rng)
				if cl == nil {
					sleepCtx(wctx, 20*time.Millisecond)
					continue
				}
				cache, err := recipes.NewConfigCache(wctx, cl, path, func(data []byte, _ wire.Stat) {
					if v, err := strconv.ParseInt(string(data), 10, 64); err == nil {
						env.hist.Append(Op{Kind: OpCacheObserve, Client: idx, Ver: v})
					}
				})
				if err != nil {
					_ = cl.Close()
					sleepCtx(wctx, 20*time.Millisecond)
					continue
				}
				select {
				case <-wctx.Done():
				case <-cache.Done(): // session died; rebuild
				}
				cache.Close()
				_ = cl.Close()
			}
		}(i)
	}

	// Publisher: one writer bumps the version, confirming commit even
	// across connection loss (a lost ACK is re-checked by reading).
	// It gets its own cancel so publishing can stop while the cache
	// workers keep rebuilding through the settle phase below.
	pctx, pubCancel := context.WithCancel(wctx)
	defer pubCancel()
	pub := &publisher{env: env, path: path, rng: env.workerRng(2000)}
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		v := int64(2)
		for pctx.Err() == nil {
			if pub.publish(pctx, v) {
				env.hist.Append(Op{Kind: OpCachePublish, Client: -1, Ver: v})
				v++
			}
			sleepCtx(pctx, 40*time.Millisecond)
		}
		pub.close()
	}()

	err := env.runFaults(ctx)
	if err != nil {
		cancel()
		pubWG.Wait()
		wg.Wait()
		return nil, err
	}

	// Settle: stop publishing, then give every cache time to converge
	// on the final version — workers stay alive so a cache whose
	// session died right at the end is rebuilt on a live replica.
	pubCancel()
	pubWG.Wait()
	// The publisher may have been cancelled with a write in flight:
	// the Set can commit without ever being confirmed. Resolve the
	// uncertainty authoritatively — wait out any straggler proposal,
	// sync-read the node, and record what actually committed as the
	// final published version.
	sleepCtx(ctx, 250*time.Millisecond)
	if err := withSetupClient(env, func(cl *client.Client) error {
		if err := cl.Sync(ctx, path); err != nil {
			return err
		}
		data, _, err := cl.Get(ctx, path)
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(string(data), 10, 64)
		if err != nil {
			return err
		}
		if v > finalPublished(env.hist.Ops()) {
			env.hist.Append(Op{Kind: OpCachePublish, Client: -1, Ver: v})
		}
		return nil
	}); err != nil {
		cancel()
		wg.Wait()
		return nil, err
	}
	final := finalPublished(env.hist.Ops())
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if converged(env.hist.Ops(), env.cfg.Workers, final) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	return CheckConfigCache(env.hist.Ops()), nil
}

// publisher writes monotonically increasing versions, treating a lost
// ACK as "unknown" and resolving it with a sync-read before retrying —
// the version history must never record a publish that didn't commit.
type publisher struct {
	env  *runEnv
	path string
	rng  *rand.Rand
	cl   *client.Client
}

// publish returns true once version v is confirmed committed.
func (p *publisher) publish(ctx context.Context, v int64) bool {
	for ctx.Err() == nil {
		if p.cl == nil {
			p.cl = connectLive(p.env.cluster, p.rng)
			if p.cl == nil {
				sleepCtx(ctx, 20*time.Millisecond)
				continue
			}
		}
		if _, err := p.cl.Set(ctx, p.path, []byte(strconv.FormatInt(v, 10)), -1); err == nil {
			return true
		}
		// ACK lost: the write may have committed. Re-check on a fresh
		// session with a sync-read before retrying.
		_ = p.cl.Close()
		p.cl = nil
		if cl := connectLive(p.env.cluster, p.rng); cl != nil {
			if err := cl.Sync(ctx, p.path); err == nil {
				if data, _, err := cl.Get(ctx, p.path); err == nil {
					if cur, err := strconv.ParseInt(string(data), 10, 64); err == nil && cur >= v {
						p.cl = cl
						return true
					}
				}
			}
			p.cl = cl
		}
	}
	return false
}

func (p *publisher) close() {
	if p.cl != nil {
		_ = p.cl.Close()
		p.cl = nil
	}
}

// finalPublished returns the highest recorded published version.
func finalPublished(ops []Op) int64 {
	var max int64
	for _, op := range ops {
		if op.Kind == OpCachePublish && op.Ver > max {
			max = op.Ver
		}
	}
	return max
}

// converged reports whether every observing worker's latest
// observation is the final version.
func converged(ops []Op, workers int, final int64) bool {
	last := make(map[int]int64)
	for _, op := range ops {
		if op.Kind == OpCacheObserve {
			last[op.Client] = op.Ver
		}
	}
	if len(last) == 0 {
		return false
	}
	for _, v := range last {
		if v != final {
			return false
		}
	}
	return true
}

// --- shared helpers ---

// withSetupClient runs fn with a fresh client on any live replica,
// retrying across replicas; used for setup and drain phases.
func withSetupClient(env *runEnv, fn func(cl *client.Client) error) error {
	rng := rand.New(rand.NewSource(env.cfg.Seed + 104729))
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		cl := connectLive(env.cluster, rng)
		if cl == nil {
			lastErr = errors.New("chaos: no live replica to connect to")
			time.Sleep(50 * time.Millisecond)
			continue
		}
		err := fn(cl)
		_ = cl.Close()
		if err == nil {
			return nil
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("chaos: setup/drain failed: %w", lastErr)
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}
