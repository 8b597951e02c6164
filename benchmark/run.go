package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// options are one run's inputs. The sizes below the flags are fixed for
// every real run; only the package's own tests shrink them.
type options struct {
	sp      *spec
	seed    uint64
	seconds float64
	traced  bool

	setups    int           // set-ups per run; setup_s is their median
	warmup    time.Duration // time-boxed warm-up of the workload's own mix
	minRounds int           // measured rounds, whatever --seconds says
	replayOps int           // ops each isolation replay times
	scratch   string        // WAL directories go here
	outDir    string        // the trace file goes here
}

func defaultOptions(sp *spec, seed uint64, seconds float64, traced bool) options {
	return options{
		sp: sp, seed: seed, seconds: seconds, traced: traced,
		setups: 5, warmup: 3 * time.Second, minRounds: 8, replayOps: 4000,
		scratch: filepath.Join(".bench_build", "data"),
		outDir:  filepath.Join("benchmark", "out"),
	}
}

// setupTimes are the pieces of one set-up.
type setupTimes struct {
	// total is setup_s: replicas started, sessions attached, keys
	// preloaded. It leaves out electionWait. On the TCP mesh the first
	// round of votes is lost whenever a link comes up later than its
	// replica's first broadcast, and the election then sits idle until
	// the 500 ms election timer fires: a coin toss per set-up that says
	// nothing about work done. (The in-process cluster elects inside
	// core.NewCluster, in a few milliseconds every time; that stays in.)
	total        float64 // s
	clusterStart float64 // ms: replicas constructed and started
	electionWait float64 // ms: from there until one leads and two follow
	preload      float64 // ms: sessions attached, tree and keys created
}

// bench is one run in progress.
type bench struct {
	opt      options
	pool     []byte
	ens      *ensemble
	sessions [numSessions]*session

	leaderAtStart    int
	electionsAtStart int64

	rounds []roundResult
	// reads and writes are the per-round latency scratch.
	reads, writes []int64
}

// roundResult is what one measured round yields.
type roundResult struct {
	traced   bool
	ops      int
	writes   int
	opsPerS  float64
	readP50  float64 // µs
	writeP50 float64 // µs
	writeP99 float64 // µs
	meanUs   float64 // mean latency over all ops
	cpuUs    float64 // process user+sys CPU per op
	allocs   float64 // process mallocs per op
	gcPause  time.Duration
	heapMB   float64
}

// setUp builds the ensemble, attaches the sessions relative to the
// elected leader and preloads the keys.
func (b *bench) setUp() (setupTimes, error) {
	var st setupTimes
	start := now()
	ens, err := startEnsemble(b.opt.sp, b.opt.scratch, b.opt.traced)
	if err != nil {
		return st, err
	}
	b.ens = ens
	started := now()
	if err := ens.waitSettled(10 * time.Second); err != nil {
		return st, err
	}
	settled := now()
	st.clusterStart = float64(started-start) / 1e6
	st.electionWait = float64(settled-started) / 1e6

	leader := ens.leader()
	place, err := placeSessions(leader, ens.size())
	if err != nil {
		return st, err
	}
	for i, replica := range place {
		cl, tr, err := ens.connect(replica)
		if err != nil {
			return st, fmt.Errorf("session %d to replica %d: %w", i, replica+1, err)
		}
		b.sessions[i] = newSession(i, b.opt.sp, b.opt.seed, b.pool, cl, tr)
	}

	if err := createTree(b.sessions[0].cl, b.opt.sp); err != nil {
		return st, err
	}
	errs := make([]error, numSessions)
	var wg sync.WaitGroup
	for i, s := range b.sessions {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			errs[i] = s.preload()
		}(i, s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return st, err
	}
	// The simulated device comes on after the preload: its latency is
	// part of the workload, not of the set-up.
	ens.stallDevice(deviceLatency)
	end := now()
	st.preload = float64(end-settled) / 1e6
	st.total = float64(end-start-(settled-started)) / 1e9

	b.leaderAtStart = leader
	b.electionsAtStart = ens.elections()
	return st, nil
}

func (b *bench) tearDown() {
	for _, s := range b.sessions {
		if s != nil {
			_ = s.cl.Close()
		}
	}
	b.sessions = [numSessions]*session{}
	if b.ens != nil {
		b.ens.close()
		b.ens = nil
	}
}

// leaderHeld fails the run if the ensemble re-elected since set-up: the
// sessions would no longer sit where the workload says they do.
func (b *bench) leaderHeld() error {
	if l := b.ens.leader(); l != b.leaderAtStart {
		return fmt.Errorf("leader moved from replica %d to %d during the run", b.leaderAtStart+1, l+1)
	}
	if n := b.ens.elections(); n != b.electionsAtStart {
		return fmt.Errorf("%d elections started during the run", n-b.electionsAtStart)
	}
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

// heapCounters returns the process's cumulative mallocs and live heap.
func heapCounters() (mallocs uint64, heapBytes uint64) {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Uint64()
}

func gcPauseTotal() time.Duration {
	var st debug.GCStats
	debug.ReadGCStats(&st)
	return st.PauseTotal
}

// round runs one fixed-size round: both sessions issue their share of
// the op stream in a closed loop. Everything that reads a clock, a
// counter or a registry for the round's own bookkeeping happens before
// the sessions are released or after both have finished.
func (b *bench) round(traced bool) roundResult {
	for _, s := range b.sessions {
		s.nextRound()
	}
	runtime.GC()
	if b.ens.traceOn != nil {
		b.ens.traceOn.Store(traced)
	}
	mallocs0, _ := heapCounters()
	pause0 := gcPauseTotal()
	cpu0 := cpuTime()
	start := now()

	var wg sync.WaitGroup
	for _, s := range b.sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			s.runRound()
		}(s)
	}
	wg.Wait()

	wall := now() - start
	cpu := cpuTime() - cpu0
	mallocs1, heap := heapCounters()
	if b.ens.traceOn != nil {
		b.ens.traceOn.Store(false)
	}

	b.reads, b.writes = b.reads[:0], b.writes[:0]
	var total int64
	ops := 0
	for _, s := range b.sessions {
		for i, o := range s.ops {
			d := s.t1[i] - s.t0[i]
			total += d
			if o.kind.isWrite() {
				b.writes = append(b.writes, d)
			} else {
				b.reads = append(b.reads, d)
			}
		}
		ops += len(s.ops)
	}
	r := roundResult{
		traced:  traced,
		ops:     ops,
		writes:  len(b.writes),
		opsPerS: float64(ops) / (float64(wall) / 1e9),
		meanUs:  float64(total) / float64(ops) / 1e3,
		cpuUs:   float64(cpu) / float64(ops) / 1e3,
		allocs:  float64(mallocs1-mallocs0) / float64(ops),
		gcPause: gcPauseTotal() - pause0,
		heapMB:  float64(heap) / (1 << 20),
	}
	r.readP50 = latencyQuantiles(b.reads, 0.5)[0]
	w := latencyQuantiles(b.writes, 0.5, 0.99)
	r.writeP50, r.writeP99 = w[0], w[1]
	return r
}

func (b *bench) failures() (failed int, first error) {
	for _, s := range b.sessions {
		failed += s.failed
		if first == nil {
			first = s.firstErr
		}
	}
	return failed, first
}

// result is what a run reports.
type result struct {
	workload  string
	seed      uint64
	attempted int
	failed    int
	// checkErr is nil when every output check passed.
	checkErr error
	rounds   int
	// metrics are the end-to-end metrics of an untraced run, the
	// per-layer metrics of a traced one.
	metrics map[string]metricValue
	// spread is each end-to-end metric's median and interquartile range
	// across the run's rounds, for the human-readable report.
	spread map[string]summary
	notes  []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload once.
func run(opt options) (*result, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
		return nil, err
	}
	b := &bench{opt: opt, pool: newPool(opt.seed)}
	defer b.tearDown()

	// Set up several times and keep the last: one set-up is well under
	// a second, too short to repeat within a few percent on its own.
	var setups []setupTimes
	for i := 0; i < opt.setups; i++ {
		b.tearDown()
		st, err := b.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, st)
	}

	for end := now() + int64(opt.warmup); now() < end; {
		b.round(false)
	}
	if failed, first := b.failures(); failed > 0 {
		return nil, fmt.Errorf("%d ops failed during warm-up, first: %w", failed, first)
	}

	var tr *tracer
	if opt.traced {
		tr = newTracer(b)
	}
	phaseStart := now()
	for i := 0; i < opt.minRounds || float64(now()-phaseStart)/1e9 < opt.seconds; i++ {
		// A traced run alternates rounds with the instruments recording
		// and not, so that drift during the run cancels out of the
		// tracing overhead.
		traced := opt.traced && i%2 == 1
		r := b.round(traced)
		b.rounds = append(b.rounds, r)
		if traced {
			tr.addRound(b)
		}
		if err := b.leaderHeld(); err != nil {
			return nil, err
		}
	}
	res := &result{workload: opt.sp.name, seed: opt.seed, rounds: len(b.rounds)}
	for _, r := range b.rounds {
		res.attempted += r.ops
	}
	res.failed, res.checkErr = b.failures()
	if res.checkErr == nil {
		res.checkErr = b.checkOutputs()
	}
	if dir := b.ens.dataDir; dir != "" {
		res.notes = append(res.notes, "WAL directory: "+dir)
	}
	res.notes = append(res.notes,
		"injected network delay: none",
		fmt.Sprintf("GOMAXPROCS %d, %d sessions, window %d, %d ops per round", runtime.GOMAXPROCS(0), numSessions, opt.sp.window, opt.sp.roundOps))

	if opt.traced {
		layers, err := tr.finish(b, setups)
		if err != nil {
			return nil, err
		}
		res.metrics = map[string]metricValue{}
		for _, def := range perLayerDefs {
			v, ok := layers[def.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", def.Name)
			}
			res.metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
		}
		if len(layers) != len(perLayerDefs) {
			return nil, fmt.Errorf("%d per-layer metrics measured, %d defined", len(layers), len(perLayerDefs))
		}
	} else {
		res.metrics, res.spread = b.endToEnd(setups)
	}
	return res, nil
}

// endToEnd reduces the rounds to the run's seven client-visible values.
func (b *bench) endToEnd(setups []setupTimes) (map[string]metricValue, map[string]summary) {
	series := map[string][]float64{}
	for _, r := range b.rounds {
		series["ops_per_s"] = append(series["ops_per_s"], r.opsPerS)
		series["read_p50_us"] = append(series["read_p50_us"], r.readP50)
		series["write_p50_us"] = append(series["write_p50_us"], r.writeP50)
		series["write_p99_us"] = append(series["write_p99_us"], r.writeP99)
		series["cpu_us_per_op"] = append(series["cpu_us_per_op"], r.cpuUs)
		series["allocs_per_op"] = append(series["allocs_per_op"], r.allocs)
	}
	values := map[string]metricValue{}
	spread := map[string]summary{}
	for _, def := range endToEndDefs {
		if def.Name == "setup_s" {
			var totals []float64
			for _, st := range setups {
				totals = append(totals, st.total)
			}
			spread[def.Name] = summarize(totals)
			values[def.Name] = metricValue{Value: median(totals), Unit: def.Unit}
			continue
		}
		sum := summarize(series[def.Name])
		spread[def.Name] = sum
		values[def.Name] = metricValue{Value: sum.best(def.Better == "higher"), Unit: def.Unit}
	}
	return values, spread
}
