package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"securekeeper/internal/obs"
)

// The trace file keeps the spans of the first spanSampleOps ops of each
// session in the first spanSampleRounds traced rounds, about a megabyte;
// the per-layer sums cover every op of every traced round.
const (
	spanSampleOps    = 500
	spanSampleRounds = 4
)

// span is one interval of the trace file. Times are nanoseconds since
// process start; Parent indexes the file's span list, -1 for a root.
// The spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer accumulates the traced rounds of a run: what the benchmark's
// own instruments at the transport seams saw, and the difference between
// two readings of the program's registries.
type tracer struct {
	before  scraped
	zabMsgs int64
	zabByte int64

	ops, reads, writes int
	latencyNs          int64 // driver issue -> completion, all ops
	clientSelfNs       int64 // latency minus the time below the client library
	sealOpenNs         int64 // time inside the client's SecureConn
	readRTTNs          int64 // GETs: request on the wire -> reply off the wire
	frameBytes         int64

	spans  []span
	rounds int
	nextOp int
	err    error
}

func registries(e *ensemble) []*obs.Registry {
	regs := make([]*obs.Registry, e.size())
	for i := range regs {
		regs[i] = e.registry(i)
	}
	return regs
}

func newTracer(b *bench) *tracer {
	return &tracer{before: scrape(registries(b.ens)...)}
}

// addRound folds in the round that just ended with recording on.
func (t *tracer) addRound(b *bench) {
	for _, s := range b.sessions {
		under, over := s.trace.under, s.trace.over
		top := under
		if over != nil {
			top = over
		}
		n := len(s.ops)
		if len(under.sendEnter) != n || len(under.recvExit) != n || len(top.sendEnter) != n || len(top.recvExit) != n {
			t.err = fmt.Errorf("session %d: %d ops but %d frames sent and %d received", s.id, n, len(under.sendEnter), len(under.recvExit))
			return
		}
		for k, o := range s.ops {
			lat := s.t1[k] - s.t0[k]
			t.latencyNs += lat
			t.clientSelfNs += lat - (top.recvExit[k] - top.sendEnter[k])
			if over != nil {
				t.sealOpenNs += (under.sendEnter[k] - over.sendEnter[k]) + (over.recvExit[k] - under.recvExit[k])
			}
			if o.kind.isWrite() {
				t.writes++
			} else {
				t.reads++
				t.readRTTNs += under.recvExit[k] - under.sendEnter[k]
			}
			if k < spanSampleOps && t.rounds < spanSampleRounds {
				t.addSpans(s, k, o)
			}
		}
		t.ops += n
		t.frameBytes += under.bytesOut + under.bytesIn
	}
	t.rounds++
	if z := b.ens.zabSent; z != nil {
		t.zabMsgs, t.zabByte = z.msgs.Load(), z.bytes.Load()
	}
}

func (t *tracer) addSpans(s *session, k int, o op) {
	op := t.nextOp
	t.nextOp++
	parent := len(t.spans)
	t.spans = append(t.spans, span{Name: "client." + o.kind.String(), Start: s.t0[k], End: s.t1[k], Parent: -1, Op: op})
	if over := s.trace.over; over != nil {
		t.spans = append(t.spans, span{Name: "transport.secureconn", Start: over.sendEnter[k], End: over.recvExit[k], Parent: parent, Op: op})
		parent++
	}
	under := s.trace.under
	t.spans = append(t.spans, span{Name: "server.roundtrip", Start: under.sendEnter[k], End: under.recvExit[k], Parent: parent, Op: op})
}

func perOp(totalNs int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(totalNs) / float64(n) / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish turns the run into the per-layer metrics and writes the spans.
func (t *tracer) finish(b *bench, setups []setupTimes) (map[string]float64, error) {
	if t.err != nil {
		return nil, t.err
	}
	sp := b.opt.sp
	delta := scrape(registries(b.ens)...).since(t.before)

	// Counts from the registries cover every measured round, traced or
	// not; sums from the benchmark's instruments cover the traced ones.
	var allOps, allWrites int
	var roundSeconds float64
	var untraced, traced, heap []float64
	var gcPause float64
	for _, r := range b.rounds {
		allOps += r.ops
		allWrites += r.writes
		roundSeconds += float64(r.ops) / r.opsPerS
		gcPause += float64(r.gcPause)
		heap = append(heap, r.heapMB)
		if r.traced {
			traced = append(traced, r.opsPerS)
		} else {
			untraced = append(untraced, r.opsPerS)
		}
	}
	m := map[string]float64{}
	m["client.self_us_per_op"] = perOp(t.clientSelfNs, t.ops)
	m["transport.seal_open_us_per_op"] = perOp(t.sealOpenNs, t.ops)
	m["transport.frame_bytes_per_op"] = ratio(float64(t.frameBytes), float64(t.ops))
	m["server.read_rtt_us"] = perOp(t.readRTTNs, t.reads)

	m["server.submit_to_commit_us"] = delta.histogram("server_submit_to_commit_seconds").meanMicros()
	m["server.apply_us"] = delta.histogram("server_apply_seconds").meanMicros()
	m["server.commit_to_release_us"] = delta.histogram("server_commit_to_release_seconds").meanMicros()
	m["zab.propose_to_ack_us"] = delta.histogram("zab_propose_to_ack_seconds").meanMicros()
	m["zab.propose_frames_per_txn"] = ratio(delta.value("zab_propose_frames_total"), delta.value("zab_proposals_total"))
	m["zab.msgs_per_write"] = ratio(float64(t.zabMsgs), float64(t.writes))
	m["zab.bytes_per_write"] = ratio(float64(t.zabByte), float64(t.writes))
	m["zabnet.outbox_shed"] = delta.value("zabnet_outbox_shed_total")
	m["enclave.ecalls_per_op"] = ratio(delta.value("enclave_ecalls_total"), float64(allOps))
	m["enclave.ecall_us"] = delta.histogram("enclave_ecall_seconds").meanMicros()

	fsync := delta.histogram("storage_fsync_seconds")
	txns := delta.histogram("storage_txns_per_fsync")
	fsyncsPerReplica := fsync.count / numReplicas
	m["storage.fsync_us"] = fsync.meanMicros()
	m["storage.commit_wait_us"] = delta.histogram("storage_commit_wait_seconds").meanMicros()
	m["storage.txns_per_fsync"] = ratio(txns.sum, txns.count)
	m["storage.fsyncs_per_write"] = ratio(fsyncsPerReplica, float64(allWrites))
	m["storage.flush_cycle_us"] = ratio(roundSeconds*1e6, fsyncsPerReplica)

	m["runtime.gc_pause_us_per_s"] = ratio(gcPause/1e3, roundSeconds)
	m["runtime.heap_mb"] = median(heap)
	m["runtime.goroutines"] = float64(runtime.NumGoroutine())

	var starts, waits, preloads []float64
	for _, st := range setups {
		starts = append(starts, st.clusterStart)
		waits = append(waits, st.electionWait)
		preloads = append(preloads, st.preload)
	}
	m["core.cluster_start_ms"] = median(starts)
	m["zab.election_wait_ms"] = median(waits)
	m["bench.preload_ms"] = median(preloads)

	best := summarize(untraced).BestHigh
	slow := 0
	for _, v := range untraced {
		if v < 0.85*best {
			slow++
		}
	}
	m["bench.slow_round_share"] = 100 * ratio(float64(slow), float64(len(untraced)))
	m["bench.trace_overhead_pct"] = 100 * (1 - ratio(summarize(traced).BestHigh, best))

	replay, err := runReplays(sp, b.opt.seed, b.pool, b.opt.scratch, b.opt.replayOps)
	if err != nil {
		return nil, fmt.Errorf("isolation replay: %w", err)
	}
	for k, v := range replay {
		m[k] = v
	}

	// What the instruments on the blocking path account for: the client
	// library, the secure channel at both ends, the entry enclave both
	// ways, and then the tree for a read or the commit pipeline for a
	// write. The rest of the mean latency is spent where nothing looks
	// yet: pipes and sockets, goroutine hand-offs, queues.
	readShare := ratio(float64(t.reads), float64(t.ops))
	explained := m["client.self_us_per_op"] + 2*m["transport.seal_open_us_per_op"] +
		m["enclave.request_us_per_op"] + m["enclave.response_us_per_op"] +
		readShare*m["ztree.get_ns"]/1e3 +
		(1-readShare)*(m["server.submit_to_commit_us"]+m["server.commit_to_release_us"])
	m["bench.unexplained_us_per_op"] = perOp(t.latencyNs, t.ops) - explained

	return m, t.writeSpans(b.opt.outDir, sp.name)
}

func tracePath(dir, workload string) string {
	return filepath.Join(dir, "trace_"+workload+".json")
}

func (t *tracer) writeSpans(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(tracePath(dir, workload))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Clock    string `json:"clock"`
		Spans    []span `json:"spans"`
	}{workload, "ns since process start", t.spans}); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
