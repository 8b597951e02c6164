package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"securekeeper/internal/core"
)

// Every workload runs the same way: 3 voters, 2 closed-loop client
// sessions, 1024-byte payloads. The sessions write disjoint halves of
// the key space, so every value a session reads back is one only it has
// written and can be checked exactly.
const (
	numSessions  = 2
	numReplicas  = 3
	payloadBytes = 1024
	// poolBytes sizes the seeded random pool that payloads are slices
	// of: an op carries an offset, not a buffer, so the driver neither
	// allocates nor copies per op and the last payload written to a key
	// is remembered as one int32.
	poolBytes = 1 << 20
	// A session keeps between seqFloor and seqCeil sequential nodes
	// alive. The floor exceeds the largest window, so "delete the oldest
	// acknowledged sequential node" always has a target and no operation
	// fails; the ceiling keeps the tree the same size for the whole run.
	seqFloor   = 64
	seqCeil    = 256
	seqPreload = (seqFloor + seqCeil) / 2
)

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opCreateSeq
	opDeleteOldest
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"get", "set", "create_seq", "delete_oldest"}[k]
}

func (k opKind) isWrite() bool { return k != opGet }

// op is one generated operation. key indexes the issuing session's half
// of the key space; off is the payload's offset into the pool.
type op struct {
	kind opKind
	key  int32
	off  int32
}

// spec defines a workload. The four specs below are the benchmark's
// contract; their names appear in BENCHMARK.json.
type spec struct {
	name string
	why  string

	variant core.Variant
	tcp     bool // core.Node ensemble on the loopback zabnet mesh, clients over TCP
	durable bool // DataDir + simulated device latency

	keys     int     // total keys; each session owns keys/numSessions
	parents  int     // parent znodes the keys are spread under
	hotKeys  int     // per-session hot set size (0 = uniform access)
	hotShare float64 // share of accesses that go to the hot set
	mix      [numOpKinds]int
	window   int // ops in flight per session
	roundOps int // ops per measured round, all sessions together
}

var specs = []spec{
	{
		name:    "kv_mixed_sk",
		why:     "paper's 70:30 GET/SET mix on SecureKeeper, 1 op in flight: entry enclave, sgx crossings, skcrypto and the secure channel do most of the work per op",
		variant: core.SecureKeeper,
		keys:    16384, parents: 16, hotKeys: 1024, hotShare: 0.8,
		mix:    [numOpKinds]int{opGet: 70, opSet: 30},
		window: 1, roundOps: 20000,
	},
	{
		name:    "kv_mixed_vanilla",
		why:     "byte-identical op stream on Vanilla: bypasses enclave, skcrypto and SecureConn, so client, wire, server, ztree and in-proc zab are the whole cost",
		variant: core.Vanilla,
		keys:    16384, parents: 16, hotKeys: 1024, hotShare: 0.8,
		mix:    [numOpKinds]int{opGet: 70, opSet: 30},
		window: 1, roundOps: 20000,
	},
	{
		name:    "write_tcp_sk",
		why:     "write-heavy with sequential create/delete, window 16, on the attested loopback zabnet mesh over real TCP: zab batching, wirecodec, zabnet and the counter enclave dominate",
		variant: core.SecureKeeper, tcp: true,
		keys: 4096, parents: 16,
		mix:    [numOpKinds]int{opGet: 10, opSet: 60, opCreateSeq: 15, opDeleteOldest: 15},
		window: 16, roundOps: 10000,
	},
	{
		name:    "durable_write_sk",
		why:     "90:10 SET/GET, window 32, WAL with a simulated 2 ms device: storage group commit and the fsync wait set the result, so CPU savings must show only in cpu_us_per_op",
		variant: core.SecureKeeper, durable: true,
		keys: 4096, parents: 16,
		mix:    [numOpKinds]int{opGet: 10, opSet: 90},
		window: 32, roundOps: 5000,
	},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (sp *spec) half() int { return sp.keys / numSessions }

func (sp *spec) hasSequential() bool { return sp.mix[opCreateSeq] > 0 }

// keyPath is the znode of a session's key.
func (sp *spec) keyPath(session, key int) string {
	g := session*sp.half() + key
	return fmt.Sprintf("/bench/p%02d/k%05d", g%sp.parents, g)
}

func parentPath(i int) string { return fmt.Sprintf("/bench/p%02d", i) }

// seqPrefix is what a session's sequential creates are named before the
// server appends the sequence number.
func seqPrefix(session int) string { return fmt.Sprintf("/bench/q%d/n-", session) }

// seqNode is the sequential node the server makes of seqPrefix and a
// sequence number.
func seqNode(session int, seq int32) string {
	return fmt.Sprintf("%s%010d", seqPrefix(session), seq)
}

func seqParent(session int) string { return fmt.Sprintf("/bench/q%d", session) }

// preloadOffset is the payload every key holds before the first SET.
func preloadOffset(session, key int) int32 {
	return int32((session*7919 + key*payloadBytes) % (poolBytes - payloadBytes))
}

// newPool returns the seeded payload pool.
func newPool(seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0x706f6f6c))
	pool := make([]byte, poolBytes)
	for i := 0; i < len(pool); i += 8 {
		binary.LittleEndian.PutUint64(pool[i:], rng.Uint64())
	}
	return pool
}

// generator produces one session's op stream from the seed. It depends
// on the spec's shape only, never on the variant or transport, so
// kv_mixed_sk and kv_mixed_vanilla get byte-identical streams.
type generator struct {
	rng  *rand.Rand
	sp   *spec
	live int // sequential nodes alive once every op so far has completed
}

func newGenerator(sp *spec, seed uint64, session int) *generator {
	g := &generator{rng: rand.New(rand.NewPCG(seed, uint64(session)+1)), sp: sp}
	if sp.hasSequential() {
		g.live = seqPreload
	}
	return g
}

// fill overwrites ops with the next len(ops) operations of the stream.
func (g *generator) fill(ops []op) {
	half := g.sp.half()
	for i := range ops {
		kind := g.pickKind()
		o := op{kind: kind}
		switch kind {
		case opGet, opSet:
			if g.sp.hotKeys > 0 && g.rng.Float64() < g.sp.hotShare {
				o.key = int32(g.rng.IntN(g.sp.hotKeys))
			} else {
				o.key = int32(g.sp.hotKeys + g.rng.IntN(half-g.sp.hotKeys))
			}
		}
		if kind == opSet || kind == opCreateSeq {
			o.off = int32(g.rng.IntN(poolBytes - payloadBytes))
		}
		ops[i] = o
	}
}

func (g *generator) pickKind() opKind {
	r := g.rng.IntN(100)
	kind := opKind(0)
	for k, share := range g.sp.mix {
		if r < share {
			kind = opKind(k)
			break
		}
		r -= share
	}
	switch {
	case kind == opDeleteOldest && g.live <= seqFloor:
		kind = opCreateSeq
	case kind == opCreateSeq && g.live >= seqCeil:
		kind = opDeleteOldest
	}
	switch kind {
	case opCreateSeq:
		g.live++
	case opDeleteOldest:
		g.live--
	}
	return kind
}

// streamHash digests the first rounds of every session's stream.
func streamHash(sp *spec, seed uint64, rounds int) uint64 {
	h := fnv.New64a()
	ops := make([]op, sp.roundOps/numSessions)
	var buf [9]byte
	for s := 0; s < numSessions; s++ {
		g := newGenerator(sp, seed, s)
		for r := 0; r < rounds; r++ {
			g.fill(ops)
			for _, o := range ops {
				buf[0] = byte(o.kind)
				binary.LittleEndian.PutUint32(buf[1:], uint32(o.key))
				binary.LittleEndian.PutUint32(buf[5:], uint32(o.off))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}
