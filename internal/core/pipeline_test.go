package core

// End-to-end checks of the commit-processor split against the enclave
// interceptor path. The entry enclave matches responses to requests
// with a strict FIFO queue (§4.2): it records (xid, op, plaintext path)
// per request and pops one entry per response, trusting release order.
// The split pipeline executes reads concurrently with pending writes,
// but OnRequests still runs serially on the session reader goroutine
// (in submission order) and OnResponses serially on the writer goroutine
// (in release order == submission order), so the enclave's assumption
// must keep holding. These tests pin that: an ordering violation surfaces as
// an enclave "FIFO violation" error, which kills the session.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/wire"
)

// TestEnclaveResponseMatchingUnderPipelinedMixedOps floods a single
// SecureKeeper session with interleaved async writes and reads. Every
// response must decrypt to the value the session itself wrote last —
// proving both the enclave FIFO matching and read-after-own-write
// survive concurrent read execution.
func TestEnclaveResponseMatchingUnderPipelinedMixedOps(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	cl, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pipelinedMixedOps(t, cl, 25, 0)
}

// TestEnclaveResponseMatchingOverTCPPipelined is the same flood on the
// path that batches: loopback TCP, framed, secure channel, sixteen ops
// always in flight. The session reader runs every request one read
// delivered through the entry enclave in one ecall, the writer every
// response due in one pass, released with one write as one batch of
// secure-channel records; the enclave's FIFO matching and the channel's
// nonce order must both survive that, at less than one crossing per op.
// With one op in flight the same code pays exactly two.
func TestEnclaveResponseMatchingOverTCPPipelined(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	cl := dialTCPSession(t, c, 0, SecureKeeper)
	mntr := func() map[string]int64 { return mntrOf(c, 0) }
	ecalls := func(stats map[string]int64) int64 {
		return stats["enclave_ecalls_total_ec_request"] + stats["enclave_ecalls_total_ec_response"]
	}

	const rounds = 100
	pipelinedMixedOps(t, cl, rounds, 16)
	ops := int64(1 + 4*rounds) // the create, then a write and three reads per round
	stats := mntr()
	writes, ok := stats["server_frames_per_release_write_count"]
	if !ok || writes == 0 {
		t.Fatalf("mntr has no server_frames_per_release_write samples (present=%v)", ok)
	}
	t.Logf("session writers: %d writes, avg %d frames each (p99 <= %d)", writes,
		stats["server_frames_per_release_write_avg"], stats["server_frames_per_release_write_p99"])
	for _, key := range []string{"enclave_msgs_per_ecall_ec_request_count", "enclave_msgs_per_ecall_ec_response_count", "server_frames_per_request_read_count"} {
		if stats[key] == 0 {
			t.Fatalf("mntr has no %s samples", key)
		}
	}
	pipelined := ecalls(stats)
	t.Logf("window 16: %d ops, %d ecalls (%d request, %d response)", ops, pipelined,
		stats["enclave_ecalls_total_ec_request"], stats["enclave_ecalls_total_ec_response"])
	if pipelined >= ops {
		t.Fatalf("window 16: %d entry-enclave crossings for %d ops — bursts crossed one message at a time", pipelined, ops)
	}

	const serial = 40
	for i := 0; i < serial; i++ {
		if _, err := cl.Set(ctxbg, "/pipe", []byte("value-999"), -1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Get(ctxbg, "/pipe"); err != nil {
			t.Fatal(err)
		}
	}
	if got := ecalls(mntr()) - pipelined; got != 2*2*serial {
		t.Fatalf("window 1: %d entry-enclave crossings for %d ops, want one in and one out each", got, 2*serial)
	}
}

// mntrOf reads replica i's counters from the system, through the same
// mntr rendering `skclient mntr` prints.
func mntrOf(c *Cluster, i int) map[string]int64 {
	stats := make(map[string]int64)
	for _, kv := range c.Obs(i).Mntr() {
		stats[kv.Key] = kv.Value
	}
	return stats
}

// pipelinedMixedOps floods one session with rounds of one async write
// and three async reads of the same znode. window bounds the ops in
// flight (0: issue everything before waiting for anything).
func pipelinedMixedOps(t *testing.T, cl *client.Client, rounds, window int) {
	t.Helper()
	if _, err := cl.Create(ctxbg, "/pipe", []byte("v0"), 0); err != nil {
		t.Fatal(err)
	}

	const readsPerRound = 3
	type round struct {
		set   *client.Future
		reads [readsPerRound]*client.Future
	}
	rs := make([]round, rounds)
	check := func(i int) {
		t.Helper()
		if res := rs[i].set.Wait(); res.Err != nil {
			t.Fatalf("round %d set: %v", i, res.Err)
		}
		for j, f := range rs[i].reads {
			res := f.Wait()
			if res.Err != nil {
				t.Fatalf("round %d read %d: %v (enclave FIFO matching broke?)", i, j, res.Err)
			}
			// Single writer session: the read must see this round's
			// value or a later round's (reads may observe newer own
			// writes already committed), never an earlier one.
			got := string(res.Data)
			var gotRound int
			if n, err := fmt.Sscanf(got, "value-%d", &gotRound); n != 1 || err != nil {
				t.Fatalf("round %d read %d: undecryptable or foreign payload %q", i, j, got)
			}
			if gotRound < i {
				t.Fatalf("round %d read %d observed stale own-write %q", i, j, got)
			}
		}
	}
	checked := 0
	for i := range rs {
		if window > 0 && (i-checked+1)*(1+readsPerRound) > window {
			check(checked)
			checked++
		}
		rs[i].set = cl.SetAsync("/pipe", []byte(fmt.Sprintf("value-%03d", i)), -1)
		for j := range rs[i].reads {
			rs[i].reads[j] = cl.GetAsync("/pipe", false)
		}
	}
	for ; checked < rounds; checked++ {
		check(checked)
	}
}

// TestEnclaveMatchingManySessions runs the same pipelined mix over
// several SecureKeeper sessions at once (each session has its own entry
// enclave and FIFO queue) with all sessions sharing one znode set, so
// concurrent read execution across sessions interleaves with foreign
// commits on the shared paths.
func TestEnclaveMatchingManySessions(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)

	setup, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const shared = 4
	for i := 0; i < shared; i++ {
		if _, err := setup.Create(ctxbg, fmt.Sprintf("/s%d", i), []byte("init"), 0); err != nil {
			t.Fatal(err)
		}
	}
	_ = setup.Close()

	const sessions = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		cl, err := c.Connect(s%c.Size(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(cl *client.Client, id int) {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				path := fmt.Sprintf("/s%d", n%shared)
				if n%5 == 0 {
					if _, err := cl.Set(ctxbg, path, []byte(fmt.Sprintf("s%d-n%d", id, n)), -1); err != nil {
						errs <- fmt.Errorf("session %d set %s: %w", id, path, err)
						return
					}
					continue
				}
				data, _, err := cl.Get(ctxbg, path)
				if err != nil {
					errs <- fmt.Errorf("session %d get %s: %w", id, path, err)
					return
				}
				// Whatever the value, it must decrypt to a plaintext one
				// of the sessions wrote (or the init marker) — garbage
				// means a response was matched to the wrong request.
				if !bytes.Equal(data, []byte("init")) && !bytes.HasPrefix(data, []byte("s")) {
					errs <- fmt.Errorf("session %d got mismatched plaintext %q for %s", id, data, path)
					return
				}
			}
		}(cl, s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPathCacheCountersInMntr: the path-chunk caches of a replica's
// entry enclaves and of its counter enclave are counted in the system's
// own output, per enclave kind and direction, and a session's counts
// outlive its enclave.
func TestPathCacheCountersInMntr(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	leader := c.LeaderIndex()
	mntr := func() map[string]int64 { return mntrOf(c, leader) }
	enclaves := c.Runtime(leader).EnclaveCount()
	cl, err := c.Connect(leader, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create(ctxbg, "/cache", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Create(ctxbg, "/cache/seq-", nil, wire.FlagSequential); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Get(ctxbg, "/cache"); err != nil {
			t.Fatal(err)
		}
	}
	live := mntr()
	for key, least := range map[string]int64{
		"skcrypto_path_cache_misses_total_entry_enc":   2, // "cache", "seq-"
		"skcrypto_path_cache_hits_total_entry_enc":     6, // "cache" again with every later op
		"skcrypto_path_cache_misses_total_counter_enc": 3, // each suffixed chunk is new
		"skcrypto_path_cache_hits_total_counter_dec":   2, // "seq-", to be suffixed again
	} {
		if live[key] < least {
			t.Errorf("%s = %d with the session open, want at least %d", key, live[key], least)
		}
	}
	for _, key := range []string{"skcrypto_path_cache_evictions_total_entry_enc", "skcrypto_path_cache_evictions_total_counter_dec"} {
		if v, ok := live[key]; !ok || v != 0 {
			t.Errorf("%s = %d (present=%v), want 0: nothing filled a cache", key, v, ok)
		}
	}

	_ = cl.Close()
	waitForCond(t, 5*time.Second, "the session's entry enclave to close", func() bool {
		return c.Runtime(leader).EnclaveCount() == enclaves
	})
	closed := mntr()
	for _, key := range []string{"skcrypto_path_cache_misses_total_entry_enc", "skcrypto_path_cache_hits_total_entry_enc"} {
		if closed[key] != live[key] {
			t.Errorf("%s = %d after the session closed, was %d", key, closed[key], live[key])
		}
	}
}
