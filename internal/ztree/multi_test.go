package ztree

import (
	"sync"
	"sync/atomic"
	"testing"

	"securekeeper/internal/wire"
)

func applyOK(t *testing.T, tree *Tree, txn Txn) TxnResult {
	t.Helper()
	res := tree.Apply(&txn)
	if res.Err != wire.ErrOK {
		t.Fatalf("apply %v: %v", txn.Type, res.Err)
	}
	return res
}

func TestMultiAppliesAllUnderOneZxid(t *testing.T) {
	tree := New()
	applyOK(t, tree, Txn{Zxid: 1, Type: TxnCreate, Path: "/a", Data: []byte("v0")})

	res := tree.Apply(&Txn{Zxid: 2, Type: TxnMulti, Subs: []Txn{
		{Type: TxnCheck, Path: "/a", Version: 0},
		{Type: TxnSetData, Path: "/a", Data: []byte("v1"), Version: 0},
		{Type: TxnCreate, Path: "/b", Data: []byte("w")},
		{Type: TxnCreate, Path: "/b/c", Data: nil},
	}})
	if res.Err != wire.ErrOK {
		t.Fatalf("multi failed: %v (%+v)", res.Err, res.Subs)
	}
	if len(res.Subs) != 4 {
		t.Fatalf("subs = %d", len(res.Subs))
	}
	for i, sr := range res.Subs {
		if sr.Err != wire.ErrOK {
			t.Fatalf("sub %d: %v", i, sr.Err)
		}
		if sr.Zxid != 2 {
			t.Fatalf("sub %d zxid = %d, want the multi's single zxid 2", i, sr.Zxid)
		}
	}
	// The set took effect...
	data, stat, err := tree.GetData("/a")
	if err != nil || string(data) != "v1" || stat.Version != 1 {
		t.Fatalf("/a = %q v%d, %v", data, stat.Version, err)
	}
	// ...and both creates share the multi's zxid, including the child
	// whose parent was created by the SAME transaction.
	st, err := tree.Exists("/b/c")
	if err != nil || st.Czxid != 2 {
		t.Fatalf("/b/c stat = %+v, %v", st, err)
	}
}

func TestMultiFailingCheckLeavesTreeUntouched(t *testing.T) {
	tree := New()
	applyOK(t, tree, Txn{Zxid: 1, Type: TxnCreate, Path: "/a", Data: []byte("v0")})
	applyOK(t, tree, Txn{Zxid: 2, Type: TxnCreate, Path: "/keep", Data: []byte("k")})
	before := tree.Digest()
	beforeCount := tree.Count()

	res := tree.Apply(&Txn{Zxid: 3, Type: TxnMulti, Subs: []Txn{
		{Type: TxnCreate, Path: "/new", Data: []byte("n")},
		{Type: TxnCheck, Path: "/a", Version: 99}, // fails: version is 0
		{Type: TxnDelete, Path: "/keep", Version: -1},
	}})
	if res.Err != wire.ErrBadVersion {
		t.Fatalf("err = %v, want BADVERSION", res.Err)
	}
	// Per-op results: failing op its own code, others rolled back.
	if res.Subs[1].Err != wire.ErrBadVersion {
		t.Fatalf("failing sub err = %v", res.Subs[1].Err)
	}
	for _, i := range []int{0, 2} {
		if res.Subs[i].Err != wire.ErrRuntimeInconsistency {
			t.Fatalf("sub %d err = %v, want RUNTIMEINCONSISTENCY", i, res.Subs[i].Err)
		}
	}
	// Tree byte-identical: digest and node count unchanged.
	if got := tree.Digest(); got != before {
		t.Fatalf("digest changed: %#x -> %#x", before, got)
	}
	if got := tree.Count(); got != beforeCount {
		t.Fatalf("count changed: %d -> %d", beforeCount, got)
	}
	if _, err := tree.Exists("/new"); err == nil {
		t.Fatal("aborted create leaked into the tree")
	}
}

// TestMultiValidatesAgainstInTxnState: later sub-ops see earlier
// sub-ops' effects (create-then-delete, delete-then-recreate, version
// bumps from in-txn sets).
func TestMultiValidatesAgainstInTxnState(t *testing.T) {
	tree := New()
	applyOK(t, tree, Txn{Zxid: 1, Type: TxnCreate, Path: "/a", Data: []byte("x")})

	// Set bumps the version; the following check must see version 1.
	res := tree.Apply(&Txn{Zxid: 2, Type: TxnMulti, Subs: []Txn{
		{Type: TxnSetData, Path: "/a", Data: []byte("y"), Version: 0},
		{Type: TxnCheck, Path: "/a", Version: 1},
	}})
	if res.Err != wire.ErrOK {
		t.Fatalf("in-txn version visibility: %v", res.Err)
	}

	// Delete-then-recreate within one multi.
	res = tree.Apply(&Txn{Zxid: 3, Type: TxnMulti, Subs: []Txn{
		{Type: TxnDelete, Path: "/a", Version: -1},
		{Type: TxnCreate, Path: "/a", Data: []byte("fresh")},
	}})
	if res.Err != wire.ErrOK {
		t.Fatalf("delete-then-recreate: %v", res.Err)
	}
	data, _, _ := tree.GetData("/a")
	if string(data) != "fresh" {
		t.Fatalf("/a = %q", data)
	}

	// A parent deleted in-txn must reject a child create.
	res = tree.Apply(&Txn{Zxid: 4, Type: TxnMulti, Subs: []Txn{
		{Type: TxnDelete, Path: "/a", Version: -1},
		{Type: TxnCreate, Path: "/a/child"},
	}})
	if res.Err != wire.ErrNoNode {
		t.Fatalf("create under in-txn-deleted parent: %v", res.Err)
	}
	if _, err := tree.Exists("/a"); err != nil {
		t.Fatal("aborted multi deleted /a")
	}

	// NotEmpty must account for children created in the same txn.
	res = tree.Apply(&Txn{Zxid: 5, Type: TxnMulti, Subs: []Txn{
		{Type: TxnCreate, Path: "/a/kid"},
		{Type: TxnDelete, Path: "/a", Version: -1},
	}})
	if res.Err != wire.ErrNotEmpty {
		t.Fatalf("delete of in-txn parent with child: %v", res.Err)
	}
}

func TestMultiEphemeralBookkeeping(t *testing.T) {
	tree := New()
	res := tree.Apply(&Txn{Zxid: 1, Type: TxnMulti, Session: 42, Subs: []Txn{
		{Type: TxnCreate, Path: "/e1", Flags: wire.FlagEphemeral, Session: 42},
		{Type: TxnCreate, Path: "/e2", Flags: wire.FlagEphemeral, Session: 42},
	}})
	if res.Err != wire.ErrOK {
		t.Fatal(res.Err)
	}
	deleted := tree.KillSession(42, 2)
	if len(deleted) != 2 {
		t.Fatalf("session kill removed %v", deleted)
	}
}

// TestMultiWatchDispatch: watches fire only when the multi commits,
// never for aborted sub-ops, and dispatch happens outside the locks
// (reentrant watcher safe).
func TestMultiWatchDispatch(t *testing.T) {
	tree := New()
	applyOK(t, tree, Txn{Zxid: 1, Type: TxnCreate, Path: "/w", Data: []byte("x")})

	var events []wire.WatcherEvent
	reentrant := FuncWatcher(func(ev wire.WatcherEvent) {
		events = append(events, ev)
		// Reentrant: a watcher that reads the tree during dispatch
		// deadlocks unless dispatch happens outside all shard locks.
		_, _ = tree.Exists("/w")
	})
	tree.Watches().Add("/w", wire.WatchData, reentrant)

	// Aborted multi: no watch fires.
	tree.Apply(&Txn{Zxid: 2, Type: TxnMulti, Subs: []Txn{
		{Type: TxnSetData, Path: "/w", Data: []byte("y"), Version: -1},
		{Type: TxnCheck, Path: "/missing", Version: -1},
	}})
	if len(events) != 0 {
		t.Fatalf("aborted multi fired watches: %v", events)
	}

	// Committed multi: the data watch fires exactly once.
	res := tree.Apply(&Txn{Zxid: 3, Type: TxnMulti, Subs: []Txn{
		{Type: TxnSetData, Path: "/w", Data: []byte("z"), Version: -1},
	}})
	if res.Err != wire.ErrOK {
		t.Fatal(res.Err)
	}
	if len(events) != 1 || events[0].Type != wire.EventNodeDataChanged {
		t.Fatalf("events = %v", events)
	}
}

// TestMultiConcurrentWithSingles hammers multis against standalone
// ops on overlapping and disjoint shards: the targeted shard locking
// must keep every multi atomic (the Check+Set pair never observes a
// torn state) while disjoint traffic proceeds. Run with -race.
func TestMultiConcurrentWithSingles(t *testing.T) {
	tree := New()
	applyOK(t, tree, Txn{Zxid: 1, Type: TxnCreate, Path: "/cas", Data: []byte("0")})
	applyOK(t, tree, Txn{Zxid: 2, Type: TxnCreate, Path: "/other", Data: []byte("x")})

	var zxid atomic.Int64
	zxid.Store(10)
	var wg sync.WaitGroup
	var casWins atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, stat, err := tree.GetData("/cas")
				if err != nil {
					t.Error(err)
					return
				}
				res := tree.Apply(&Txn{Zxid: zxid.Add(1), Type: TxnMulti, Subs: []Txn{
					{Type: TxnCheck, Path: "/cas", Version: stat.Version},
					{Type: TxnSetData, Path: "/cas", Data: []byte("v"), Version: stat.Version},
				}})
				switch res.Err {
				case wire.ErrOK:
					casWins.Add(1)
				case wire.ErrBadVersion:
					// Lost the race to another CAS: the Check and the Set
					// must agree (a torn multi would surface as Check OK
					// but Set BADVERSION).
					if res.Subs[0].Err == wire.ErrOK && res.Subs[1].Err == wire.ErrBadVersion {
						t.Errorf("torn multi: check passed but set failed: %+v", res.Subs)
						return
					}
				default:
					t.Errorf("cas multi: %v", res.Err)
					return
				}
			}
		}()
	}
	// Disjoint single-op traffic on other shards, concurrently.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := tree.SetData("/other", []byte{byte(i)}, -1, zxid.Add(1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if casWins.Load() == 0 {
		t.Fatal("no CAS ever succeeded")
	}
	// Final version equals the number of successful CAS commits.
	_, stat, err := tree.GetData("/cas")
	if err != nil || int64(stat.Version) != casWins.Load() {
		t.Fatalf("version = %d, cas wins = %d, %v", stat.Version, casWins.Load(), err)
	}
}

func TestMultiTxnSerializationRoundTrip(t *testing.T) {
	txn := Txn{Zxid: 9, Type: TxnMulti, Session: 5, Subs: []Txn{
		{Type: TxnCheck, Path: "/a", Version: 3},
		{Type: TxnCreate, Path: "/b", Data: []byte("x"), Flags: wire.FlagEphemeral, Session: 5},
		{Type: TxnError, Err: wire.ErrMarshallingError},
	}}
	buf := wire.Marshal(&txn)
	var got Txn
	if err := wire.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Subs) != 3 || got.Subs[0].Version != 3 || string(got.Subs[1].Data) != "x" ||
		got.Subs[2].Err != wire.ErrMarshallingError {
		t.Fatalf("round trip = %+v", got)
	}
}

// TestMultiTxnDecodeRejectsNesting: sub-transactions are structurally
// flat; a frame claiming subs on a non-multi or nested-multi txn fails.
func TestMultiTxnDecodeRejectsNesting(t *testing.T) {
	// Hand-craft: a TxnSetData claiming one sub.
	bad := Txn{Zxid: 1, Type: TxnSetData, Path: "/x"}
	e := wire.GetEncoder()
	bad.serializeBase(e)
	e.WriteInt32(1)
	(&Txn{Type: TxnCreate, Path: "/y"}).serializeBase(e)
	var got Txn
	err := wire.Unmarshal(e.Bytes(), &got)
	wire.PutEncoder(e)
	if err == nil {
		t.Fatal("subs on a non-multi txn decoded")
	}

	// A multi whose sub claims type TxnMulti is rejected.
	e = wire.GetEncoder()
	(&Txn{Zxid: 1, Type: TxnMulti}).serializeBase(e)
	e.WriteInt32(1)
	(&Txn{Type: TxnMulti}).serializeBase(e)
	err = wire.Unmarshal(e.Bytes(), &got)
	wire.PutEncoder(e)
	if err == nil {
		t.Fatal("nested multi decoded")
	}

	// Sub count out of range.
	e = wire.GetEncoder()
	(&Txn{Zxid: 1, Type: TxnMulti}).serializeBase(e)
	e.WriteInt32(MaxMultiSubs + 1)
	err = wire.Unmarshal(e.Bytes(), &got)
	wire.PutEncoder(e)
	if err == nil {
		t.Fatal("oversized sub count decoded")
	}
}
