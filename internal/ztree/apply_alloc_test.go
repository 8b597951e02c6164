package ztree

import (
	"fmt"
	"testing"

	"securekeeper/internal/wire"
)

// applyFixture is a tree under /a holding keys, plus the paths of
// spares more children that do not exist yet.
func applyFixture(tb testing.TB, keys, spares int) (tr *Tree, held, fresh []string) {
	tb.Helper()
	tr = New()
	tr.Apply(&Txn{Zxid: 1, Type: TxnCreate, Path: "/a"})
	held, fresh = make([]string, keys), make([]string, spares)
	for i := range held {
		held[i] = fmt.Sprintf("/a/held-%06d", i)
		if res := tr.Apply(&Txn{Zxid: int64(2 + i), Type: TxnCreate, Path: held[i], Data: []byte("v")}); res.Err != wire.ErrOK {
			tb.Fatalf("create %s: %v", held[i], res.Err)
		}
	}
	for i := range fresh {
		fresh[i] = fmt.Sprintf("/a/fresh-%06d", i)
	}
	return tr, held, fresh
}

// TestApplyAllocations pins the replicated write path's rule inside the
// tree: applying a committed transaction allocates nothing but the node
// a create inserts (and, amortized, its slots in the shard's and the
// parent's maps) and a multi's slice of per-op results. Every replica
// pays Apply once per write.
func TestApplyAllocations(t *testing.T) {
	const runs = 200
	tr, held, fresh := applyFixture(t, runs+1, runs+1)
	payload := make([]byte, 1024)
	zxid := int64(1 << 20)
	cas := casSubs(held, payload)
	cases := []struct {
		name string
		max  float64
		txn  func(i int) Txn
	}{
		{"set", 0, func(i int) Txn { return Txn{Type: TxnSetData, Path: held[i], Data: payload, Version: -1} }},
		{"set-badversion", 0, func(i int) Txn { return Txn{Type: TxnSetData, Path: held[i], Data: payload, Version: 99} }},
		{"check", 0, func(i int) Txn { return Txn{Type: TxnCheck, Path: held[i], Version: -1} }},
		{"sync", 0, func(i int) Txn { return Txn{Type: TxnSync, Path: held[i]} }},
		{"error", 0, func(i int) Txn { return Txn{Type: TxnError, Err: wire.ErrBadArguments} }},
		{"create", 2, func(i int) Txn { return Txn{Type: TxnCreate, Path: fresh[i], Data: payload} }},
		{"create-exists", 0, func(i int) Txn { return Txn{Type: TxnCreate, Path: held[i], Data: payload} }},
		{"delete-missing", 0, func(i int) Txn { return Txn{Type: TxnDelete, Path: "/a/never-there", Version: -1} }},
		{"cas", 1, func(i int) Txn { return Txn{Type: TxnMulti, Subs: cas[i]} }},
		{"delete", 0, func(i int) Txn { return Txn{Type: TxnDelete, Path: held[i], Version: -1} }},
	}
	for _, tc := range cases {
		i := 0
		var failed wire.ErrCode
		got := testing.AllocsPerRun(runs, func() {
			txn := tc.txn(i)
			i++
			zxid++
			txn.Zxid = zxid
			if res := tr.Apply(&txn); res.Err != wire.ErrOK {
				failed = res.Err
			}
		})
		if got > tc.max {
			t.Errorf("Apply %s: %v allocs per transaction, want at most %v", tc.name, got, tc.max)
		}
		switch tc.name {
		case "set", "check", "sync", "create", "cas", "delete":
			if failed != wire.ErrOK {
				t.Errorf("Apply %s failed: %v", tc.name, failed)
			}
		default:
			if failed == wire.ErrOK {
				t.Errorf("Apply %s: the error case succeeded", tc.name)
			}
		}
	}
}

// casSubs returns, per held key, the subs of a compare-and-set multi:
// a Check and a Set of the key. They are built up front so that an
// allocation count sees Apply alone.
func casSubs(held []string, payload []byte) [][]Txn {
	subs := make([][]Txn, len(held))
	for i, p := range held {
		subs[i] = []Txn{{Type: TxnCheck, Path: p, Version: -1}, {Type: TxnSetData, Path: p, Data: payload, Version: -1}}
	}
	return subs
}

// TestApplyAdoptsPayload: the tree keeps a committed transaction's own
// Data array — the transaction owns it and never writes to it again —
// while the public mutators still copy what an outside caller hands
// them.
func TestApplyAdoptsPayload(t *testing.T) {
	tr := New()
	created, set := []byte("created"), []byte("set")
	tr.Apply(&Txn{Zxid: 1, Type: TxnCreate, Path: "/n", Data: created})
	if got, _, _ := tr.GetDataRef("/n"); &got[0] != &created[0] {
		t.Error("Apply(create) copied the transaction's payload")
	}
	tr.Apply(&Txn{Zxid: 2, Type: TxnSetData, Path: "/n", Data: set, Version: -1})
	if got, _, _ := tr.GetDataRef("/n"); &got[0] != &set[0] {
		t.Error("Apply(set) copied the transaction's payload")
	}
	tr.Apply(&Txn{Zxid: 3, Type: TxnMulti, Subs: []Txn{
		{Type: TxnSetData, Path: "/n", Data: created, Version: -1},
		{Type: TxnCreate, Path: "/m", Data: set},
	}})
	if got, _, _ := tr.GetDataRef("/n"); &got[0] != &created[0] {
		t.Error("Apply(multi set) copied the transaction's payload")
	}
	if got, _, _ := tr.GetDataRef("/m"); &got[0] != &set[0] {
		t.Error("Apply(multi create) copied the transaction's payload")
	}

	mine := []byte("caller's")
	if _, err := tr.SetData("/n", mine, -1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create("/o", mine, 0, 0, 5); err != nil {
		t.Fatal(err)
	}
	copy(mine, "SCRIBBLE")
	for _, p := range []string{"/n", "/o"} {
		if got, _, _ := tr.GetDataRef(p); string(got) != "caller's" {
			t.Errorf("%s = %q: a public mutator kept the caller's array", p, got)
		}
	}
	// A snapshot is the holder's own copy either way.
	snap := tr.Snapshot()
	for i := range snap.Nodes {
		if n := &snap.Nodes[i]; n.Path == "/m" && &n.Data[0] == &set[0] {
			t.Error("Snapshot shares a stored payload")
		}
	}
}

// BenchmarkTreeApply is the bench-gate's view of TestApplyAllocations:
// allocs/op of applying a committed 1 KiB set, create and delete, and
// of a compare-and-set multi (a Check and a 1 KiB Set of one key).
func BenchmarkTreeApply(b *testing.B) {
	payload := make([]byte, 1024)
	b.Run("set", func(b *testing.B) {
		tr, held, _ := applyFixture(b, 1024, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Apply(&Txn{Zxid: int64(1<<20 + i), Type: TxnSetData, Path: held[i%len(held)], Data: payload, Version: -1})
		}
	})
	b.Run("create", func(b *testing.B) {
		tr, _, fresh := applyFixture(b, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Apply(&Txn{Zxid: int64(1<<20 + i), Type: TxnCreate, Path: fresh[i], Data: payload})
		}
	})
	b.Run("cas", func(b *testing.B) {
		tr, held, _ := applyFixture(b, 1024, 0)
		cas := casSubs(held, payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Apply(&Txn{Zxid: int64(1<<20 + i), Type: TxnMulti, Subs: cas[i%len(cas)]})
		}
	})
	b.Run("delete", func(b *testing.B) {
		tr, held, _ := applyFixture(b, b.N, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Apply(&Txn{Zxid: int64(1<<20 + i), Type: TxnDelete, Path: held[i], Version: -1})
		}
	})
}
