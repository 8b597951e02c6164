package ztree

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"securekeeper/internal/wire"
)

func wantCode(t *testing.T, err error, code wire.ErrCode) {
	t.Helper()
	var pe *wire.ProtocolError
	if !errors.As(err, &pe) || pe.Code != code {
		t.Fatalf("error = %v, want code %v", err, code)
	}
}

func TestValidatePath(t *testing.T) {
	valid := []string{"/", "/a", "/a/b", "/a-b_c.d/e"}
	for _, p := range valid {
		if err := ValidatePath(p); err != nil {
			t.Errorf("ValidatePath(%q) = %v", p, err)
		}
	}
	invalid := []string{"", "a", "a/b", "/a/", "//", "/a//b", "/a/./b", "/a/../b"}
	for _, p := range invalid {
		if err := ValidatePath(p); err == nil {
			t.Errorf("ValidatePath(%q) = nil, want error", p)
		}
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct{ path, parent, name string }{
		{"/a", "/", "a"},
		{"/a/b", "/a", "b"},
		{"/a/b/c", "/a/b", "c"},
	}
	for _, tc := range cases {
		parent, name := SplitPath(tc.path)
		if parent != tc.parent || name != tc.name {
			t.Errorf("SplitPath(%q) = (%q, %q), want (%q, %q)", tc.path, parent, name, tc.parent, tc.name)
		}
	}
}

func TestCreateGetSetDelete(t *testing.T) {
	tr := New()
	stat, err := tr.Create("/a", []byte("v1"), 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stat.Czxid != 10 || stat.DataLength != 2 || stat.Version != 0 {
		t.Fatalf("create stat = %+v", stat)
	}

	data, stat, err := tr.GetData("/a")
	if err != nil || !bytes.Equal(data, []byte("v1")) {
		t.Fatalf("GetData = %q, %v", data, err)
	}
	if stat.Mzxid != 10 {
		t.Fatalf("Mzxid = %d", stat.Mzxid)
	}

	stat, err = tr.SetData("/a", []byte("v2"), 0, 11)
	if err != nil || stat.Version != 1 || stat.Mzxid != 11 {
		t.Fatalf("SetData stat = %+v, %v", stat, err)
	}

	if err := tr.Delete("/a", -1, 12); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.GetData("/a"); err == nil {
		t.Fatal("GetData after delete should fail")
	}
}

func TestCreateErrors(t *testing.T) {
	tr := New()
	if _, err := tr.Create("/", nil, 0, 0, 1); err == nil {
		t.Fatal("creating root must fail")
	}
	if _, err := tr.Create("/missing/child", nil, 0, 0, 1); err == nil {
		t.Fatal("creating under missing parent must fail")
	} else {
		wantCode(t, err, wire.ErrNoNode)
	}
	if _, err := tr.Create("/a", nil, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	_, err := tr.Create("/a", nil, 0, 0, 2)
	wantCode(t, err, wire.ErrNodeExists)
}

func TestEphemeralNoChildren(t *testing.T) {
	tr := New()
	if _, err := tr.Create("/e", nil, wire.FlagEphemeral, 77, 1); err != nil {
		t.Fatal(err)
	}
	_, err := tr.Create("/e/child", nil, 0, 0, 2)
	wantCode(t, err, wire.ErrNoChildrenForEphemerals)
}

func TestVersionChecks(t *testing.T) {
	tr := New()
	if _, err := tr.Create("/a", []byte("x"), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	_, err := tr.SetData("/a", []byte("y"), 5, 2)
	wantCode(t, err, wire.ErrBadVersion)
	err = tr.Delete("/a", 5, 3)
	wantCode(t, err, wire.ErrBadVersion)
	if _, err := tr.SetData("/a", []byte("y"), 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete("/a", 1, 5); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNonEmpty(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/a", nil)
	mustCreate(t, tr, "/a/b", nil)
	err := tr.Delete("/a", -1, 9)
	wantCode(t, err, wire.ErrNotEmpty)
	if err := tr.Delete("/a/b", -1, 10); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete("/a", -1, 11); err != nil {
		t.Fatal(err)
	}
}

func mustCreate(t *testing.T, tr *Tree, path string, data []byte) {
	t.Helper()
	if _, err := tr.Create(path, data, 0, 0, 1); err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
}

func TestGetChildrenSorted(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/p", nil)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		mustCreate(t, tr, "/p/"+name, nil)
	}
	kids, err := tr.GetChildren("/p")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if kids[i] != want[i] {
			t.Fatalf("children = %v, want %v", kids, want)
		}
	}
	stat, _ := tr.Exists("/p")
	if stat.NumChildren != 3 || stat.Cversion != 3 {
		t.Fatalf("parent stat = %+v", stat)
	}
}

func TestNextSequenceTracksChildChanges(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/p", nil)
	seq, err := tr.NextSequence("/p")
	if err != nil || seq != 0 {
		t.Fatalf("NextSequence = %d, %v", seq, err)
	}
	mustCreate(t, tr, "/p/a", nil)
	if seq, _ = tr.NextSequence("/p"); seq != 1 {
		t.Fatalf("NextSequence after create = %d", seq)
	}
	if err := tr.Delete("/p/a", -1, 5); err != nil {
		t.Fatal(err)
	}
	// Deletes also bump the child version, as in ZooKeeper.
	if seq, _ = tr.NextSequence("/p"); seq != 2 {
		t.Fatalf("NextSequence after delete = %d", seq)
	}
	if _, err := tr.NextSequence("/missing"); err == nil {
		t.Fatal("NextSequence on missing parent must fail")
	}
}

func TestKillSession(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/app", nil)
	if _, err := tr.Create("/app/e1", nil, wire.FlagEphemeral, 42, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create("/app/e2", nil, wire.FlagEphemeral, 42, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create("/app/keep", nil, wire.FlagEphemeral, 43, 3); err != nil {
		t.Fatal(err)
	}
	deleted := tr.KillSession(42, 9)
	if len(deleted) != 2 {
		t.Fatalf("deleted = %v", deleted)
	}
	if _, err := tr.Exists("/app/keep"); err != nil {
		t.Fatal("other session's node must survive")
	}
	if _, err := tr.Exists("/app/e1"); err == nil {
		t.Fatal("session 42's node must be gone")
	}
}

func TestSnapshotRestoreAndDigest(t *testing.T) {
	a := New()
	mustCreate(t, a, "/x", []byte("1"))
	mustCreate(t, a, "/x/y", []byte("2"))
	if _, err := a.Create("/e", []byte("3"), wire.FlagEphemeral, 9, 4); err != nil {
		t.Fatal(err)
	}

	snap := a.Snapshot()
	b := New()
	b.Restore(snap)

	if a.Digest() != b.Digest() {
		t.Fatal("digests differ after restore")
	}
	if b.Count() != a.Count() {
		t.Fatalf("counts differ: %d vs %d", b.Count(), a.Count())
	}
	kids, err := b.GetChildren("/x")
	if err != nil || len(kids) != 1 || kids[0] != "y" {
		t.Fatalf("children after restore = %v, %v", kids, err)
	}
	// Ephemeral ownership must survive restore.
	deleted := b.KillSession(9, 10)
	if len(deleted) != 1 || deleted[0] != "/e" {
		t.Fatalf("ephemeral after restore = %v", deleted)
	}
}

func TestSnapshotSerialization(t *testing.T) {
	a := New()
	mustCreate(t, a, "/s", []byte("data"))
	snap := a.Snapshot()
	buf := wire.Marshal(snap)
	var out Snapshot
	if err := wire.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Nodes) != len(snap.Nodes) {
		t.Fatalf("nodes = %d, want %d", len(out.Nodes), len(snap.Nodes))
	}
	b := New()
	b.Restore(&out)
	if a.Digest() != b.Digest() {
		t.Fatal("digest mismatch after wire round trip")
	}
}

func TestDigestDetectsDifferences(t *testing.T) {
	a, b := New(), New()
	mustCreate(t, a, "/a", []byte("x"))
	mustCreate(t, b, "/a", []byte("y"))
	if a.Digest() == b.Digest() {
		t.Fatal("different data must yield different digests")
	}
}

func TestApproxBytesGrows(t *testing.T) {
	tr := New()
	before := tr.ApproxBytes()
	mustCreate(t, tr, "/big", make([]byte, 4096))
	if tr.ApproxBytes() <= before {
		t.Fatal("ApproxBytes must grow with data")
	}
}

func TestDataIsolation(t *testing.T) {
	tr := New()
	payload := []byte("mutable")
	mustCreate(t, tr, "/iso", payload)
	payload[0] = 'X'
	got, _, err := tr.GetData("/iso")
	if err != nil || got[0] != 'm' {
		t.Fatal("tree must copy payloads on write")
	}
	got[1] = 'Z'
	again, _, _ := tr.GetData("/iso")
	if again[1] != 'u' {
		t.Fatal("tree must copy payloads on read")
	}
}

func TestApplyTxns(t *testing.T) {
	tr := New()
	res := tr.Apply(&Txn{Zxid: 1, Type: TxnCreate, Path: "/t", Data: []byte("a")})
	if res.Err != wire.ErrOK || res.Path != "/t" {
		t.Fatalf("create apply = %+v", res)
	}
	res = tr.Apply(&Txn{Zxid: 2, Type: TxnSetData, Path: "/t", Data: []byte("b"), Version: -1})
	if res.Err != wire.ErrOK || res.Stat.Version != 1 {
		t.Fatalf("set apply = %+v", res)
	}
	res = tr.Apply(&Txn{Zxid: 3, Type: TxnSetData, Path: "/missing", Version: -1})
	if res.Err != wire.ErrNoNode {
		t.Fatalf("set missing = %v", res.Err)
	}
	res = tr.Apply(&Txn{Zxid: 4, Type: TxnSync, Path: "/t"})
	if res.Err != wire.ErrOK {
		t.Fatalf("sync apply = %v", res.Err)
	}
	res = tr.Apply(&Txn{Zxid: 5, Type: TxnError, Err: wire.ErrBadArguments})
	if res.Err != wire.ErrBadArguments {
		t.Fatalf("error txn = %v", res.Err)
	}
	res = tr.Apply(&Txn{Zxid: 6, Type: TxnDelete, Path: "/t", Version: -1})
	if res.Err != wire.ErrOK {
		t.Fatalf("delete apply = %v", res.Err)
	}
	res = tr.Apply(&Txn{Zxid: 7, Type: TxnType(99)})
	if res.Err != wire.ErrUnimplemented {
		t.Fatalf("unknown txn = %v", res.Err)
	}
}

// TestApplyDeterministic: two trees fed the same transactions end in
// the same state — same Digest (the checksum replicas compare), same
// sorted Snapshot — although each places its nodes by a shard hash
// seeded for that tree alone.
func TestApplyDeterministic(t *testing.T) {
	txns := []Txn{
		{Zxid: 1, Type: TxnCreate, Path: "/d"},
		{Zxid: 2, Type: TxnCreate, Path: "/d/1", Data: []byte("one")},
		{Zxid: 3, Type: TxnSetData, Path: "/d/1", Data: []byte("uno"), Version: 0},
		{Zxid: 4, Type: TxnCreate, Path: "/d/2", Data: []byte("two"), Flags: wire.FlagEphemeral, Session: 5},
		{Zxid: 5, Type: TxnDelete, Path: "/d/1", Version: -1},
		{Zxid: 6, Type: TxnCloseSession, Session: 5},
	}
	var paths []string
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("/d/k%03d", i)
		paths = append(paths, p)
		txns = append(txns, Txn{Zxid: int64(len(txns) + 1), Type: TxnCreate, Path: p, Data: []byte(p)})
		if i%3 == 0 {
			txns = append(txns, Txn{Zxid: int64(len(txns) + 1), Type: TxnSetData, Path: p, Data: []byte("set"), Version: -1})
		}
		if i%7 == 0 {
			txns = append(txns, Txn{Zxid: int64(len(txns) + 1), Type: TxnDelete, Path: p, Version: -1})
		}
	}
	a, b := New(), New()
	for i := range txns {
		a.Apply(&txns[i])
	}
	for i := range txns {
		b.Apply(&txns[i])
	}
	if a.Digest() != b.Digest() {
		t.Fatal("same txn sequence must produce identical trees")
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("same txn sequence must produce identical snapshots")
	}
	moved := 0
	for _, p := range paths {
		if a.shardIndex(p) != b.shardIndex(p) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("two trees place all %d paths in the same shards: the shard hash is not seeded per tree", len(paths))
	}
}

func TestTxnSerialization(t *testing.T) {
	in := Txn{
		Zxid: 77, Type: TxnCreate, Path: "/p", Data: []byte("d"),
		Flags: wire.FlagSequential, Version: 3, Session: 42, Err: wire.ErrNoNode,
	}
	var out Txn
	if err := wire.Unmarshal(wire.Marshal(&in), &out); err != nil {
		t.Fatal(err)
	}
	if in.Zxid != out.Zxid || in.Type != out.Type || in.Path != out.Path ||
		!bytes.Equal(in.Data, out.Data) || in.Flags != out.Flags ||
		in.Version != out.Version || in.Session != out.Session || in.Err != out.Err {
		t.Fatalf("round trip: %+v vs %+v", in, out)
	}
	if in.String() == "" {
		t.Fatal("empty Txn string")
	}
}

func TestWithClock(t *testing.T) {
	now := int64(1000)
	tr := New(WithClock(func() int64 { return now }))
	stat, err := tr.Create("/c", nil, 0, 0, 1)
	if err != nil || stat.Ctime != 1000 {
		t.Fatalf("Ctime = %d, %v", stat.Ctime, err)
	}
	now = 2000
	stat, err = tr.SetData("/c", []byte("x"), -1, 2)
	if err != nil || stat.Mtime != 2000 || stat.Ctime != 1000 {
		t.Fatalf("stat = %+v, %v", stat, err)
	}
}

func TestManyNodes(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/n", nil)
	const n = 1000
	for i := 0; i < n; i++ {
		mustCreate(t, tr, fmt.Sprintf("/n/c%04d", i), []byte("x"))
	}
	kids, err := tr.GetChildren("/n")
	if err != nil || len(kids) != n {
		t.Fatalf("children = %d, %v", len(kids), err)
	}
	if tr.Count() != n+2 {
		t.Fatalf("count = %d", tr.Count())
	}
}
