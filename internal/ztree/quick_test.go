package ztree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"securekeeper/internal/wire"
)

// model is a reference implementation of the tree: a flat map with the
// same semantics, against which random operation sequences are checked.
type model struct {
	nodes map[string][]byte
}

func newModel() *model {
	return &model{nodes: map[string][]byte{"/": nil}}
}

func (m *model) parentOf(path string) string {
	p, _ := SplitPath(path)
	return p
}

func (m *model) hasChildren(path string) bool {
	prefix := path + "/"
	if path == "/" {
		prefix = "/"
	}
	for p := range m.nodes {
		if p != path && strings.HasPrefix(p, prefix) && !strings.Contains(p[len(prefix):], "/") {
			return true
		}
	}
	return false
}

func (m *model) create(path string, data []byte) error {
	if _, ok := m.nodes[path]; ok {
		return wire.ErrNodeExists.Error()
	}
	if _, ok := m.nodes[m.parentOf(path)]; !ok {
		return wire.ErrNoNode.Error()
	}
	m.nodes[path] = append([]byte(nil), data...)
	return nil
}

func (m *model) set(path string, data []byte) error {
	if _, ok := m.nodes[path]; !ok {
		return wire.ErrNoNode.Error()
	}
	m.nodes[path] = append([]byte(nil), data...)
	return nil
}

func (m *model) del(path string) error {
	if _, ok := m.nodes[path]; !ok {
		return wire.ErrNoNode.Error()
	}
	if m.hasChildren(path) {
		return wire.ErrNotEmpty.Error()
	}
	delete(m.nodes, path)
	return nil
}

func (m *model) children(path string) ([]string, error) {
	if _, ok := m.nodes[path]; !ok {
		return nil, wire.ErrNoNode.Error()
	}
	prefix := path + "/"
	if path == "/" {
		prefix = "/"
	}
	var out []string
	for p := range m.nodes {
		if p != path && strings.HasPrefix(p, prefix) && !strings.Contains(p[len(prefix):], "/") {
			out = append(out, p[len(prefix):])
		}
	}
	sort.Strings(out)
	return out, nil
}

func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Error() == b.Error()
}

// TestQuickTreeVsModel runs random operation sequences against the tree
// and the reference model and demands identical observable behaviour.
func TestQuickTreeVsModel(t *testing.T) {
	paths := []string{"/a", "/b", "/a/x", "/a/y", "/a/x/deep", "/b/z"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		m := newModel()
		for i := 0; i < 200; i++ {
			path := paths[rng.Intn(len(paths))]
			data := []byte(fmt.Sprintf("d%d", rng.Intn(10)))
			switch rng.Intn(4) {
			case 0:
				_, errT := tr.Create(path, data, 0, 0, int64(i))
				if !sameErr(errT, m.create(path, data)) {
					t.Logf("create %s diverged", path)
					return false
				}
			case 1:
				_, errT := tr.SetData(path, data, -1, int64(i))
				if !sameErr(errT, m.set(path, data)) {
					t.Logf("set %s diverged", path)
					return false
				}
			case 2:
				errT := tr.Delete(path, -1, int64(i))
				if !sameErr(errT, m.del(path)) {
					t.Logf("delete %s diverged", path)
					return false
				}
			case 3:
				gotT, _, errT := tr.GetData(path)
				want, ok := m.nodes[path]
				if ok != (errT == nil) {
					t.Logf("get %s diverged: model ok=%v tree err=%v", path, ok, errT)
					return false
				}
				if ok && !bytes.Equal(gotT, want) {
					t.Logf("get %s data diverged", path)
					return false
				}
			}
		}
		// Final structural comparison.
		for _, p := range append(paths, "/") {
			kidsT, errT := tr.GetChildren(p, nil)
			kidsM, errM := m.children(p)
			if !sameErr(errT, errM) {
				t.Logf("children %s err diverged", p)
				return false
			}
			if len(kidsT) != len(kidsM) {
				t.Logf("children %s count diverged: %v vs %v", p, kidsT, kidsM)
				return false
			}
			for i := range kidsT {
				if kidsT[i] != kidsM[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: applying the same transaction log to two trees always
// converges (the invariant replication depends on).
func TestQuickApplyConvergence(t *testing.T) {
	paths := []string{"/a", "/b", "/a/x", "/c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		txns := make([]Txn, 0, 100)
		for i := 0; i < 100; i++ {
			txn := Txn{Zxid: int64(i + 1), Path: paths[rng.Intn(len(paths))]}
			switch rng.Intn(3) {
			case 0:
				txn.Type = TxnCreate
				txn.Data = []byte{byte(rng.Intn(256))}
			case 1:
				txn.Type = TxnSetData
				txn.Version = -1
				txn.Data = []byte{byte(rng.Intn(256))}
			case 2:
				txn.Type = TxnDelete
				txn.Version = -1
			}
			txns = append(txns, txn)
		}
		a, b := New(), New()
		for i := range txns {
			a.Apply(&txns[i])
		}
		for i := range txns {
			b.Apply(&txns[i])
		}
		return a.Digest() == b.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/restore preserves the digest for arbitrary trees.
func TestQuickSnapshotPreservesDigest(t *testing.T) {
	paths := []string{"/a", "/b", "/a/x", "/a/y"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		for i := 0; i < 50; i++ {
			path := paths[rng.Intn(len(paths))]
			switch rng.Intn(3) {
			case 0:
				_, _ = tr.Create(path, []byte{byte(i)}, 0, 0, int64(i))
			case 1:
				_, _ = tr.SetData(path, []byte{byte(i)}, -1, int64(i))
			case 2:
				_ = tr.Delete(path, -1, int64(i))
			}
		}
		restored := New()
		restored.Restore(tr.Snapshot())
		return restored.Digest() == tr.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
