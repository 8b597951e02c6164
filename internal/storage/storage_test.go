package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"securekeeper/internal/obs"
	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

func sampleTxns(n int) []ztree.Txn {
	txns := make([]ztree.Txn, 0, n)
	for i := 0; i < n; i++ {
		txns = append(txns, ztree.Txn{
			Zxid: int64(i + 1),
			Type: ztree.TxnCreate,
			Path: "/n" + string(rune('a'+i%26)) + string(rune('0'+i%10)),
			Data: []byte{byte(i)},
		})
	}
	return txns
}

// openLog recovers dir on the real file system, discarding what it
// restores, and returns the log open for appending.
func openLog(t *testing.T, dir string, segmentBytes int64) *Log {
	t.Helper()
	l, _, err := OpenLog(osFS{}, dir, segmentBytes, func(*ztree.Snapshot) {}, func(*ztree.Txn) {})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// appendAll appends txns to l and closes it.
func appendAll(t *testing.T, l *Log, txns []ztree.Txn) {
	t.Helper()
	for i := range txns {
		if err := l.Append(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// replay recovers dir and returns the zxids of the log records it
// replays above the newest snapshot.
func replay(dir string) ([]int64, error) {
	var zxids []int64
	l, _, err := OpenLog(osFS{}, dir, 0, func(*ztree.Snapshot) {}, func(txn *ztree.Txn) { zxids = append(zxids, txn.Zxid) })
	if err != nil {
		return nil, err
	}
	return zxids, l.Close()
}

// mustReplay is replay that fails the test on an error.
func mustReplay(t *testing.T, dir string) []int64 {
	t.Helper()
	zxids, err := replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	return zxids
}

// listed returns the zxids of dir's snapshots and segments.
func listed(t *testing.T, dir string) (snaps, segs []int64) {
	t.Helper()
	snaps, segs, err := (&Log{fs: osFS{}, dir: dir}).list()
	if err != nil {
		t.Fatal(err)
	}
	return snaps, segs
}

// segmentPaths lists the log segment files in replay order.
func segmentPaths(t *testing.T, dir string) []string {
	t.Helper()
	_, segs := listed(t, dir)
	paths := make([]string, len(segs))
	for i, z := range segs {
		paths[i] = filepath.Join(dir, segmentName(z))
	}
	return paths
}

// record hands txn to p and waits for the fsync covering it.
func record(p *Persister, txn *ztree.Txn) error {
	ch := make(chan error, 1)
	p.Record(txn, func(err error) { ch <- err })
	return <-ch
}

// snapshotAt publishes tree as a periodic snapshot at zxid in dir.
func snapshotAt(t *testing.T, dir string, tree *ztree.Tree, zxid int64) {
	t.Helper()
	l := openLog(t, dir, 0)
	if err := l.Snapshot(tree.Snapshot(), zxid, false); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// restoreLatest recovers dir into a fresh tree.
func restoreLatest(dir string) (*ztree.Tree, int64, error) {
	tree := ztree.New()
	l, zxid, err := OpenLog(osFS{}, dir, 0, tree.Restore, func(txn *ztree.Txn) { tree.Apply(txn) })
	if err != nil {
		return nil, 0, err
	}
	return tree, zxid, l.Close()
}

func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	txns := sampleTxns(20)
	appendAll(t, openLog(t, dir, 0), txns)

	var got []ztree.Txn
	l, _, err := OpenLog(osFS{}, dir, 0, func(*ztree.Snapshot) {}, func(txn *ztree.Txn) { got = append(got, *txn) })
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	if len(got) != len(txns) {
		t.Fatalf("replayed %d, want %d", len(got), len(txns))
	}
	for i := range got {
		if got[i].Zxid != txns[i].Zxid || got[i].Path != txns[i].Path {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], txns[i])
		}
	}
}

func TestReplayEmptyAndMissing(t *testing.T) {
	// Missing directory: created, no records.
	dir := filepath.Join(t.TempDir(), "missing")
	if zxids := mustReplay(t, dir); len(zxids) != 0 {
		t.Fatalf("missing log: %d records", len(zxids))
	}
	// Opened-but-never-appended log: no segments exist at all.
	_ = openLog(t, dir, 0).Close()
	if zxids := mustReplay(t, dir); len(zxids) != 0 {
		t.Fatalf("empty log: %d records", len(zxids))
	}
	if _, segs := listed(t, dir); len(segs) != 0 {
		t.Fatalf("segments = %v, want none", segs)
	}
}

func TestSegmentRotationBoundaries(t *testing.T) {
	dir := t.TempDir()
	// Threshold smaller than a single record: every append lands in its
	// own segment (rotation is checked before writing, so a segment
	// always takes at least one record — records are never split).
	appendAll(t, openLog(t, dir, 1), sampleTxns(7))
	paths := segmentPaths(t, dir)
	if len(paths) != 7 {
		t.Fatalf("segments = %d, want 7 (one per record at threshold 1)", len(paths))
	}
	// Segment names carry the first zxid they contain.
	if want := filepath.Join(dir, segmentName(1)); paths[0] != want {
		t.Fatalf("first segment %q, want %q", paths[0], want)
	}
	if want := filepath.Join(dir, segmentName(7)); paths[6] != want {
		t.Fatalf("last segment %q, want %q", paths[6], want)
	}
}

func TestMultiSegmentReplayOrder(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, openLog(t, dir, 64), sampleTxns(50))
	if got := len(segmentPaths(t, dir)); got < 3 {
		t.Fatalf("expected several segments, got %d", got)
	}
	zxids := mustReplay(t, dir)
	if len(zxids) != 50 {
		t.Fatalf("replayed %d, want 50", len(zxids))
	}
	for i, z := range zxids {
		if z != int64(i+1) {
			t.Fatalf("replay out of order at %d: zxid %d", i, z)
		}
	}
}

// truncateTail cuts n bytes off the end of path.
func truncateTail(t *testing.T, path string, n int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func TestReplayTornTailIsIgnored(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, openLog(t, dir, 0), sampleTxns(5))
	// Simulate a crash mid-write: truncate inside the last record of
	// the final segment.
	paths := segmentPaths(t, dir)
	truncateTail(t, paths[len(paths)-1], 3)
	if zxids := mustReplay(t, dir); len(zxids) != 4 {
		t.Fatalf("replayed %d, want 4 (torn tail dropped)", len(zxids))
	}
}

func TestOpenLogRepairsTornTailBeforeAppending(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, openLog(t, dir, 0), sampleTxns(5))
	paths := segmentPaths(t, dir)
	truncateTail(t, paths[len(paths)-1], 3)

	// Reopen: the torn record must be truncated away so the next append
	// lands right after the last valid record — otherwise the garbage
	// in between would turn into fatal mid-log corruption on replay.
	appendAll(t, openLog(t, dir, 0), []ztree.Txn{{Zxid: 6, Type: ztree.TxnCreate, Path: "/after", Data: []byte("x")}})
	zxids := mustReplay(t, dir)
	want := []int64{1, 2, 3, 4, 6} // 5 was torn, never acknowledged
	if fmt.Sprint(zxids) != fmt.Sprint(want) {
		t.Fatalf("zxids = %v, want %v", zxids, want)
	}
}

func TestReplayMidCorruptionReported(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, openLog(t, dir, 0), sampleTxns(5))

	// Flip a byte inside the SECOND record's payload: a bad record with
	// more data after it cannot be a torn write.
	paths := segmentPaths(t, dir)
	path := paths[len(paths)-1]
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := int(binary.BigEndian.Uint32(buf))
	buf[recordHeader+firstLen+recordHeader+2] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replay(dir); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord", err)
	}
}

func TestTornRecordInSealedSegmentIsError(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, openLog(t, dir, 1), sampleTxns(3)) // one record per segment
	paths := segmentPaths(t, dir)
	if len(paths) != 3 {
		t.Fatalf("segments = %d, want 3", len(paths))
	}
	// Truncate the FIRST (sealed) segment: it was fsynced before its
	// successor was created, so a short read there is real data loss,
	// not a torn write.
	truncateTail(t, paths[0], 3)
	if _, err := replay(dir); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord for sealed-segment damage", err)
	}
}

// TestPurgeSegments: a snapshot removes the segments every record of
// which the oldest retained snapshot covers, and never the last one.
func TestPurgeSegments(t *testing.T) {
	dir := t.TempDir()
	txns := sampleTxns(5)
	l := openLog(t, dir, 1)
	for i := range txns {
		if err := l.Append(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot covers zxid <= 3: segments holding records 1..3 go.
	if err := l.Snapshot(ztree.New().Snapshot(), 3, false); err != nil {
		t.Fatal(err)
	}
	if _, segs := listed(t, dir); fmt.Sprint(segs) != "[4 5]" {
		t.Fatalf("segments after a snapshot at 3 start at %v, want [4 5]", segs)
	}
	zxids, err := replay(dir)
	if err != nil || fmt.Sprint(zxids) != "[4 5]" {
		t.Fatalf("surviving zxids = %v (%v), want [4 5]", zxids, err)
	}
	// Once three snapshots above everything are retained, the final
	// segment still stays: it is the last of the log.
	for z := int64(100); z < 103; z++ {
		if err := l.Snapshot(ztree.New().Snapshot(), z, false); err != nil {
			t.Fatal(err)
		}
	}
	if snaps, segs := listed(t, dir); fmt.Sprint(snaps) != "[100 101 102]" || fmt.Sprint(segs) != "[5]" {
		t.Fatalf("snapshots %v, segments %v; want [100 101 102] and the final segment [5]", snaps, segs)
	}
	_ = l.Close()
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tree := ztree.New()
	for _, txn := range sampleTxns(10) {
		tree.Apply(&txn)
	}
	snapshotAt(t, dir, tree, 10)
	restored, zxid, err := restoreLatest(dir)
	if err != nil || zxid != 10 {
		t.Fatalf("load = zxid %d, %v", zxid, err)
	}
	if restored.Digest() != tree.Digest() {
		t.Fatal("digest mismatch")
	}
}

func TestLoadLatestPicksNewest(t *testing.T) {
	dir := t.TempDir()
	old := ztree.New()
	old.Apply(&ztree.Txn{Zxid: 1, Type: ztree.TxnCreate, Path: "/old"})
	snapshotAt(t, dir, old, 1)
	newer := ztree.New()
	newer.Apply(&ztree.Txn{Zxid: 2, Type: ztree.TxnCreate, Path: "/new"})
	snapshotAt(t, dir, newer, 2)
	restored, zxid, err := restoreLatest(dir)
	if err != nil || zxid != 2 {
		t.Fatalf("zxid = %d, %v", zxid, err)
	}
	if _, err := restored.Exists("/new", nil); err != nil {
		t.Fatal("newest snapshot not selected")
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	good := ztree.New()
	good.Apply(&ztree.Txn{Zxid: 1, Type: ztree.TxnCreate, Path: "/good"})
	snapshotAt(t, dir, good, 1)
	// A newer but corrupt snapshot.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(0xff)), []byte("garbage-too-short-or-bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	restored, zxid, err := restoreLatest(dir)
	if err != nil || zxid != 1 {
		t.Fatalf("fallback failed: zxid %d, %v", zxid, err)
	}
	if _, err := restored.Exists("/good", nil); err != nil {
		t.Fatal("fallback snapshot wrong")
	}
}

// TestAbandonedSnapshotTmpIsIgnored: a crash between writing snap.tmp
// and renaming it leaves the tmp file behind. Like every name that is
// not storage's — an operator's snapshot.bak sorts after every real
// snapshot — it is never tried as a snapshot, never counted as
// corruption, never takes a retention slot, and never removed.
func TestAbandonedSnapshotTmpIsIgnored(t *testing.T) {
	for _, stray := range []string{snapTmpName, "snapshot.bak", "snapshot.1", "log.0000000000000001.old", "log.zzzzzzzzzzzzzzzz"} {
		t.Run(stray, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, stray), []byte("half-written"), 0o644); err != nil {
				t.Fatal(err)
			}
			corrupt := CorruptRecords()
			if tree, zxid, err := restoreLatest(dir); err != nil || zxid != 0 || tree.Count() != ztree.New().Count() {
				t.Fatalf("recovered zxid %d, %v; want an empty tree", zxid, err)
			}
			tree := ztree.New()
			tree.Apply(&ztree.Txn{Zxid: 1, Type: ztree.TxnCreate, Path: "/real"})
			for z := int64(1); z <= keepSnapshots+1; z++ {
				snapshotAt(t, dir, tree, z)
			}
			if _, zxid, err := restoreLatest(dir); err != nil || zxid != keepSnapshots+1 {
				t.Fatalf("zxid = %d, %v", zxid, err)
			}
			if n := CorruptRecords() - corrupt; n != 0 {
				t.Fatalf("%d corruption events counted for a stray %s", n, stray)
			}
			if snaps, _ := listed(t, dir); len(snaps) != keepSnapshots {
				t.Fatalf("snapshots retained %v, want %d", snaps, keepSnapshots)
			}
			if stray != snapTmpName {
				if _, err := os.Stat(filepath.Join(dir, stray)); err != nil {
					t.Fatalf("the stray %s was touched: %v", stray, err)
				}
			}
		})
	}
}

func TestNoSnapshot(t *testing.T) {
	for _, dir := range []string{t.TempDir(), filepath.Join(t.TempDir(), "missing")} {
		restored := false
		l, zxid, err := OpenLog(osFS{}, dir, 0, func(*ztree.Snapshot) { restored = true }, func(*ztree.Txn) {})
		if err != nil || zxid != 0 || restored {
			t.Fatalf("%s: zxid %d, restored %v, %v", dir, zxid, restored, err)
		}
		_ = l.Close()
	}
}

func TestPurgeSnapshots(t *testing.T) {
	dir := t.TempDir()
	tree := ztree.New()
	for i := int64(1); i <= 5; i++ {
		snapshotAt(t, dir, tree, i)
	}
	// Snapshots 3, 4 and 5 survive; the purge bound for log segments is
	// the OLDEST retained one, so the fallback path stays recoverable.
	if snaps, _ := listed(t, dir); fmt.Sprint(snaps) != "[3 4 5]" {
		t.Fatalf("snapshots after purge = %v, want [3 4 5]", snaps)
	}
	if _, zxid, err := restoreLatest(dir); err != nil || zxid != 5 {
		t.Fatalf("newest lost: zxid %d, %v", zxid, err)
	}
}

func TestPersisterRecoveryFullCycle(t *testing.T) {
	dir := t.TempDir()

	// First life: apply and record transactions, snapshot mid-way.
	tree := ztree.New()
	p, zxid, err := Recover(PersisterConfig{Dir: dir, Tree: tree, SnapshotEvery: 7})
	if err != nil || zxid != 0 {
		t.Fatalf("fresh recover: zxid %d, %v", zxid, err)
	}
	txns := sampleTxns(20)
	for i := range txns {
		tree.Apply(&txns[i])
		if err := record(p, &txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	wantDigest := tree.Digest()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if snaps, _ := listed(t, dir); fmt.Sprint(snaps) != "[7 14]" {
		t.Fatalf("snapshots = %v, want [7 14] at SnapshotEvery=7", snaps)
	}

	// Second life: recover from snapshot + log suffix; a third recovery
	// over the exact same files must land on the identical digest and
	// zxid.
	for life := 2; life <= 3; life++ {
		tree2 := ztree.New()
		p2, zxid, err := Recover(PersisterConfig{Dir: dir, Tree: tree2, SnapshotEvery: 7})
		if err != nil {
			t.Fatal(err)
		}
		if zxid != 20 || tree2.Digest() != wantDigest {
			t.Fatalf("life %d: recovered zxid = %d, want 20, digests equal %v", life, zxid, tree2.Digest() == wantDigest)
		}
		if err := p2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPersisterIdempotentReplayAfterSnapshot(t *testing.T) {
	// Records both snapshotted and still in the log must not be applied
	// twice (zxid guard). This is exactly the crash window between a
	// snapshot's rename and the purge of the segments it covers.
	dir := t.TempDir()
	tree := ztree.New()
	p, _, err := Recover(PersisterConfig{Dir: dir, Tree: tree, SnapshotEvery: 1000000})
	if err != nil {
		t.Fatal(err)
	}
	txns := sampleTxns(5)
	for i := range txns {
		tree.Apply(&txns[i])
		if err := record(p, &txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	_ = p.Close()
	// A snapshot at 5 over a log whose one segment is the final one, so
	// nothing is purged: recovery must skip the already-reflected records.
	snapshotAt(t, dir, tree, 5)
	if _, segs := listed(t, dir); len(segs) != 1 {
		t.Fatalf("segments = %v, want the one holding 1..5", segs)
	}

	tree2 := ztree.New()
	p2, zxid, err := Recover(PersisterConfig{Dir: dir, Tree: tree2})
	if err != nil || zxid != 5 {
		t.Fatalf("recover: %d, %v", zxid, err)
	}
	defer p2.Close()
	if tree2.Digest() != tree.Digest() {
		t.Fatal("double application detected")
	}
}

func TestPersisterPurgesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	tree := ztree.New()
	p, _, err := Recover(PersisterConfig{Dir: dir, Tree: tree, SnapshotEvery: 5, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	txns := sampleTxns(40)
	for i := range txns {
		tree.Apply(&txns[i])
		if err := record(p, &txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// 40 one-record segments were created; with snapshots every 5 and 3
	// retained, everything below the oldest retained snapshot (zxid 30)
	// must be gone.
	_, segs := listed(t, dir)
	if len(segs) >= 40 {
		t.Fatalf("purge did not reclaim segments: %d left", len(segs))
	}
	for _, z := range segs {
		if z < 30 {
			t.Fatalf("segment %s below oldest retained snapshot survived", segmentName(z))
		}
	}
	// And the reclaimed directory still recovers to the same state.
	tree2 := ztree.New()
	p2, zxid, err := Recover(PersisterConfig{Dir: dir, Tree: tree2})
	if err != nil || zxid != 40 {
		t.Fatalf("recover after purge: %d, %v", zxid, err)
	}
	defer p2.Close()
	if tree2.Digest() != tree.Digest() {
		t.Fatal("digest mismatch after purge")
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	tree := ztree.New()
	p, _, err := Recover(PersisterConfig{Dir: dir, Tree: tree, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txn := ztree.Txn{
					Zxid: int64(w*per + i + 1),
					Type: ztree.TxnCreate,
					Path: fmt.Sprintf("/w%d/n%d", w, i),
				}
				if err := record(p, &txn); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// storage_txns_per_fsync: one observation per fsync, summing to the
	// records it covered.
	st := p.txnsHist.Snapshot()
	if st.Sum != writers*per {
		t.Fatalf("records = %d, want %d", st.Sum, writers*per)
	}
	// With 8 writers blocked on each fsync, batches must form; strictly
	// one-record-per-fsync would mean zero overlap across 400 commits.
	if st.Count >= st.Sum {
		t.Fatalf("no group commit: %d fsyncs for %d records", st.Count, st.Sum)
	}
}

// TestConcurrentRecordSnapshotStress runs under -race in the nightly
// sweep: goroutines record transactions and publish state-transfer
// snapshots, each holding the apply lock the way the one apply
// goroutine would, while their fsync waits overlap the commit loop.
// Everything acknowledged must recover, and nothing twice.
func TestConcurrentRecordSnapshotStress(t *testing.T) {
	dir := t.TempDir()
	tree := ztree.New()
	p, _, err := Recover(PersisterConfig{Dir: dir, Tree: tree, SegmentBytes: 4 << 10, SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 100
	var wg sync.WaitGroup
	var apply sync.Mutex
	var zxid int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				done := make(chan error, 1)
				apply.Lock()
				zxid++
				txn := ztree.Txn{Zxid: zxid, Type: ztree.TxnCreate, Path: fmt.Sprintf("/s%d-n%d", w, i), Data: []byte{byte(i)}}
				tree.Apply(&txn)
				p.Record(&txn, func(err error) { done <- err })
				apply.Unlock()
				if err := <-done; err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			apply.Lock()
			err := p.Snapshot(zxid)
			apply.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	tree2 := ztree.New()
	p2, got, err := Recover(PersisterConfig{Dir: dir, Tree: tree2})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got != int64(writers*per) || tree2.Digest() != tree.Digest() {
		t.Fatalf("recovered zxid = %d, want %d; digests equal %v", got, writers*per, tree2.Digest() == tree.Digest())
	}
}

func TestPersisterFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	tree := ztree.New()
	p, _, err := Recover(PersisterConfig{Dir: dir, Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if err := record(p, &ztree.Txn{Zxid: 1, Type: ztree.TxnCreate, Path: "/a"}); err != nil {
		t.Fatal(err)
	}
	// Sabotage the log out from under the persister, whose commit loop
	// is idle until the next Record: further appends must fail, and the
	// failure must stick.
	_ = p.log.file.Close()
	if err := record(p, &ztree.Txn{Zxid: 2, Type: ztree.TxnCreate, Path: "/b"}); err == nil {
		t.Fatal("record after sabotage succeeded")
	}
	if p.Err() == nil {
		t.Fatal("failure not sticky")
	}
	if err := record(p, &ztree.Txn{Zxid: 3, Type: ztree.TxnCreate, Path: "/c"}); err == nil {
		t.Fatal("record accepted after sticky failure")
	}
	if err := p.Snapshot(3); err == nil {
		t.Fatal("snapshot accepted after sticky failure")
	}
	_ = p.Close()
}

func TestDirSize(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, openLog(t, dir, 0), []ztree.Txn{{Zxid: 1, Type: ztree.TxnCreate, Path: "/x", Data: make([]byte, 1000)}})
	size, err := DirSize(dir)
	if err != nil || size < 1000 {
		t.Fatalf("size = %d, %v", size, err)
	}
}

// TestGroupCommitIsOneWrite: the records appended between two syncs
// reach the segment in a single write — and byte for byte as the
// records one write each used to produce, so a log written either way
// replays the same.
func TestGroupCommitIsOneWrite(t *testing.T) {
	dir := t.TempDir()
	log := openLog(t, dir, 0)
	txns := sampleTxns(7)
	sizeAfter := func() int64 {
		t.Helper()
		info, err := os.Stat(segmentPaths(t, dir)[0])
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	var want []byte
	for i := range txns {
		if err := log.Append(&txns[i]); err != nil {
			t.Fatal(err)
		}
		payload := wire.Marshal(&txns[i])
		want = binary.BigEndian.AppendUint32(want, uint32(len(payload)))
		want = binary.BigEndian.AppendUint32(want, crc32.Checksum(payload, crcTable))
		want = append(want, payload...)
		if i == 2 {
			if got := sizeAfter(); got != 0 {
				t.Fatalf("%d bytes reached the segment before the sync", got)
			}
			if err := log.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := sizeAfter(); got != int64(len(want)) {
				t.Fatalf("segment holds %d bytes after the first sync, want %d", got, len(want))
			}
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(segmentPaths(t, dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment differs from the record-at-a-time encoding:\n got %x\nwant %x", got, want)
	}
}

// TestTornGroupCommitRecoversValidPrefix cuts a segment whose last three
// records went down in one write at every byte offset: a crash can tear
// that write anywhere. Replay must yield exactly the records that are
// whole, and the reopened log must continue right behind them.
func TestTornGroupCommitRecoversValidPrefix(t *testing.T) {
	src := t.TempDir()
	log := openLog(t, src, 0)
	txns := sampleTxns(5)
	var ends []int // byte offset behind each record
	for i := range txns {
		if err := log.Append(&txns[i]); err != nil {
			t.Fatal(err)
		}
		prev := 0
		if i > 0 {
			prev = ends[i-1]
		}
		ends = append(ends, prev+recordHeader+len(wire.Marshal(&txns[i])))
		if i == 1 { // two records durable, then a batch of three
			if err := log.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	segment := segmentPaths(t, src)[0]
	whole, err := os.ReadFile(segment)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != ends[len(ends)-1] {
		t.Fatalf("segment is %d bytes, records end at %v", len(whole), ends)
	}

	for cut := ends[1]; cut <= len(whole); cut++ {
		valid := 0
		for valid < len(ends) && ends[valid] <= cut {
			valid++
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segment)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var zxids []int64
		reopened, _, err := OpenLog(osFS{}, dir, 0, func(*ztree.Snapshot) {}, func(txn *ztree.Txn) { zxids = append(zxids, txn.Zxid) })
		if err != nil {
			t.Fatalf("cut at %d: recover: %v", cut, err)
		}
		if len(zxids) != valid {
			t.Fatalf("cut at %d: replayed %v, want the first %d records", cut, zxids, valid)
		}
		appendAll(t, reopened, []ztree.Txn{{Zxid: 100, Type: ztree.TxnCreate, Path: "/after", Data: []byte("x")}})
		zxids, err = replay(dir)
		if err != nil {
			t.Fatalf("cut at %d: replay after reopen: %v", cut, err)
		}
		if len(zxids) != valid+1 || zxids[valid] != 100 {
			t.Fatalf("cut at %d: after reopen and append replayed %v, want %d records then 100", cut, zxids, valid)
		}
		for i := 0; i < valid; i++ {
			if zxids[i] != txns[i].Zxid {
				t.Fatalf("cut at %d: record %d has zxid %d, want %d", cut, i, zxids[i], txns[i].Zxid)
			}
		}
	}
}

// TestStateTransferDiscardsRolledBackTail: a replica logs (1,1)…(1,5),
// of which (1,4) and (1,5) were provisional deliveries, installs the
// leader's snapshot at (1,3) — which rolls them back — and logs the
// leader's (2,1) and (2,2), or (2,1) alone. No recovery may replay a
// record the transfer discarded: not above the transfer's snapshot, not
// from an older-history snapshot that is newer by zxid, and not from a
// fallback once every snapshot from the transfer on is corrupt (recovery
// may then fail; it may not land anywhere but on the leader's tree).
// zab never installs a snapshot below a follower's delivered frontier,
// so only the last row is reachable through it (the zab simulator's
// TestScheduleRollbackThenRestart); the first two hold storage to the
// same rule for any caller.
func TestStateTransferDiscardsRolledBackTail(t *testing.T) {
	z := func(epoch, n int64) int64 { return epoch<<32 | n }
	create := func(zxid int64, path, data string) ztree.Txn {
		return ztree.Txn{Zxid: zxid, Type: ztree.TxnCreate, Path: path, Data: []byte(data)}
	}
	set := func(zxid int64, path, data string, version int32) ztree.Txn {
		return ztree.Txn{Zxid: zxid, Type: ztree.TxnSetData, Path: path, Data: []byte(data), Version: version}
	}
	common := []ztree.Txn{create(z(1, 1), "/x", "a"), create(z(1, 2), "/y", "b"), set(z(1, 3), "/x", "c", 0)}
	rolledBack := []ztree.Txn{create(z(1, 4), "/a", "ROLLED-BACK"), set(z(1, 5), "/x", "ROLLED-BACK", 1)}
	after := []ztree.Txn{create(z(2, 1), "/a", "new"), set(z(2, 2), "/x", "new", 1)}
	show := func(tree *ztree.Tree) string {
		a, _, _ := tree.GetData("/a")
		x, _, _ := tree.GetData("/x")
		return fmt.Sprintf("/a=%q /x=%q", a, x)
	}

	for _, tc := range []struct {
		name          string
		snapshotEvery int
		after         int  // of the leader's records logged behind the transfer
		corrupt       bool // every snapshot at or above the transfer's
	}{
		{"log above the transfer", 0, 2, false},
		{"older-history snapshot above the transfer", 4, 2, false},
		{"fallback below the transfer", 2, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leader := ztree.New()
			for i := range common {
				leader.Apply(&common[i])
			}
			transferred := leader.Snapshot()
			for i := range after[:tc.after] {
				leader.Apply(&after[i])
			}
			dir := t.TempDir()
			tree := ztree.New()
			p, _, err := Recover(PersisterConfig{Dir: dir, Tree: tree, SnapshotEvery: tc.snapshotEvery})
			if err != nil {
				t.Fatal(err)
			}
			deliver := func(txns []ztree.Txn) {
				for i := range txns {
					tree.Apply(&txns[i])
					if err := record(p, &txns[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			deliver(append(append([]ztree.Txn(nil), common...), rolledBack...))
			tree.Restore(transferred)
			if err := p.Snapshot(z(1, 3)); err != nil {
				t.Fatal(err)
			}
			deliver(after[:tc.after])
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if snaps, _ := listed(t, dir); tc.corrupt {
				for _, zxid := range snaps {
					if zxid < z(1, 3) {
						continue
					}
					if err := os.WriteFile(filepath.Join(dir, snapshotName(zxid)), []byte("corrupt"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}

			got := ztree.New()
			p2, zxid, err := Recover(PersisterConfig{Dir: dir, Tree: got})
			if tc.corrupt && errors.Is(err, ErrCorruptRecord) {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			_ = p2.Close()
			if want := after[tc.after-1].Zxid; zxid != want || got.Digest() != leader.Digest() {
				t.Fatalf("recovered zxid %#x with %s; the leader has %#x with %s", zxid, show(got), want, show(leader))
			}
		})
	}
}
