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

// segmentPaths lists the log segment files in replay order.
func segmentPaths(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(segs))
	for i, s := range segs {
		paths[i] = filepath.Join(dir, s.name)
	}
	return paths
}

func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenLogSegmented(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	txns := sampleTxns(20)
	for i := range txns {
		if err := log.Append(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	var got []ztree.Txn
	if err := ReplayLog(dir, func(txn *ztree.Txn) error {
		got = append(got, *txn)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
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
	dir := t.TempDir()
	// Missing log: no error, no records.
	count := 0
	if err := ReplayLog(dir, func(*ztree.Txn) error { count++; return nil }); err != nil || count != 0 {
		t.Fatalf("missing log: %d records, %v", count, err)
	}
	// Opened-but-never-appended log: no segments exist at all.
	log, _ := OpenLogSegmented(dir, 0)
	_ = log.Close()
	if err := ReplayLog(dir, func(*ztree.Txn) error { count++; return nil }); err != nil || count != 0 {
		t.Fatalf("empty log: %d records, %v", count, err)
	}
}

func TestSegmentRotationBoundaries(t *testing.T) {
	dir := t.TempDir()
	// Threshold smaller than a single record: every append lands in its
	// own segment (rotation is checked before writing, so a segment
	// always takes at least one record — records are never split).
	log, err := OpenLogSegmented(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	txns := sampleTxns(7)
	for i := range txns {
		if err := log.Append(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
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
	rot, segs := log.counters()
	if rot != 6 || segs != 7 {
		t.Fatalf("rotations=%d segments=%d, want 6/7", rot, segs)
	}
}

func TestMultiSegmentReplayOrder(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenLogSegmented(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	txns := sampleTxns(50)
	for i := range txns {
		if err := log.Append(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(segmentPaths(t, dir)); got < 3 {
		t.Fatalf("expected several segments, got %d", got)
	}
	var zxids []int64
	if err := ReplayLog(dir, func(txn *ztree.Txn) error {
		zxids = append(zxids, txn.Zxid)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(zxids) != 50 {
		t.Fatalf("replayed %d, want 50", len(zxids))
	}
	for i, z := range zxids {
		if z != int64(i+1) {
			t.Fatalf("replay out of order at %d: zxid %d", i, z)
		}
	}
}

func TestReplayTornTailIsIgnored(t *testing.T) {
	dir := t.TempDir()
	log, _ := OpenLogSegmented(dir, 0)
	txns := sampleTxns(5)
	for i := range txns {
		if err := log.Append(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	_ = log.Close()

	// Simulate a crash mid-write: truncate inside the last record of
	// the final segment.
	paths := segmentPaths(t, dir)
	path := paths[len(paths)-1]
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := ReplayLog(dir, func(*ztree.Txn) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("replayed %d, want 4 (torn tail dropped)", count)
	}
}

func TestOpenLogRepairsTornTailBeforeAppending(t *testing.T) {
	dir := t.TempDir()
	log, _ := OpenLogSegmented(dir, 0)
	txns := sampleTxns(5)
	for i := range txns {
		if err := log.Append(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	_ = log.Close()
	paths := segmentPaths(t, dir)
	path := paths[len(paths)-1]
	info, _ := os.Stat(path)
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Reopen: the torn record must be truncated away so the next append
	// lands right after the last valid record — otherwise the garbage
	// in between would turn into fatal mid-log corruption on replay.
	log2, err := OpenLogSegmented(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := ztree.Txn{Zxid: 6, Type: ztree.TxnCreate, Path: "/after", Data: []byte("x")}
	if err := log2.Append(&next); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	var zxids []int64
	if err := ReplayLog(dir, func(txn *ztree.Txn) error {
		zxids = append(zxids, txn.Zxid)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3, 4, 6} // 5 was torn, never acknowledged
	if len(zxids) != len(want) {
		t.Fatalf("zxids = %v, want %v", zxids, want)
	}
	for i := range want {
		if zxids[i] != want[i] {
			t.Fatalf("zxids = %v, want %v", zxids, want)
		}
	}
}

func TestReplayMidCorruptionReported(t *testing.T) {
	dir := t.TempDir()
	log, _ := OpenLogSegmented(dir, 0)
	txns := sampleTxns(5)
	for i := range txns {
		if err := log.Append(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	_ = log.Close()

	// Flip a byte inside the SECOND record's payload: a bad record with
	// more data after it cannot be a torn write.
	paths := segmentPaths(t, dir)
	path := paths[len(paths)-1]
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := int(uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3]))
	off := recordHeader + firstLen + recordHeader + 2
	buf[off] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	err = ReplayLog(dir, func(*ztree.Txn) error { return nil })
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord", err)
	}
}

func TestTornRecordInSealedSegmentIsError(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenLogSegmented(dir, 1) // one record per segment
	if err != nil {
		t.Fatal(err)
	}
	txns := sampleTxns(3)
	for i := range txns {
		if err := log.Append(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	_ = log.Close()
	paths := segmentPaths(t, dir)
	if len(paths) != 3 {
		t.Fatalf("segments = %d, want 3", len(paths))
	}
	// Truncate the FIRST (sealed) segment: it was fsynced before its
	// successor was created, so a short read there is real data loss,
	// not a torn write.
	info, _ := os.Stat(paths[0])
	if err := os.Truncate(paths[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}
	err = ReplayLog(dir, func(*ztree.Txn) error { return nil })
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord for sealed-segment damage", err)
	}
}

func TestPurgeSegments(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenLogSegmented(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	txns := sampleTxns(5)
	for i := range txns {
		if err := log.Append(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	_ = log.Close()
	// Snapshot covers zxid <= 3: segments holding records 1..3 go.
	removed, err := PurgeSegments(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("removed %d, want 3", removed)
	}
	var zxids []int64
	if err := ReplayLog(dir, func(txn *ztree.Txn) error {
		zxids = append(zxids, txn.Zxid)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(zxids) != 2 || zxids[0] != 4 || zxids[1] != 5 {
		t.Fatalf("surviving zxids = %v, want [4 5]", zxids)
	}
	// The final segment is never purged even when fully covered.
	if removed, _ := PurgeSegments(dir, 100); removed != 1 {
		t.Fatalf("removed %d, want 1 (final segment must stay)", removed)
	}
	if got := len(segmentPaths(t, dir)); got != 1 {
		t.Fatalf("segments = %d, want 1", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tree := ztree.New()
	for i := range sampleTxns(10) {
		txn := sampleTxns(10)[i]
		tree.Apply(&txn)
	}
	if err := WriteSnapshot(dir, tree.Snapshot(), 10); err != nil {
		t.Fatal(err)
	}
	snap, zxid, err := LoadLatestSnapshot(dir)
	if err != nil || zxid != 10 {
		t.Fatalf("load = zxid %d, %v", zxid, err)
	}
	restored := ztree.New()
	restored.Restore(snap)
	if restored.Digest() != tree.Digest() {
		t.Fatal("digest mismatch")
	}
}

func TestLoadLatestPicksNewest(t *testing.T) {
	dir := t.TempDir()
	old := ztree.New()
	old.Apply(&ztree.Txn{Zxid: 1, Type: ztree.TxnCreate, Path: "/old"})
	if err := WriteSnapshot(dir, old.Snapshot(), 1); err != nil {
		t.Fatal(err)
	}
	newer := ztree.New()
	newer.Apply(&ztree.Txn{Zxid: 2, Type: ztree.TxnCreate, Path: "/new"})
	if err := WriteSnapshot(dir, newer.Snapshot(), 2); err != nil {
		t.Fatal(err)
	}
	snap, zxid, err := LoadLatestSnapshot(dir)
	if err != nil || zxid != 2 {
		t.Fatalf("zxid = %d, %v", zxid, err)
	}
	restored := ztree.New()
	restored.Restore(snap)
	if _, err := restored.Exists("/new"); err != nil {
		t.Fatal("newest snapshot not selected")
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	good := ztree.New()
	good.Apply(&ztree.Txn{Zxid: 1, Type: ztree.TxnCreate, Path: "/good"})
	if err := WriteSnapshot(dir, good.Snapshot(), 1); err != nil {
		t.Fatal(err)
	}
	// A newer but corrupt snapshot.
	bad := filepath.Join(dir, snapPrefix+"00000000000000ff")
	if err := os.WriteFile(bad, []byte("garbage-too-short-or-bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, zxid, err := LoadLatestSnapshot(dir)
	if err != nil || zxid != 1 {
		t.Fatalf("fallback failed: zxid %d, %v", zxid, err)
	}
	restored := ztree.New()
	restored.Restore(snap)
	if _, err := restored.Exists("/good"); err != nil {
		t.Fatal("fallback snapshot wrong")
	}
}

func TestAbandonedSnapshotTmpIsIgnored(t *testing.T) {
	// A crash between writing snap.tmp and renaming it leaves the tmp
	// file behind; it must never be mistaken for a snapshot.
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapTmpName), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatestSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
	tree := ztree.New()
	tree.Apply(&ztree.Txn{Zxid: 1, Type: ztree.TxnCreate, Path: "/real"})
	if err := WriteSnapshot(dir, tree.Snapshot(), 1); err != nil {
		t.Fatal(err)
	}
	if _, zxid, err := LoadLatestSnapshot(dir); err != nil || zxid != 1 {
		t.Fatalf("zxid = %d, %v", zxid, err)
	}
}

func TestNoSnapshot(t *testing.T) {
	if _, _, err := LoadLatestSnapshot(t.TempDir()); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := LoadLatestSnapshot(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing dir err = %v", err)
	}
}

func TestPurgeSnapshots(t *testing.T) {
	dir := t.TempDir()
	tree := ztree.New()
	for i := int64(1); i <= 5; i++ {
		if err := WriteSnapshot(dir, tree.Snapshot(), i); err != nil {
			t.Fatal(err)
		}
	}
	oldest, err := PurgeSnapshots(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots 4 and 5 survive; the purge bound for log segments is
	// the OLDEST retained one, so the fallback path stays recoverable.
	if oldest != 4 {
		t.Fatalf("oldest retained = %d, want 4", oldest)
	}
	names, _ := snapshotNames(dir)
	if len(names) != 2 {
		t.Fatalf("snapshots after purge = %d", len(names))
	}
	_, zxid, err := LoadLatestSnapshot(dir)
	if err != nil || zxid != 5 {
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
		if err := p.RecordSync(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if p.LastApplied() != 20 {
		t.Fatalf("lastApplied = %d", p.LastApplied())
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Snapshots < 2 {
		t.Fatalf("snapshots = %d, want >= 2 at SnapshotEvery=7", st.Snapshots)
	}
	wantDigest := tree.Digest()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: recover from snapshot + log suffix.
	tree2 := ztree.New()
	p2, zxid, err := Recover(PersisterConfig{Dir: dir, Tree: tree2, SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	if zxid != 20 {
		t.Fatalf("recovered zxid = %d, want 20", zxid)
	}
	if tree2.Digest() != wantDigest {
		t.Fatal("recovered tree diverges")
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery idempotence: a third recovery over the exact same files
	// must land on the identical digest and zxid.
	tree3 := ztree.New()
	p3, zxid3, err := Recover(PersisterConfig{Dir: dir, Tree: tree3, SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if zxid3 != 20 || tree3.Digest() != wantDigest {
		t.Fatalf("second recovery diverges: zxid %d", zxid3)
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
		if err := p.RecordSync(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Manual snapshot WITHOUT purging the log: recovery must skip the
	// already-reflected records.
	if err := WriteSnapshot(dir, tree.Snapshot(), 5); err != nil {
		t.Fatal(err)
	}
	_ = p.Close()

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
		if err := p.RecordSync(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// 40 one-record segments were created; with snapshots every 5 and 3
	// retained, everything below the oldest retained snapshot (zxid 30)
	// must be gone.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) >= 40 {
		t.Fatalf("purge did not reclaim segments: %d left", len(segs))
	}
	for _, s := range segs {
		if s.firstZxid < 30 {
			t.Fatalf("segment %s below oldest retained snapshot survived", s.name)
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
	p, _, err := Recover(PersisterConfig{Dir: dir, Tree: tree})
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
				if err := p.RecordSync(&txn); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.Records != writers*per {
		t.Fatalf("records = %d, want %d", st.Records, writers*per)
	}
	// With 8 writers blocked on each fsync, batches must form; strictly
	// one-record-per-fsync would mean zero overlap across 400 commits.
	if st.Fsyncs >= st.Records {
		t.Fatalf("no group commit: %d fsyncs for %d records", st.Fsyncs, st.Records)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("max batch = %d, want >= 2", st.MaxBatch)
	}
}

func TestConcurrentRecordSnapshotStress(t *testing.T) {
	// Run under -race: concurrent recorders (distinct subtrees, so tree
	// application order does not matter) racing forced snapshots.
	dir := t.TempDir()
	tree := ztree.New()
	p, _, err := Recover(PersisterConfig{Dir: dir, Tree: tree, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 100
	var wg sync.WaitGroup
	var zxid int64
	var zmu sync.Mutex
	nextZxid := func() int64 {
		zmu.Lock()
		defer zmu.Unlock()
		zxid++
		return zxid
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txn := ztree.Txn{
					Zxid: nextZxid(),
					Type: ztree.TxnCreate,
					Path: fmt.Sprintf("/s%d/n%d", w, i),
					Data: []byte{byte(i)},
				}
				tree.Apply(&txn)
				if err := p.RecordSync(&txn); err != nil {
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
			zmu.Lock()
			z := zxid
			zmu.Unlock()
			if err := p.Snapshot(z); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything acknowledged must recover.
	tree2 := ztree.New()
	p2, got, err := Recover(PersisterConfig{Dir: dir, Tree: tree2})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got != int64(writers*per) {
		t.Fatalf("recovered zxid = %d, want %d", got, writers*per)
	}
}

func TestPersisterFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	tree := ztree.New()
	p, _, err := Recover(PersisterConfig{Dir: dir, Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	txn := ztree.Txn{Zxid: 1, Type: ztree.TxnCreate, Path: "/a"}
	if err := p.RecordSync(&txn); err != nil {
		t.Fatal(err)
	}
	// Sabotage the log out from under the persister: further appends
	// must fail, and the failure must stick.
	p.log.mu.Lock()
	_ = p.log.file.Close()
	p.log.mu.Unlock()
	txn2 := ztree.Txn{Zxid: 2, Type: ztree.TxnCreate, Path: "/b"}
	if err := p.RecordSync(&txn2); err == nil {
		t.Fatal("record after sabotage succeeded")
	}
	if p.Err() == nil {
		t.Fatal("failure not sticky")
	}
	txn3 := ztree.Txn{Zxid: 3, Type: ztree.TxnCreate, Path: "/c"}
	if err := p.RecordSync(&txn3); err == nil {
		t.Fatal("record accepted after sticky failure")
	}
	_ = p.Close()
}

func TestDirSize(t *testing.T) {
	dir := t.TempDir()
	log, _ := OpenLogSegmented(dir, 0)
	txn := ztree.Txn{Zxid: 1, Type: ztree.TxnCreate, Path: "/x", Data: make([]byte, 1000)}
	_ = log.Append(&txn)
	_ = log.Close()
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
	log, err := OpenLogSegmented(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
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
// whole, and a reopened log must continue right behind them.
func TestTornGroupCommitRecoversValidPrefix(t *testing.T) {
	src := t.TempDir()
	log, err := OpenLogSegmented(src, 0)
	if err != nil {
		t.Fatal(err)
	}
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
		if err := ReplayLog(dir, func(txn *ztree.Txn) error {
			zxids = append(zxids, txn.Zxid)
			return nil
		}); err != nil {
			t.Fatalf("cut at %d: replay: %v", cut, err)
		}
		if len(zxids) != valid {
			t.Fatalf("cut at %d: replayed %v, want the first %d records", cut, zxids, valid)
		}

		reopened, err := OpenLogSegmented(dir, 0)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		next := ztree.Txn{Zxid: 100, Type: ztree.TxnCreate, Path: "/after", Data: []byte("x")}
		if err := reopened.Append(&next); err != nil {
			t.Fatal(err)
		}
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
		zxids = zxids[:0]
		if err := ReplayLog(dir, func(txn *ztree.Txn) error {
			zxids = append(zxids, txn.Zxid)
			return nil
		}); err != nil {
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
