// Package storage implements the replica's durability layer, mirroring
// ZooKeeper's on-disk format: a segmented, CRC-checked write-ahead
// transaction log and periodic tree snapshots that let old log
// segments be purged. On restart a replica restores the latest valid
// snapshot and replays the log records above it, in zxid order.
//
// Crash semantics:
//
//   - A record is durable once the group-commit fsync covering it has
//     returned (see Persister); only then is the client acknowledged.
//   - A truncated or CRC-broken record at the very tail of the final
//     segment is a normal crash artifact (the write was torn mid-
//     flight and never acknowledged); recovery drops it silently and
//     truncates it away so new appends never land after garbage.
//   - Corruption anywhere else — mid-segment, or in a sealed (non-
//     final) segment, which was fsynced before the next segment was
//     created — cannot be a torn write and is reported as a hard
//     error rather than silently losing acknowledged state.
//
// Under SecureKeeper, everything written here is ciphertext already
// (paths and payloads were encrypted by the entry enclaves before they
// reached the agreement layer), so at-rest confidentiality follows for
// free — the property §2.2 notes SGX itself does not provide for
// persistent state.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

// Storage errors.
var (
	ErrCorruptRecord = errors.New("storage: corrupt log record")
	ErrNoSnapshot    = errors.New("storage: no snapshot found")
	ErrClosed        = errors.New("storage: persister closed")

	// errReplayDecode wraps the decode error of a CRC-valid log record.
	errReplayDecode = errors.New("storage: replay decode")
)

const (
	segPrefix      = "log."
	snapPrefix     = "snapshot."
	snapTmpName    = "snap.tmp" // deliberately NOT snapPrefix-matching
	recordHeader   = 8          // 4-byte length + 4-byte CRC32C
	maxRecordBytes = 16 << 20

	// DefaultSegmentBytes is the rotation threshold when the caller
	// does not set one.
	DefaultSegmentBytes = 8 << 20

	// maxBufRetain bounds the record buffer a log keeps between syncs;
	// one outsized group commit does not pin its size for good.
	maxBufRetain = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// corruptRecords counts tolerated corruption events — torn final-
// segment tails dropped by replay and corrupt snapshots skipped during
// restore. It is package-level (recovery runs through package
// functions before any Persister exists) and process-wide; a non-zero
// value during a run that saw no crash means silent data damage, which
// the smoke harness turns into a failure. Hard corruption errors are
// not counted here: they already fail the open loudly.
var corruptRecords atomic.Int64

// CorruptRecords reports the tolerated-corruption events seen by this
// process (exposed as storage_corrupt_records_total).
func CorruptRecords() int64 { return corruptRecords.Load() }

// segmentName renders the file name of the segment whose first record
// carries zxid: fixed-width hex, so lexical order is zxid order.
func segmentName(zxid int64) string {
	return fmt.Sprintf("%s%016x", segPrefix, uint64(zxid))
}

// segmentInfo is one on-disk log segment.
type segmentInfo struct {
	name      string
	firstZxid int64
}

// listSegments returns dir's log segments in replay (zxid) order.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read dir: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) {
			continue
		}
		z, err := strconv.ParseUint(strings.TrimPrefix(name, segPrefix), 16, 64)
		if err != nil {
			continue // not a segment name
		}
		segs = append(segs, segmentInfo{name: name, firstZxid: int64(z)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstZxid < segs[j].firstZxid })
	return segs, nil
}

// fsyncDir flushes directory metadata so a just-created, renamed or
// removed name survives a crash. Without it, a snapshot rename or a
// fresh segment can exist in memory only: the file's data is durable
// but the name pointing at it is not.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir for fsync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: fsync dir: %w", err)
	}
	return nil
}

// Log is the segmented append-only transaction log. Appends go to the
// active segment; when it exceeds the rotation threshold (or Rotate is
// called, e.g. after a snapshot) the segment is fsynced, sealed, and
// the next append opens a new one named by its first record's zxid.
// Safe for one appender and concurrent readers of sealed state; all
// methods are internally serialized.
type Log struct {
	mu           sync.Mutex
	dir          string
	segmentBytes int64
	file         *os.File // active segment; nil until the next Append opens one
	size         int64    // bytes written to the active segment
	buf          []byte   // records appended since the last write, encoded

	rotations int64
	segments  int64 // segments created by this instance
}

// OpenLogSegmented opens (creating dir if needed) the segmented log.
// segmentBytes <= 0 selects DefaultSegmentBytes. A torn record at the
// tail of the last segment — the only place a crash can leave one —
// is truncated away so appends resume from the last durable record.
func OpenLogSegmented(dir string, segmentBytes int64) (*Log, error) {
	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir: %w", err)
	}
	l := &Log{dir: dir, segmentBytes: segmentBytes}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return l, nil
	}
	// Repair the final segment: scan it, drop a torn tail, and keep
	// appending to it. Mid-segment corruption is NOT repairable — it
	// would mean acknowledged records are gone — so it fails the open.
	last := filepath.Join(dir, segs[len(segs)-1].name)
	valid, _, err := scanSegment(last, nil)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(last, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open segment: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("storage: stat segment: %w", err)
	}
	if info.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("storage: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("storage: sync repaired segment: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("storage: seek segment end: %w", err)
	}
	l.file, l.size = f, valid
	return l, nil
}

// Append adds one committed transaction to the active segment, sealing
// it first and opening the next if it is full. The record is encoded
// into the log's buffer and reaches the file, with everything appended
// since, in the one write the next Sync makes: a group commit costs one
// write, not one per record. The record is NOT durable until that Sync
// returns.
func (l *Log) Append(txn *ztree.Txn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// What is buffered counts towards the segment's size, so segments
	// end at the same records as if each had been written at once.
	if l.file != nil && l.size+int64(len(l.buf)) >= l.segmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if l.file == nil {
		if err := l.openSegmentLocked(txn.Zxid); err != nil {
			return err
		}
	}
	// The payload is serialized straight behind its header, which is
	// filled in once length and checksum are known.
	at := len(l.buf)
	e := wire.AppendTo(append(l.buf, make([]byte, recordHeader)...))
	txn.Serialize(&e)
	l.buf = e.Bytes()
	payload := l.buf[at+recordHeader:]
	binary.BigEndian.PutUint32(l.buf[at:], uint32(len(payload)))
	binary.BigEndian.PutUint32(l.buf[at+4:], crc32.Checksum(payload, crcTable))
	return nil
}

// flushLocked writes the buffered records to the active segment.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	n, err := l.file.Write(l.buf)
	l.size += int64(n)
	if cap(l.buf) > maxBufRetain {
		l.buf = nil
	}
	l.buf = l.buf[:0]
	if err != nil {
		return fmt.Errorf("storage: append: %w", err)
	}
	return nil
}

// Sync writes what Append buffered and flushes the active segment to
// stable storage. Records in already-sealed segments were fsynced at
// rotation time.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	return l.file.Sync()
}

// Rotate seals the active segment (fsync + close); the next Append
// opens a new one. Called by the Persister after a snapshot so the
// sealed segment becomes purgeable once a snapshot covers it.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	if l.file == nil {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	// Seal: fsync before closing, establishing the invariant replay
	// relies on — damage in a non-final segment is never a torn write.
	if err := l.file.Sync(); err != nil {
		return fmt.Errorf("storage: seal segment: %w", err)
	}
	if err := l.file.Close(); err != nil {
		return fmt.Errorf("storage: close segment: %w", err)
	}
	l.file = nil
	l.size = 0
	l.rotations++
	return nil
}

func (l *Log) openSegmentLocked(firstZxid int64) error {
	path := filepath.Join(l.dir, segmentName(firstZxid))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create segment: %w", err)
	}
	// The segment's NAME must be durable before records in it are
	// acknowledged; the following record fsync does not cover the
	// directory entry.
	if err := fsyncDir(l.dir); err != nil {
		_ = f.Close()
		return err
	}
	l.file = f
	l.size = 0
	l.segments++
	return nil
}

// Close seals and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	err := l.flushLocked()
	if serr := l.file.Sync(); err == nil {
		err = serr
	}
	if cerr := l.file.Close(); err == nil {
		err = cerr
	}
	l.file = nil
	return err
}

// counters reports (rotations, segments created) for observability.
func (l *Log) counters() (int64, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rotations, l.segments
}

// scanSegment reads every whole, CRC-valid record of one segment file,
// invoking fn (when non-nil) per record. It returns the byte offset
// after the last valid record and whether the file ended cleanly
// (clean=false means a torn tail followed: short header, short
// payload, or a CRC mismatch with nothing after it). Corruption that
// cannot be a torn tail — a bad record with more data following, an
// impossible length, an undecodable valid-CRC payload — is an error.
func scanSegment(path string, fn func(txn *ztree.Txn) error) (int64, bool, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, true, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("storage: open segment for replay: %w", err)
	}
	defer f.Close()

	br := &countingReader{r: f}
	header := make([]byte, recordHeader)
	var payload []byte
	var valid int64
	for {
		if _, err := io.ReadFull(br, header); err != nil {
			if errors.Is(err, io.EOF) {
				return valid, true, nil // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, false, nil // torn header
			}
			return valid, false, fmt.Errorf("storage: replay: %w", err)
		}
		n := binary.BigEndian.Uint32(header[:4])
		wantCRC := binary.BigEndian.Uint32(header[4:])
		if n > maxRecordBytes {
			return valid, false, fmt.Errorf("%w: impossible record length %d in %s", ErrCorruptRecord, n, filepath.Base(path))
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return valid, false, nil // torn payload: treat as unwritten
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			// A bad CRC on the final record is a torn write; anything
			// followed by more data is real corruption.
			var probe [1]byte
			if _, err := br.Read(probe[:]); err != nil {
				return valid, false, nil
			}
			return valid, false, fmt.Errorf("%w: CRC mismatch mid-segment in %s", ErrCorruptRecord, filepath.Base(path))
		}
		if fn != nil {
			var txn ztree.Txn
			if err := wire.Unmarshal(payload, &txn); err != nil {
				return valid, false, fmt.Errorf("%w: %w", errReplayDecode, err)
			}
			if err := fn(&txn); err != nil {
				return valid, false, err
			}
		}
		valid = br.n
	}
}

// countingReader tracks the number of bytes consumed.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ReplayLog reads every valid record across dir's log segments in
// zxid order. A torn record at the tail of the FINAL segment stops the
// replay without error (crash semantics: the record was never
// acknowledged); a torn record in any sealed segment, or corruption
// mid-segment anywhere, is reported — sealed segments were fsynced
// before their successor existed, so damage there means acknowledged
// state is gone.
func ReplayLog(dir string, fn func(txn *ztree.Txn) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		_, clean, err := scanSegment(filepath.Join(dir, seg.name), fn)
		if err != nil {
			return err
		}
		if !clean {
			if i != len(segs)-1 {
				return fmt.Errorf("%w: torn record in sealed segment %s", ErrCorruptRecord, seg.name)
			}
			corruptRecords.Add(1) // tolerated torn tail on the final segment
		}
	}
	return nil
}

// PurgeSegments removes log segments every record of which is covered
// by a snapshot at uptoZxid. A segment qualifies when its successor's
// first zxid is <= uptoZxid+1 (records never interleave across
// segments, so everything in it precedes the successor's first
// record); the final segment is never removed — it is the append
// target. Returns the number of segments removed.
func PurgeSegments(dir string, uptoZxid int64) (int, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].firstZxid > uptoZxid+1 {
			break
		}
		if err := os.Remove(filepath.Join(dir, segs[i].name)); err != nil {
			return removed, fmt.Errorf("storage: purge segment: %w", err)
		}
		removed++
	}
	if removed > 0 {
		if err := fsyncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// --- snapshots ---

// WriteSnapshot durably stores a tree snapshot tagged with the last
// zxid it reflects: the payload is written to a temp file, fsynced,
// renamed into place, and the directory fsynced — so a crash can never
// leave a half-written snapshot under a valid name, nor a valid
// snapshot whose name evaporates with the page cache.
func WriteSnapshot(dir string, snap *ztree.Snapshot, lastZxid int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: mkdir: %w", err)
	}
	payload := wire.Marshal(snap)
	buf := make([]byte, 0, len(payload)+12)
	buf = binary.BigEndian.AppendUint64(buf, uint64(lastZxid))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	buf = append(buf, payload...)

	tmp := filepath.Join(dir, snapTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create snapshot tmp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		return fmt.Errorf("storage: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("storage: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: close snapshot: %w", err)
	}
	final := filepath.Join(dir, fmt.Sprintf("%s%016x", snapPrefix, uint64(lastZxid)))
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("storage: publish snapshot: %w", err)
	}
	return fsyncDir(dir)
}

// LoadLatestSnapshot restores the newest valid snapshot in dir,
// returning it and the zxid it reflects. ErrNoSnapshot if none exists.
func LoadLatestSnapshot(dir string) (*ztree.Snapshot, int64, error) {
	names, err := snapshotNames(dir)
	if err != nil {
		return nil, 0, err
	}
	if len(names) == 0 {
		return nil, 0, ErrNoSnapshot
	}
	// Names embed the zxid in hex: lexical order is zxid order. Try
	// newest first; skip corrupt ones (fall back to an older snapshot).
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		snap, zxid, err := readSnapshotFile(filepath.Join(dir, name))
		if err == nil {
			return snap, zxid, nil
		}
		corruptRecords.Add(1) // corrupt snapshot skipped; older one tried
	}
	return nil, 0, fmt.Errorf("storage: all %d snapshots corrupt: %w", len(names), ErrCorruptRecord)
}

func snapshotNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), snapPrefix) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func readSnapshotFile(path string) (*ztree.Snapshot, int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(buf) < 12 {
		return nil, 0, ErrCorruptRecord
	}
	zxid := int64(binary.BigEndian.Uint64(buf[:8]))
	wantCRC := binary.BigEndian.Uint32(buf[8:12])
	payload := buf[12:]
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return nil, 0, ErrCorruptRecord
	}
	var snap ztree.Snapshot
	if err := wire.Unmarshal(payload, &snap); err != nil {
		return nil, 0, fmt.Errorf("storage: snapshot decode: %w", err)
	}
	return &snap, zxid, nil
}

// PurgeSnapshots removes all but the newest keep snapshots and returns
// the zxid of the OLDEST snapshot retained (0 when none): log segments
// above that zxid must be kept so every retained snapshot stays a
// usable recovery point.
func PurgeSnapshots(dir string, keep int) (int64, error) {
	names, err := snapshotNames(dir)
	if err != nil {
		return 0, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for i := keep; i < len(names); i++ {
		if err := os.Remove(filepath.Join(dir, names[i])); err != nil {
			return 0, err
		}
	}
	if len(names) == 0 {
		return 0, nil
	}
	oldestIdx := len(names) - 1
	if keep > 0 && keep-1 < oldestIdx {
		oldestIdx = keep - 1
	}
	z, err := strconv.ParseUint(strings.TrimPrefix(names[oldestIdx], snapPrefix), 16, 64)
	if err != nil {
		return 0, nil // unparsable name: be conservative, purge nothing
	}
	return int64(z), nil
}

// DirSize reports the bytes used under dir (observability).
func DirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
