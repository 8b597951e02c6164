// Package storage implements the replica's durability layer, mirroring
// ZooKeeper's on-disk format: a segmented, CRC-checked write-ahead
// transaction log and periodic tree snapshots that let old log
// segments be purged. On restart a replica restores the latest valid
// snapshot and replays the log records above it, in zxid order; OpenLog
// is that one recovery pass.
//
// Every file operation goes through FS, which holds exactly the calls
// the package makes. Recover runs it on the operating system; the zab
// simulator runs the same code on an in-memory FS that crashes.
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
//   - A snapshot installed by a state transfer replaces the history on
//     disk: the log and every other snapshot go with it, so no recovery
//     replays a record the transfer rolled back.
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
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

// Storage errors.
var (
	ErrCorruptRecord = errors.New("storage: corrupt log record")
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

	// keepSnapshots is how many recovery points survive a purge: the
	// newest is the normal recovery point, the older ones are fallbacks
	// for a corrupt newest one.
	keepSnapshots = 3
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// corruptRecords counts tolerated corruption events — torn final-
// segment tails dropped by replay and corrupt snapshots skipped during
// restore. It is package-level (recovery runs before any Persister
// exists) and process-wide; a non-zero value during a run that saw no
// crash means silent data damage, which the smoke harness turns into a
// failure. Hard corruption errors are not counted here: they already
// fail the open loudly.
var corruptRecords atomic.Int64

// CorruptRecords reports the tolerated-corruption events seen by this
// process (exposed as storage_corrupt_records_total).
func CorruptRecords() int64 { return corruptRecords.Load() }

// FS is the file system the package works through: exactly the calls
// it makes, on the names of one directory.
type FS interface {
	// OpenFile opens name with the given os.O_* flags.
	OpenFile(name string, flag int) (File, error)
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the names in dir, creating it when it is missing.
	ReadDir(dir string) ([]string, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	// SyncDir makes the names created, renamed and removed in dir
	// durable: without it a fresh segment or a published snapshot can
	// exist in memory only, its data durable but not the name.
	SyncDir(dir string) error
}

// File is an open file of an FS.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// segmentName and snapshotName render a file name from the zxid of the
// segment's first record or the snapshot's last: fixed-width hex, so
// lexical order is zxid order.
func segmentName(zxid int64) string  { return fmt.Sprintf("%s%016x", segPrefix, uint64(zxid)) }
func snapshotName(zxid int64) string { return fmt.Sprintf("%s%016x", snapPrefix, uint64(zxid)) }

// parseName returns the zxid in a name of the form prefix + 16 hex digits.
func parseName(name, prefix string) (int64, bool) {
	hex, ok := strings.CutPrefix(name, prefix)
	if !ok || len(hex) != 16 {
		return 0, false
	}
	z, err := strconv.ParseUint(hex, 16, 64)
	return int64(z), err == nil
}

// Log is one replica's storage directory: the segmented append-only
// transaction log and the snapshots beside it. Appends go to the active
// segment; when it exceeds the rotation threshold (or a snapshot is
// published) the segment is fsynced, sealed, and the next append opens
// a new one named by its first record's zxid. Not safe for concurrent
// use: a Persister's commit goroutine is its one user.
type Log struct {
	fs           FS
	dir          string
	segmentBytes int64
	file         File   // active segment; nil until the next Append opens one
	size         int64  // bytes written to the active segment
	buf          []byte // records appended since the last write, encoded
}

func (l *Log) path(name string) string { return filepath.Join(l.dir, name) }

// list scans the directory once: the zxids of its snapshots and of its
// log segments, each ascending. A name it cannot parse — snap.tmp, a
// stray snapshot.bak — is not storage's, and is ignored.
func (l *Log) list() (snaps, segs []int64, err error) {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: read dir: %w", err)
	}
	for _, name := range names {
		if z, ok := parseName(name, snapPrefix); ok {
			snaps = append(snaps, z)
		} else if z, ok := parseName(name, segPrefix); ok {
			segs = append(segs, z)
		}
	}
	slices.Sort(snaps)
	slices.Sort(segs)
	return snaps, segs, nil
}

// OpenLog is the one recovery pass over dir. It lists the directory
// once, hands the newest valid snapshot to restore (an older one when
// the newest is corrupt), then every later log record to apply, in zxid
// order, reading each segment once. A torn record at the tail of the
// final segment — the only place a crash can leave one — is dropped and
// truncated away. It returns the log, open for appending behind the
// last whole record, and the highest zxid recovered (0 for a fresh
// directory). segmentBytes <= 0 selects DefaultSegmentBytes.
func OpenLog(fsys FS, dir string, segmentBytes int64, restore func(*ztree.Snapshot), apply func(*ztree.Txn)) (*Log, int64, error) {
	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	l := &Log{fs: fsys, dir: dir, segmentBytes: segmentBytes}
	snaps, segs, err := l.list()
	if err != nil {
		return nil, 0, err
	}
	var last int64
	for i := len(snaps) - 1; i >= 0; i-- {
		snap, zxid, err := l.readSnapshot(snaps[i])
		if err == nil {
			restore(snap)
			last = zxid
			break
		}
		corruptRecords.Add(1) // corrupt snapshot skipped; older one tried
		if i == 0 {
			return nil, 0, fmt.Errorf("storage: all %d snapshots corrupt: %w", len(snaps), ErrCorruptRecord)
		}
	}
	from := last // records at or below it are in the snapshot
	for i, first := range segs {
		name, final := segmentName(first), i == len(segs)-1
		buf, err := fsys.ReadFile(l.path(name))
		if err != nil {
			return nil, 0, fmt.Errorf("storage: read segment: %w", err)
		}
		valid, clean, err := scanSegment(buf, func(txn *ztree.Txn) {
			if txn.Zxid > from {
				apply(txn)
				last = max(last, txn.Zxid)
			}
		})
		switch {
		case err != nil:
			return nil, 0, fmt.Errorf("%w in %s", err, name)
		case !clean && !final:
			return nil, 0, fmt.Errorf("%w: torn record in sealed segment %s", ErrCorruptRecord, name)
		case !clean:
			corruptRecords.Add(1) // tolerated torn tail on the final segment
		}
		if final {
			f, err := fsys.OpenFile(l.path(name), os.O_WRONLY|os.O_APPEND)
			if err == nil && valid < len(buf) {
				if err = f.Truncate(int64(valid)); err == nil {
					err = f.Sync()
				}
			}
			if err != nil {
				if f != nil {
					_ = f.Close()
				}
				return nil, 0, fmt.Errorf("storage: repair segment %s: %w", name, err)
			}
			l.file, l.size = f, int64(valid)
		}
	}
	return l, last, nil
}

// scanSegment hands each whole, CRC-valid record at the front of buf to
// fn and returns the bytes they span and whether buf ends there
// (clean=false means a torn tail follows: a short header, a short
// payload, or a CRC mismatch with nothing after it). Corruption that
// cannot be a torn tail — a bad record with more data following, an
// impossible length, an undecodable valid-CRC payload — is an error.
func scanSegment(buf []byte, fn func(txn *ztree.Txn)) (valid int, clean bool, err error) {
	for valid < len(buf) {
		rest := buf[valid:]
		if len(rest) < recordHeader {
			return valid, false, nil // torn header
		}
		n := binary.BigEndian.Uint32(rest)
		if n > maxRecordBytes {
			return valid, false, fmt.Errorf("%w: impossible record length %d", ErrCorruptRecord, n)
		}
		end := recordHeader + int(n)
		if len(rest) < end {
			return valid, false, nil // torn payload: treat as unwritten
		}
		if crc32.Checksum(rest[recordHeader:end], crcTable) != binary.BigEndian.Uint32(rest[4:]) {
			// A bad CRC on the final record is a torn write; anything
			// followed by more data is real corruption.
			if len(rest) > end {
				return valid, false, fmt.Errorf("%w: CRC mismatch mid-segment", ErrCorruptRecord)
			}
			return valid, false, nil
		}
		var txn ztree.Txn
		if err := wire.Unmarshal(rest[recordHeader:end], &txn); err != nil {
			return valid, false, fmt.Errorf("%w: %w", errReplayDecode, err)
		}
		fn(&txn)
		valid += end
	}
	return valid, true, nil
}

// Append adds one committed transaction to the active segment, sealing
// it first and opening the next if it is full. The record is encoded
// into the log's buffer and reaches the file, with everything appended
// since, in the one write the next Sync makes: a group commit costs one
// write, not one per record. The record is NOT durable until that Sync
// returns.
func (l *Log) Append(txn *ztree.Txn) error {
	// What is buffered counts towards the segment's size, so segments
	// end at the same records as if each had been written at once.
	if l.file != nil && l.size+int64(len(l.buf)) >= l.segmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if l.file == nil {
		if err := l.openSegment(txn.Zxid); err != nil {
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

// flush writes the buffered records to the active segment.
func (l *Log) flush() error {
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
	if l.file == nil {
		return nil
	}
	if err := l.flush(); err != nil {
		return err
	}
	return l.file.Sync()
}

// rotate seals the active segment (flush, fsync, close); the next
// Append opens a new one. The fsync before the close establishes the
// invariant replay relies on: damage in a non-final segment is never a
// torn write.
func (l *Log) rotate() error {
	if l.file == nil {
		return nil
	}
	if err := l.Sync(); err != nil {
		return fmt.Errorf("storage: seal segment: %w", err)
	}
	err := l.file.Close()
	l.file, l.size = nil, 0
	if err != nil {
		return fmt.Errorf("storage: close segment: %w", err)
	}
	return nil
}

func (l *Log) openSegment(firstZxid int64) error {
	f, err := l.fs.OpenFile(l.path(segmentName(firstZxid)), os.O_CREATE|os.O_EXCL|os.O_WRONLY)
	if err != nil {
		return fmt.Errorf("storage: create segment: %w", err)
	}
	// The segment's NAME must be durable before records in it are
	// acknowledged; the following record fsync does not cover the
	// directory entry.
	if err := l.fs.SyncDir(l.dir); err != nil {
		_ = f.Close()
		return fmt.Errorf("storage: fsync dir: %w", err)
	}
	l.file, l.size = f, 0
	return nil
}

// Close seals and closes the active segment.
func (l *Log) Close() error { return l.rotate() }

// Snapshot publishes snap, the tree as of zxid, and removes what no
// recovery needs any more. The active segment is sealed, the snapshot
// is written to a temp file and fsynced, and only then do names change,
// in an order where a crash that keeps any prefix of the changes
// recovers a state this replica has held; one directory fsync at the
// end makes them durable.
//
// A periodic snapshot (transfer false) keeps the newest keepSnapshots
// snapshots and every segment with records above the oldest of them,
// which a fallback starts from. A transfer snapshot — the tree a leader
// sent, which may roll back records this log holds above zxid —
// replaces the history: the segments go before it is published, newest
// first, and every other snapshot after, so that none, newer by zxid or
// a fallback, can precede the records appended behind it.
func (l *Log) Snapshot(snap *ztree.Snapshot, zxid int64, transfer bool) error {
	if err := l.rotate(); err != nil {
		return err
	}
	payload := wire.Marshal(snap)
	buf := make([]byte, 0, len(payload)+12)
	buf = binary.BigEndian.AppendUint64(buf, uint64(zxid))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	tmp := l.path(snapTmpName)
	f, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return fmt.Errorf("storage: create snapshot tmp: %w", err)
	}
	_, err = f.Write(append(buf, payload...))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: write snapshot: %w", err)
	}

	snaps, segs, err := l.list()
	if err != nil {
		return err
	}
	keep := keepSnapshots - 1 // older snapshots kept beside this one
	if transfer {
		keep = 0
		slices.Reverse(segs)
		if err := l.remove(segmentName, segs); err != nil {
			return err
		}
		segs = nil
	}
	if err := l.fs.Rename(tmp, l.path(snapshotName(zxid))); err != nil {
		return fmt.Errorf("storage: publish snapshot: %w", err)
	}
	snaps = slices.DeleteFunc(snaps, func(z int64) bool { return z == zxid })
	dropped := snaps[:max(0, len(snaps)-keep)]
	if err := l.remove(snapshotName, dropped); err != nil {
		return err
	}
	// A segment every record of which the oldest snapshot kept covers:
	// its successor starts at or below that snapshot's zxid + 1 (records
	// never interleave across segments). The last one always stays.
	oldest := zxid
	if kept := snaps[len(dropped):]; len(kept) > 0 {
		oldest = min(oldest, kept[0])
	}
	n := 0
	for n+1 < len(segs) && segs[n+1] <= oldest+1 {
		n++
	}
	if err := l.remove(segmentName, segs[:n]); err != nil {
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("storage: fsync dir: %w", err)
	}
	return nil
}

// remove deletes the files named by zxids, in the order given.
func (l *Log) remove(name func(int64) string, zxids []int64) error {
	for _, z := range zxids {
		if err := l.fs.Remove(l.path(name(z))); err != nil {
			return fmt.Errorf("storage: purge: %w", err)
		}
	}
	return nil
}

func (l *Log) readSnapshot(zxid int64) (*ztree.Snapshot, int64, error) {
	buf, err := l.fs.ReadFile(l.path(snapshotName(zxid)))
	if err != nil {
		return nil, 0, err
	}
	if len(buf) < 12 || crc32.Checksum(buf[12:], crcTable) != binary.BigEndian.Uint32(buf[8:12]) {
		return nil, 0, ErrCorruptRecord
	}
	var snap ztree.Snapshot
	if err := wire.Unmarshal(buf[12:], &snap); err != nil {
		return nil, 0, fmt.Errorf("storage: snapshot decode: %w", err)
	}
	return &snap, int64(binary.BigEndian.Uint64(buf)), nil
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
