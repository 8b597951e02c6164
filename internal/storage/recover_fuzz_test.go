package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

// FuzzLogRecovery writes a log directory from fuzz-chosen parts and
// recovers it into a fresh tree. records is a run of payloads, each a
// 2-byte length and its bytes, framed as CRC-valid records, so decode
// and Apply are reached (every record that decodes is applied, multis
// included); tail is raw bytes after them, so torn tails and
// mid-segment damage are reached. split's low 7 bits put that many
// records in a first, sealed segment and the rest in a second (0 or too
// many: one segment); its high bit puts the tail at the end of the
// first segment instead of the last. Recovery must not panic, must fail
// only with ErrCorruptRecord or a decode error, and a directory it
// accepts (repaired by that first recovery) must recover a second time
// to the same zxid and Digest.
func FuzzLogRecovery(f *testing.F) {
	txns := []ztree.Txn{
		{Zxid: 1, Type: ztree.TxnCreate, Path: "/a", Data: []byte("v")},
		{Zxid: 2, Type: ztree.TxnCreate, Path: "/a/e", Flags: wire.FlagEphemeral, Session: 7},
		{Zxid: 3, Type: ztree.TxnMulti, Subs: []ztree.Txn{
			{Type: ztree.TxnCheck, Path: "/a", Version: 0},
			{Type: ztree.TxnSetData, Path: "/a", Data: []byte("w"), Version: 0},
			{Type: ztree.TxnCreate, Path: "/b"},
		}},
		{Zxid: 4, Type: ztree.TxnMulti, Subs: []ztree.Txn{
			{Type: ztree.TxnDelete, Path: "/b", Version: -1},
			{Type: ztree.TxnCheck, Path: "/missing", Version: -1},
		}},
		{Zxid: 5, Type: ztree.TxnDelete, Path: "/b", Version: -1},
		{Zxid: 6, Type: ztree.TxnCloseSession, Session: 7},
		{Zxid: 7, Type: ztree.TxnSetData, Path: "/a", Data: []byte("x"), Version: 5},
	}
	var records []byte
	for i := range txns {
		p := wire.Marshal(&txns[i])
		records = append(binary.BigEndian.AppendUint16(records, uint16(len(p))), p...)
	}
	valid := appendRecord(nil, wire.Marshal(&txns[0]))
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(records, []byte(nil), uint8(0))
	f.Add(records, []byte(nil), uint8(3))                                // two segments
	f.Add(records, valid[:5], uint8(0))                                  // torn header
	f.Add(records, valid[:len(valid)-1], uint8(3))                       // torn payload
	f.Add(records, badCRC, uint8(0))                                     // bad CRC at the very end: torn
	f.Add(records, append(badCRC, valid...), uint8(0))                   // bad CRC mid-segment
	f.Add(records, valid[:5], uint8(0x83))                               // torn record in a sealed segment
	f.Add(records, []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint8(0)) // impossible length
	f.Add([]byte{0, 3, 1, 2, 3}, []byte(nil), uint8(0))                  // a valid CRC over bytes that do not decode
	f.Fuzz(runOne)
}

func runOne(t *testing.T, records, tail []byte, split uint8) {
	var payloads [][]byte
	for len(records) >= 2 {
		n := min(int(binary.BigEndian.Uint16(records)), len(records)-2)
		payloads = append(payloads, records[2:2+n])
		records = records[2+n:]
	}
	segments := [][][]byte{payloads}
	if s := int(split & 0x7f); s > 0 && s < len(payloads) {
		segments = [][][]byte{payloads[:s], payloads[s:]}
	}
	tailAt := len(segments) - 1
	if split&0x80 != 0 {
		tailAt = 0
	}
	dir := t.TempDir()
	for i, seg := range segments {
		var b []byte
		for _, p := range seg {
			b = appendRecord(b, p)
		}
		if i == tailAt {
			b = append(b, tail...)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(int64(i+1))), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	zxid, digest, err := recoverDir(t, dir)
	if err != nil {
		if !errors.Is(err, ErrCorruptRecord) && !errors.Is(err, errReplayDecode) {
			t.Fatalf("recovery failed with neither ErrCorruptRecord nor a decode error: %v", err)
		}
		return
	}
	again, digestAgain, err := recoverDir(t, dir)
	if err != nil || again != zxid || digestAgain != digest {
		t.Fatalf("second recovery: zxid %d digest %#x, %v; the first recovered zxid %d digest %#x", again, digestAgain, err, zxid, digest)
	}
}

// FuzzSnapshotRecovery recovers a directory that holds a log of four
// records, a good snapshot at zxid 2 and, newer than it at zxid 3, a
// fuzz-chosen snapshot file. mode's low bit frames body as the file
// would be written — zxid and a CRC-valid header — so the snapshot
// decoder is reached; without it body is the whole file, so truncated
// and bit-flipped files are reached. mode's second bit leaves the good
// snapshot out. A file that does not read back as a snapshot must make
// recovery fall back to the good one and replay the log behind it, or,
// with none left, refuse the directory as corrupt. One that does is used,
// and recovers the same twice. Recovery never panics.
func FuzzSnapshotRecovery(f *testing.F) {
	txns := []ztree.Txn{
		{Zxid: 1, Type: ztree.TxnCreate, Path: "/a", Data: []byte("v")},
		{Zxid: 2, Type: ztree.TxnCreate, Path: "/a/b"},
		{Zxid: 3, Type: ztree.TxnSetData, Path: "/a", Data: []byte("w"), Version: -1},
		{Zxid: 4, Type: ztree.TxnCreate, Path: "/c"},
	}
	at := func(n int) *ztree.Tree {
		tree := ztree.New()
		for i := range txns[:n] {
			tree.Apply(&txns[i])
		}
		return tree
	}
	good := wire.Marshal(at(2).Snapshot())
	var log []byte
	for i := range txns {
		log = appendRecord(log, wire.Marshal(&txns[i]))
	}
	wantDigest := at(len(txns)).Digest()

	valid := wire.Marshal(at(3).Snapshot())
	file := snapshotFile(3, valid)
	flipped := append([]byte(nil), file...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(valid, uint8(1))                // a real snapshot, used
	f.Add(valid, uint8(3))                // the only snapshot, used
	f.Add(valid[:len(valid)/2], uint8(1)) // framed over a truncated body
	f.Add(file[:len(file)-5], uint8(0))   // a truncated file
	f.Add(file[:7], uint8(2))             // shorter than its header, alone
	f.Add(flipped, uint8(0))              // a flipped bit
	f.Add([]byte{1, 2, 3}, uint8(3))      // framed, undecodable, alone
	f.Add(wire.Marshal(&ztree.Snapshot{Nodes: []ztree.SnapshotNode{{Path: ""}}}), uint8(1))
	f.Add(wire.Marshal(&ztree.Snapshot{Nodes: []ztree.SnapshotNode{{Path: "a/b"}}}), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, mode uint8) {
		dir := t.TempDir()
		damaged := body
		if mode&1 != 0 {
			damaged = snapshotFile(3, body)
		}
		files := map[string][]byte{segmentName(1): log, snapshotName(3): damaged}
		if mode&2 == 0 {
			files[snapshotName(2)] = snapshotFile(2, good)
		}
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, _, readErr := (&Log{fs: osFS{}, dir: dir}).readSnapshot(3)

		zxid, digest, err := recoverDir(t, dir)
		switch {
		case readErr == nil:
			if err != nil {
				t.Fatalf("a readable snapshot failed recovery: %v", err)
			}
			again, digestAgain, err := recoverDir(t, dir)
			if err != nil || again != zxid || digestAgain != digest {
				t.Fatalf("second recovery: zxid %d digest %#x, %v; the first recovered zxid %d digest %#x", again, digestAgain, err, zxid, digest)
			}
		case mode&2 != 0:
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("the only snapshot is unreadable (%v), and recovery returned zxid %d, %v; want it refused as corrupt", readErr, zxid, err)
			}
		case err != nil || zxid != 4 || digest != wantDigest:
			t.Fatalf("an unreadable newest snapshot (%v): recovered zxid %d, digest %#x, %v; want the fallback's zxid 4, digest %#x", readErr, zxid, digest, err, wantDigest)
		}
	})
}

// snapshotFile frames payload as the snapshot file of zxid.
func snapshotFile(zxid int64, payload []byte) []byte {
	b := binary.BigEndian.AppendUint64(nil, uint64(zxid))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// appendRecord frames payload as one CRC-valid log record.
func appendRecord(b, payload []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// recoverDir recovers dir into a fresh tree and closes the persister.
func recoverDir(t *testing.T, dir string) (zxid int64, digest uint64, err error) {
	tree := ztree.New()
	p, zxid, err := Recover(PersisterConfig{Dir: dir, Tree: tree})
	if err != nil {
		return 0, 0, err
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return zxid, tree.Digest(), nil
}
