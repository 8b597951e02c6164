package zab

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"securekeeper/internal/storage"
)

// simDisk is a simulated peer's disk: storage.FS in memory, one
// directory, crashing the way README "Durability" says a disk may. A
// crash (crash) loses every byte no Sync covered, except that any
// prefix of a file's unsynced bytes may have landed — the last write
// torn at any byte — and keeps the directory as some prefix of the name
// changes no SyncDir covered left it. Its only randomness is the sim's
// rng, and no map is ranged over.
type simDisk struct {
	rng   *rand.Rand
	stats *diskStats
	dir   []dirent   // the directory now, sorted by name
	names [][]dirent // dir as of the last SyncDir, then after each change since
	// dieIn > 0 makes the process die at that many operations from now:
	// the operation fails, as does every one after it, and died names it.
	dieIn int
	died  string
}

// diskStats counts what the crashes of one world did to its disks, and
// how the holds of its peers' flush rules ended: by the requests they
// waited for, by the bound, or by a crash of the process inside one.
type diskStats struct {
	torn, lost, reverted, midPublish int
	byRequests, byBound, inHold      int
}

func (d *diskStats) add(o diskStats) {
	d.torn += o.torn
	d.lost += o.lost
	d.reverted += o.reverted
	d.midPublish += o.midPublish
	d.byRequests += o.byRequests
	d.byBound += o.byBound
	d.inHold += o.inHold
}

type dirent struct {
	name string
	f    *inode // nil in a change: the name goes
}

type inode struct {
	data   []byte
	synced int // data[:synced] is on stable storage
}

var errDied = errors.New("simulated process died")

func newSimDisk(rng *rand.Rand, stats *diskStats) *simDisk {
	return &simDisk{rng: rng, stats: stats, names: [][]dirent{nil}}
}

// op counts one operation towards dieIn and fails once the process died.
func (d *simDisk) op(what string) error {
	if d.died == "" && d.dieIn > 0 {
		if d.dieIn--; d.dieIn == 0 {
			d.died = what
		}
	}
	if d.died != "" {
		return errDied
	}
	return nil
}

func (d *simDisk) lookup(name string) *inode {
	name = filepath.Base(name)
	for _, e := range d.dir {
		if e.name == name {
			return e.f
		}
	}
	return nil
}

// change applies one atomic name change to a copy of the directory: the
// copies since the last SyncDir are what a crash chooses from.
func (d *simDisk) change(changes ...dirent) {
	dir := slices.Clone(d.dir)
	for _, c := range changes {
		name := filepath.Base(c.name)
		dir = slices.DeleteFunc(dir, func(e dirent) bool { return e.name == name })
		if c.f != nil {
			dir = append(dir, dirent{name, c.f})
		}
	}
	slices.SortFunc(dir, func(a, b dirent) int { return strings.Compare(a.name, b.name) })
	d.dir = dir
	d.names = append(d.names, dir)
}

// crash leaves what the disk holds once its process has died. died
// keeps naming the step it died at, if it did, until the next boot.
func (d *simDisk) crash() {
	keep := d.rng.Intn(len(d.names))
	if keep < len(d.names)-1 {
		d.stats.reverted++
	}
	d.dir = d.names[keep]
	d.names = [][]dirent{d.dir}
	for _, e := range d.dir {
		if unsynced := len(e.f.data) - e.f.synced; unsynced > 0 {
			landed := d.rng.Intn(unsynced + 1)
			if landed < unsynced {
				d.stats.lost++
				if landed > 0 {
					d.stats.torn++
				}
			}
			e.f.data = e.f.data[:e.f.synced+landed]
			e.f.synced = len(e.f.data)
		}
	}
	d.dieIn = 0
}

func (d *simDisk) OpenFile(name string, flag int) (storage.File, error) {
	if err := d.op("open"); err != nil {
		return nil, err
	}
	f := d.lookup(name)
	switch {
	case f != nil && flag&os.O_EXCL != 0:
		return nil, fs.ErrExist
	case f == nil && flag&os.O_CREATE == 0:
		return nil, fs.ErrNotExist
	case f == nil || flag&os.O_TRUNC != 0:
		f = &inode{}
		d.change(dirent{name, f})
	}
	return simFile{d, f}, nil
}

func (d *simDisk) ReadFile(name string) ([]byte, error) {
	if err := d.op("read"); err != nil {
		return nil, err
	}
	if f := d.lookup(name); f != nil {
		return slices.Clone(f.data), nil
	}
	return nil, fs.ErrNotExist
}

func (d *simDisk) ReadDir(string) ([]string, error) {
	if err := d.op("list"); err != nil {
		return nil, err
	}
	names := make([]string, len(d.dir))
	for i, e := range d.dir {
		names[i] = e.name
	}
	return names, nil
}

func (d *simDisk) Rename(oldname, newname string) error {
	if err := d.op("rename"); err != nil {
		return err
	}
	f := d.lookup(oldname)
	if f == nil {
		return fs.ErrNotExist
	}
	d.change(dirent{newname, f}, dirent{oldname, nil})
	return nil
}

func (d *simDisk) Remove(name string) error {
	if err := d.op("remove"); err != nil {
		return err
	}
	if d.lookup(name) == nil {
		return fs.ErrNotExist
	}
	d.change(dirent{name, nil})
	return nil
}

func (d *simDisk) SyncDir(string) error {
	if err := d.op("dir fsync"); err != nil {
		return err
	}
	d.names = [][]dirent{d.dir}
	return nil
}

// simFile is an open file: writes append, as all of storage's do.
type simFile struct {
	d *simDisk
	f *inode
}

func (h simFile) Write(p []byte) (int, error) {
	if err := h.d.op("write"); err != nil {
		return 0, err
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h simFile) Sync() error {
	if err := h.d.op("fsync"); err != nil {
		return err
	}
	h.f.synced = len(h.f.data)
	return nil
}

// Truncate counts as durable at once; storage syncs right behind it.
func (h simFile) Truncate(size int64) error {
	if err := h.d.op("truncate"); err != nil {
		return err
	}
	h.f.data = h.f.data[:size]
	h.f.synced = min(h.f.synced, len(h.f.data))
	return nil
}

func (h simFile) Close() error { return h.d.op("close") }

// rot flips the last byte of the newest file whose name starts with
// prefix — decay no crash explains — and returns its name.
func (d *simDisk) rot(prefix string) string {
	for i := len(d.dir) - 1; i >= 0; i-- {
		if e := d.dir[i]; strings.HasPrefix(e.name, prefix) && len(e.f.data) > 0 {
			e.f.data[len(e.f.data)-1] ^= 0xff
			return e.name
		}
	}
	return ""
}
