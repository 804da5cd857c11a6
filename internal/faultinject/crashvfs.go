// Crash-point injection: a virtual file system whose every durable
// operation is a numbered crash site.
//
// The adapter store (internal/store) drives all of its disk I/O through
// the VFS seam below. In production that is a thin wrapper over the os
// package. Under test, CrashVFS interposes: it buffers writes the way an
// operating system page cache does (nothing reaches the durable file
// until Sync), counts every WriteAt / Sync / Truncate / Rename / Remove
// as one crash site, and at a planned site simulates power loss — the
// process "dies" (every subsequent operation fails with ErrCrashed) and
// all unsynced data is gone, exactly as a real crash would leave the
// disk. Three failure shapes are modelled at the chosen site:
//
//	CrashClean   the operation never happens; unsynced data is lost.
//	CrashTorn    a prefix of the operation's bytes becomes durable
//	             before the lights go out (a torn sector write).
//	CrashBitFlip the operation lands fully but with one bit flipped
//	             (a datapath or media error at the worst moment).
//
// A crash-matrix test first probes a workload with no crash planned to
// enumerate its sites, then replays it once per (site, mode) pair and
// asserts the store recovers. Because the workload is deterministic, the
// site numbering is too.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrCrashed marks every I/O operation attempted after the injected
// crash fired: the simulated process is dead and nothing else reaches
// the disk.
var ErrCrashed = errors.New("faultinject: simulated crash (power lost)")

// VFS is the file-system seam crash injection interposes on. The store
// performs every durable operation through it.
type VFS interface {
	// Open opens path read-write, creating it if absent.
	Open(path string) (File, error)
	// Remove deletes path (no error if absent is not required).
	Remove(path string) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
}

// File is the random-access durable file handle the store writes its
// log through.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Sync makes every preceding write durable.
	Sync() error
	// Truncate resizes the file.
	Truncate(size int64) error
	// Size returns the current file size as observed by ReadAt.
	Size() (int64, error)
	Close() error
}

// OSVFS is the production VFS: direct os-package I/O.
type OSVFS struct{}

type osFile struct{ f *os.File }

// Open implements VFS.
func (OSVFS) Open(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

// Remove implements VFS.
func (OSVFS) Remove(path string) error { return os.Remove(path) }

// Rename implements VFS.
func (OSVFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (f *osFile) ReadAt(p []byte, off int64) (int, error)  { return f.f.ReadAt(p, off) }
func (f *osFile) WriteAt(p []byte, off int64) (int, error) { return f.f.WriteAt(p, off) }
func (f *osFile) Sync() error                              { return f.f.Sync() }
func (f *osFile) Truncate(size int64) error                { return f.f.Truncate(size) }
func (f *osFile) Close() error                             { return f.f.Close() }

func (f *osFile) Size() (int64, error) {
	st, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// CrashMode selects what the planned crash site does to the operation it
// interrupts.
type CrashMode int

const (
	// CrashClean loses the operation entirely (and all unsynced data).
	CrashClean CrashMode = iota
	// CrashTorn makes a prefix of the operation's bytes durable first.
	CrashTorn
	// CrashBitFlip makes the operation durable with one bit flipped.
	CrashBitFlip
)

// String names the mode for reports.
func (m CrashMode) String() string {
	switch m {
	case CrashClean:
		return "clean"
	case CrashTorn:
		return "torn"
	case CrashBitFlip:
		return "bitflip"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// CrashModes lists every mode a crash matrix should exercise.
var CrashModes = []CrashMode{CrashClean, CrashTorn, CrashBitFlip}

// CrashPlan schedules one simulated crash. Site is the 1-based index of
// the durable operation to crash at; 0 means never crash (the probe run
// that enumerates sites).
type CrashPlan struct {
	Site int
	Mode CrashMode
}

// CrashSite describes one enumerated durable operation, recorded by the
// probe run and reported by the crash matrix.
type CrashSite struct {
	Site int    `json:"site"`
	Op   string `json:"op"`   // write, sync, truncate, rename, remove
	File string `json:"file"` // base name of the file the op touched
	Len  int    `json:"len,omitempty"`
}

// CrashVFS simulates an operating system between the store and the disk:
// writes are buffered per file until Sync, and the configured CrashPlan
// fires mid-workload. Safe for concurrent use (the store serializes
// commits, but reads run concurrently).
type CrashVFS struct {
	base VFS
	plan CrashPlan

	mu      sync.Mutex
	site    int
	crashed bool
	sites   []CrashSite
	files   map[string]*crashFile
}

// NewCrashVFS wraps base (nil means OSVFS) with the plan.
func NewCrashVFS(base VFS, plan CrashPlan) *CrashVFS {
	if base == nil {
		base = OSVFS{}
	}
	return &CrashVFS{base: base, plan: plan, files: map[string]*crashFile{}}
}

// Crashed reports whether the planned crash has fired.
func (v *CrashVFS) Crashed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.crashed
}

// Sites returns the durable operations counted so far (the crash-site
// enumeration when the plan never fires).
func (v *CrashVFS) Sites() []CrashSite {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]CrashSite(nil), v.sites...)
}

// step books one durable operation. It returns (fire, mode): fire is true
// exactly at the planned site; once fired — or for any op after — the
// caller must fail with ErrCrashed. Caller holds v.mu.
func (v *CrashVFS) step(op, path string, n int) (bool, error) {
	if v.crashed {
		return false, ErrCrashed
	}
	v.site++
	v.sites = append(v.sites, CrashSite{Site: v.site, Op: op, File: filepath.Base(path), Len: n})
	if v.plan.Site > 0 && v.site == v.plan.Site {
		v.crashed = true
		return true, nil
	}
	return false, nil
}

// flipBit deterministically flips one bit of p in place, keyed by the
// site number so different sites damage different bits.
func flipBit(p []byte, site int) {
	if len(p) == 0 {
		return
	}
	i := (site * 7919) % len(p)
	p[i] ^= 1 << (site % 8)
}

// Open implements VFS. Opening is not a crash site (it performs no
// durable mutation), but a crashed VFS refuses it.
func (v *CrashVFS) Open(path string) (File, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.crashed {
		return nil, ErrCrashed
	}
	if cf, ok := v.files[path]; ok {
		return cf, nil
	}
	f, err := v.base.Open(path)
	if err != nil {
		return nil, err
	}
	cf := &crashFile{vfs: v, path: path, f: f}
	v.files[path] = cf
	return cf, nil
}

// Remove implements VFS; one crash site (clean only — there is no torn
// unlink).
func (v *CrashVFS) Remove(path string) error {
	v.mu.Lock()
	fire, err := v.step("remove", path, 0)
	if err != nil {
		v.mu.Unlock()
		return err
	}
	delete(v.files, path)
	v.mu.Unlock()
	if fire {
		return ErrCrashed // the unlink never reached the disk
	}
	return v.base.Remove(path)
}

// Rename implements VFS; one crash site. Rename is atomic on the real
// disk, so torn/bitflip degrade to clean: either it happened or it did
// not. The crash fires before the rename, modelling the unluckier half.
func (v *CrashVFS) Rename(oldpath, newpath string) error {
	v.mu.Lock()
	fire, err := v.step("rename", oldpath, 0)
	if err != nil {
		v.mu.Unlock()
		return err
	}
	of := v.files[oldpath]
	if !fire {
		delete(v.files, oldpath)
		if of != nil {
			of.path = newpath
			v.files[newpath] = of
		}
	}
	v.mu.Unlock()
	if fire {
		return ErrCrashed
	}
	return v.base.Rename(oldpath, newpath)
}

// pendingOp is one unsynced mutation, replayed in order.
type pendingOp struct {
	off      int64
	data     []byte
	truncate bool
	size     int64
}

// crashFile buffers writes until Sync, like a page cache.
type crashFile struct {
	vfs  *CrashVFS
	path string
	f    File

	// pending is the ordered unsynced-op log (guarded by vfs.mu).
	pending []pendingOp
}

// ReadAt reads through the durable file with unsynced ops overlaid, the
// view the running process sees.
func (c *crashFile) ReadAt(p []byte, off int64) (int, error) {
	c.vfs.mu.Lock()
	defer c.vfs.mu.Unlock()
	if c.vfs.crashed {
		return 0, ErrCrashed
	}
	size := c.sizeLocked()
	if off >= size {
		return 0, io.EOF
	}
	want := len(p)
	if off+int64(want) > size {
		want = int(size - off)
	}
	// Base bytes (zero-fill past the durable end: unsynced extends).
	n, err := c.f.ReadAt(p[:want], off)
	if err != nil && err != io.EOF {
		return n, err
	}
	for i := n; i < want; i++ {
		p[i] = 0
	}
	// Overlay unsynced ops in order.
	end := off + int64(want)
	for _, op := range c.pending {
		if op.truncate {
			for i := op.size; i < end; i++ {
				if i >= off {
					p[i-off] = 0
				}
			}
			continue
		}
		from, to := op.off, op.off+int64(len(op.data))
		if to <= off || from >= end {
			continue
		}
		cs, ce := from, to
		if cs < off {
			cs = off
		}
		if ce > end {
			ce = end
		}
		copy(p[cs-off:ce-off], op.data[cs-op.off:ce-op.off])
	}
	if int64(want) < int64(len(p)) {
		return want, io.EOF
	}
	return want, nil
}

// sizeLocked is the overlaid size. Caller holds vfs.mu.
func (c *crashFile) sizeLocked() int64 {
	size, _ := c.f.Size()
	for _, op := range c.pending {
		if op.truncate {
			size = op.size
		} else if e := op.off + int64(len(op.data)); e > size {
			size = e
		}
	}
	return size
}

func (c *crashFile) Size() (int64, error) {
	c.vfs.mu.Lock()
	defer c.vfs.mu.Unlock()
	if c.vfs.crashed {
		return 0, ErrCrashed
	}
	return c.sizeLocked(), nil
}

// WriteAt buffers the write (unsynced). At the planned site the crash
// fires: clean loses this write, torn makes a prefix durable, bitflip
// makes a damaged copy durable — and everything still pending is lost.
func (c *crashFile) WriteAt(p []byte, off int64) (int, error) {
	c.vfs.mu.Lock()
	defer c.vfs.mu.Unlock()
	fire, err := c.vfs.step("write", c.path, len(p))
	if err != nil {
		return 0, err
	}
	if fire {
		switch c.vfs.plan.Mode {
		case CrashTorn:
			if n := len(p) / 2; n > 0 {
				c.f.WriteAt(p[:n], off)
			}
		case CrashBitFlip:
			d := append([]byte(nil), p...)
			flipBit(d, c.vfs.site)
			c.f.WriteAt(d, off)
		}
		c.f.Sync()
		return 0, ErrCrashed
	}
	c.pending = append(c.pending, pendingOp{off: off, data: append([]byte(nil), p...)})
	return len(p), nil
}

// Truncate buffers the resize like any other unsynced op.
func (c *crashFile) Truncate(size int64) error {
	c.vfs.mu.Lock()
	defer c.vfs.mu.Unlock()
	fire, err := c.vfs.step("truncate", c.path, 0)
	if err != nil {
		return err
	}
	if fire {
		return ErrCrashed // the resize never became durable
	}
	c.pending = append(c.pending, pendingOp{truncate: true, size: size})
	return nil
}

// Sync flushes every pending op to the durable file in order. At the
// planned site the crash interrupts the flush: clean flushes nothing,
// torn flushes a prefix of the pending ops (the last one cut in half),
// bitflip flushes everything but flips one bit in one op.
func (c *crashFile) Sync() error {
	c.vfs.mu.Lock()
	defer c.vfs.mu.Unlock()
	fire, err := c.vfs.step("sync", c.path, len(c.pending))
	if err != nil {
		return err
	}
	if fire {
		switch c.vfs.plan.Mode {
		case CrashTorn:
			// Half the pending ops land; the last of them is torn.
			keep := (len(c.pending) + 1) / 2
			for i := 0; i < keep; i++ {
				op := c.pending[i]
				if op.truncate {
					c.f.Truncate(op.size)
					continue
				}
				d := op.data
				if i == keep-1 && len(d) > 1 {
					d = d[:len(d)/2]
				}
				c.f.WriteAt(d, op.off)
			}
		case CrashBitFlip:
			for i, op := range c.pending {
				if op.truncate {
					c.f.Truncate(op.size)
					continue
				}
				d := op.data
				if i == len(c.pending)-1 {
					d = append([]byte(nil), d...)
					flipBit(d, c.vfs.site)
				}
				c.f.WriteAt(d, op.off)
			}
		}
		c.f.Sync()
		c.pending = nil
		return ErrCrashed
	}
	for _, op := range c.pending {
		if op.truncate {
			if err := c.f.Truncate(op.size); err != nil {
				return err
			}
			continue
		}
		if _, err := c.f.WriteAt(op.data, op.off); err != nil {
			return err
		}
	}
	c.pending = nil
	return c.f.Sync()
}

// Close closes the durable handle. Unsynced data is dropped — exactly
// what a crash before Sync would do — so tests that Close without Sync
// observe the loss. Not a crash site: closing performs no durable write.
func (c *crashFile) Close() error {
	c.vfs.mu.Lock()
	defer c.vfs.mu.Unlock()
	c.pending = nil
	delete(c.vfs.files, c.path)
	return c.f.Close()
}

// SiteOps summarizes enumerated sites per operation kind, for reports.
func SiteOps(sites []CrashSite) map[string]int {
	m := map[string]int{}
	for _, s := range sites {
		m[s.Op]++
	}
	return m
}

// SortSites orders a site list by site number (reports).
func SortSites(sites []CrashSite) {
	sort.Slice(sites, func(i, j int) bool { return sites[i].Site < sites[j].Site })
}
