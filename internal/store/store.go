// Package store is faccd's crash-safe adapter cache. Synthesized
// adapters are expensive to produce (a full generate-and-test search)
// and cheap to keep, so the daemon memoizes them keyed by the request
// digest (facc.CompileRequest.Digest). The failure model is hostile: the
// process may be SIGKILLed mid-write, the disk may tear a sector, a bit
// may flip in flight. A damaged entry is never served — it is detected,
// quarantined into quarantine/ (bounded by age and count) and
// recompiled — while every acknowledged entry survives a crash at any
// point in the write path. The crash matrix (internal/eval) proves that
// contract at every enumerated crash site.
//
// Engine: one append-only log of checksummed frames (log.go), each an
// entry record (entry.go) or a tombstone, plus an in-memory map from key
// to the offset and length of its newest frame — the Bitcask design.
// Open rebuilds the map in one sequential scan, cutting off the torn
// tail of an interrupted append and quarantining damaged records one by
// one. Put and Delete append a frame; concurrent calls share one write
// and one fsync, and the map points only at durable frames. Get is one
// map lookup and one ReadAt, and never waits for a commit. Compaction
// streams the live frames into a fresh file and installs it with one
// rename. The map holds offsets, never record bytes, and records are
// read rather than mapped, so memory does not grow with the adapters. A
// store.db or wal.log in the directory was written by an earlier build
// (a paged B-tree): both are set aside, the WAL first, and the store
// starts empty.
//
// All disk I/O runs through a faultinject.VFS (crash-site injection
// under test) and a faultinject.IOBreaker: when storage itself goes
// sick the store degrades to a pass-through — every Get a miss, Puts
// dropped — instead of stalling the compile service on a dying disk.
//
// Metrics (in the registry passed to Open): store.hits, store.misses,
// store.writes, store.deletes, store.commits, store.commit_batches,
// store.corrupt_quarantined, store.torn_tails, store.compactions,
// store.compact_aborted, store.io_errors, store.format_resets, gauges
// store.live_records, store.dead_bytes, store.log_bytes,
// store.quarantined, and the store.breaker.* family.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"facc/internal/faultinject"
	"facc/internal/obs"
)

// LogFile is the name of the log inside the store directory.
const LogFile = "store.log"

// Options tunes the store. The zero value means defaults.
type Options struct {
	// DisableVerifyOnOpen skips the entry checksum of every record
	// during Open's scan (frame CRCs are always checked). Get verifies
	// each entry it serves either way.
	DisableVerifyOnOpen bool
	// AutoCompactBytes triggers compaction after a commit once dead
	// frames exceed this many bytes and half the log (default 16 MiB;
	// negative disables).
	AutoCompactBytes int64
	// QuarantineMaxFiles bounds the quarantine directory by count
	// (default 512; oldest evidence is discarded first).
	QuarantineMaxFiles int
	// QuarantineMaxAge bounds quarantined evidence by age (default 7
	// days).
	QuarantineMaxAge time.Duration
	// VFS is the file-system seam (default the real OS). The crash
	// matrix injects a faultinject.CrashVFS here.
	VFS faultinject.VFS
}

func (o Options) withDefaults() Options {
	if o.AutoCompactBytes == 0 {
		o.AutoCompactBytes = 16 << 20
	}
	if o.QuarantineMaxFiles == 0 {
		o.QuarantineMaxFiles = 512
	}
	if o.QuarantineMaxAge == 0 {
		o.QuarantineMaxAge = 7 * 24 * time.Hour
	}
	if o.VFS == nil {
		o.VFS = faultinject.OSVFS{}
	}
	return o
}

// loc is where a key's newest frame lies in the log.
type loc struct {
	off int64
	n   uint32 // record length; the frame is frameHeader+n bytes
}

func (l loc) size() int64 { return frameHeader + int64(l.n) }

// storeOp is one unit of work for the committer: a record to append
// (an entry or a tombstone), or a compaction when rec is nil.
type storeOp struct {
	key  string
	rec  []byte
	resp chan error
}

// Store is the crash-safe adapter cache rooted at one directory. Safe
// for concurrent use: reads go straight to the file, writes serialize
// through a single group-committing goroutine.
type Store struct {
	dir  string
	reg  *obs.Registry
	opts Options
	vfs  faultinject.VFS

	breaker *faultinject.IOBreaker

	// FaultHook, when non-nil, is consulted before disk operations (op
	// is "read", "append", "sync" or "compact") and may return an error
	// to inject storage faults, or block to hold a commit in flight.
	// Production leaves it nil.
	FaultHook func(op, path string) error

	// mu guards the four fields below. Readers hold it shared across
	// their ReadAt, so compaction, which swaps f under the exclusive
	// lock, closes the old file only after them. The committer writes
	// them, and a Get that quarantines a frame drops its key.
	mu    sync.RWMutex
	f     faultinject.File
	index map[string]loc
	end   int64 // end of the durable log: the next append goes here
	dead  int64 // bytes of frames the index no longer points at

	wbuf      []byte // the committer's append buffer
	closeOnce sync.Once
	ops       chan *storeOp
	stop      chan struct{}
	done      chan struct{}
}

// Open opens (creating if needed) the store at dir with defaults,
// recovering from any prior crash: the log is scanned, its torn tail
// truncated and damaged records quarantined. reg may be nil.
func Open(dir string, reg *obs.Registry) (*Store, error) {
	return OpenOptions(dir, reg, Options{})
}

// OpenOptions opens the store with explicit tuning.
func OpenOptions(dir string, reg *obs.Registry, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{
		dir: dir, reg: reg, opts: opts, vfs: opts.VFS,
		breaker: faultinject.NewIOBreaker("store", reg),
		index:   map[string]loc{},
		wbuf:    make([]byte, 0, appendBufSize),
		// Room for a burst of writers to queue while a batch commits;
		// the committer drains up to 64 of them into the next batch.
		ops:  make(chan *storeOp, 256),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, d := range []string{dir, s.quarantineDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// A leftover compaction file is pre-rename garbage.
	os.Remove(s.compactPath())

	// Files of an older build. The WAL goes first, so a crash in
	// between never leaves it beside a database it no longer matches.
	reset := false
	for _, name := range []string{"wal.log", "store.db"} {
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); err == nil {
			if !reset {
				s.count("store.format_resets")
				reset = true
			}
			s.setAside(path, name)
		}
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.gcQuarantine()
	s.updateGauges()
	go s.committer()
	return s, nil
}

// load opens the log and rebuilds the index from it.
func (s *Store) load() error {
	f, err := s.vfs.Open(s.logPath())
	if err != nil {
		return fmt.Errorf("store: opening log: %w", err)
	}
	fail := func(what string, err error) error {
		f.Close()
		return fmt.Errorf("store: %s log: %w", what, err)
	}
	size, err := f.Size()
	if err != nil {
		return fail("sizing", err)
	}
	hdr := make([]byte, min(size, int64(len(logHeader))))
	if _, err := readFull(f, hdr, 0); err != nil {
		return fail("reading", err)
	}
	var end int64 // end of the valid prefix
	switch {
	case string(hdr) == logHeader:
		if end, err = scanFrames(f, int64(len(logHeader)), size, s.indexFrame); err != nil {
			return fail("scanning", err)
		}
	case !strings.HasPrefix(logHeader, string(hdr)):
		// Not a log this build reads and not a torn creation of one:
		// never guess. Set it aside and start fresh.
		f.Close()
		s.count("store.corrupt_quarantined")
		s.setAside(s.logPath(), LogFile)
		if f, err = s.vfs.Open(s.logPath()); err != nil {
			return fmt.Errorf("store: recreating log: %w", err)
		}
		size = 0
	}
	if end < size {
		s.count("store.torn_tails")
		tail := make([]byte, min(size-end, 64<<10))
		if n, _ := f.ReadAt(tail, end); n > 0 {
			s.saveEvidence(fmt.Sprintf("tail-%d.bin", end), tail[:n])
		}
		if err := f.Truncate(end); err != nil {
			return fail("truncating", err)
		}
	}
	if end == 0 {
		// A new log. Its header becomes durable with the first commit's
		// fsync; until then the log holds nothing to lose.
		if _, err := f.WriteAt([]byte(logHeader), 0); err != nil {
			return fail("writing", err)
		}
		end = int64(len(logHeader))
		syncDir(s.dir)
	}
	// The scan may have read frames a dead process wrote but never
	// synced; the index must point only at durable ones.
	if size > 0 {
		if err := f.Sync(); err != nil {
			return fail("syncing", err)
		}
	}
	s.f, s.end = f, end
	return nil
}

// indexFrame is Open's scan visitor: it applies one frame to the index,
// or quarantines its record.
func (s *Store) indexFrame(off int64, rec []byte, ok bool) {
	l := loc{off: off, n: uint32(len(rec))}
	var key []byte
	err := errors.New("record fails its CRC")
	switch {
	case !ok:
	case rec[0] == tombstoneFormat:
		key, err = rec[1:], nil
	case s.opts.DisableVerifyOnOpen:
		var spans [7][2]int
		if spans, _, err = walkEntry(rec); err == nil {
			key = rec[spans[0][0]:spans[0][1]]
		}
	default:
		key, err = checkEntry(rec)
	}
	if err != nil {
		s.count("store.corrupt_quarantined")
		s.saveEvidence(fmt.Sprintf("record-%d.bin", off), rec)
		s.dead += l.size()
		return
	}
	s.apply(string(key), l, rec[0] == tombstoneFormat)
}

// apply points key at the frame at l, or removes it for a tombstone, and
// counts the bytes no longer indexed. Caller holds mu exclusively, or
// owns the store (Open).
func (s *Store) apply(key string, l loc, tomb bool) {
	if old, ok := s.index[key]; ok {
		s.dead += old.size()
	}
	if tomb {
		delete(s.index, key)
		s.dead += l.size()
		return
	}
	s.index[key] = l
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Breaker exposes the store's I/O circuit breaker (state inspection and
// journaling hooks).
func (s *Store) Breaker() *faultinject.IOBreaker { return s.breaker }

func (s *Store) logPath() string       { return filepath.Join(s.dir, LogFile) }
func (s *Store) compactPath() string   { return s.logPath() + ".compact" }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

func (s *Store) fault(op string) error {
	if s.FaultHook != nil {
		return s.FaultHook(op, s.logPath())
	}
	return nil
}

func (s *Store) count(name string) { s.reg.Counter(name).Inc() }

// setAside moves a whole file into quarantine/ as evidence. A file that
// cannot be moved is removed: it must not be reused either way.
func (s *Store) setAside(path, name string) {
	dst := filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", name, time.Now().UnixNano()))
	if err := s.vfs.Rename(path, dst); err != nil {
		s.vfs.Remove(path)
	}
}

// syncDir makes a created or renamed directory entry durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// frameBufs recycles Get's read buffers; the entry it returns is a copy.
var frameBufs sync.Pool

// Get returns the entry stored under key, or found=false on a miss. A
// damaged frame or entry is quarantined and reported as a miss: the
// caller recompiles. Storage I/O errors degrade to a miss through the
// breaker — the store never fails a compile, it only stops helping.
func (s *Store) Get(key string) (Entry, bool) {
	var e Entry
	var found bool
	err := s.breaker.Do(func() error {
		if err := s.fault("read"); err != nil {
			s.count("store.io_errors")
			return err
		}
		bp, _ := frameBufs.Get().(*[]byte)
		if bp == nil {
			bp = new([]byte)
		}
		defer frameBufs.Put(bp)
		s.mu.RLock()
		l, ok := s.index[key]
		if !ok {
			s.mu.RUnlock()
			return nil
		}
		if cap(*bp) < int(l.size()) {
			*bp = make([]byte, l.size())
		}
		fr := (*bp)[:l.size()]
		_, err := readFull(s.f, fr, l.off)
		s.mu.RUnlock()
		if err != nil {
			s.count("store.io_errors")
			return err
		}
		if e, err = verifyFrame(key, fr); err != nil {
			s.quarantine(key, l, fr)
			return nil
		}
		found = true
		return nil
	})
	if err != nil || !found {
		s.count("store.misses")
		return Entry{}, false
	}
	s.count("store.hits")
	return e, true
}

// quarantine contains damage found by a read: it drops the key from the
// index, so every later Get misses until a recompile overwrites it, and
// preserves the frame's bytes. Concurrent readers of the same frame
// quarantine it exactly once.
func (s *Store) quarantine(key string, l loc, frame []byte) {
	s.mu.Lock()
	cur, ok := s.index[key]
	if ok && cur == l {
		delete(s.index, key)
		s.dead += l.size()
	}
	s.mu.Unlock()
	if !ok || cur != l {
		return
	}
	s.count("store.corrupt_quarantined")
	s.writeQuarantineFile(fmt.Sprintf("entry-%s.bin", sanitizeName(key)), frame)
}

// Len counts live entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Check reads and verifies every live entry and returns the problems
// found (nil means every entry the store would serve is intact). Used
// by tests and the crash matrix.
func (s *Store) Check() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var problems []string
	for key, l := range s.index {
		fr := make([]byte, l.size())
		_, err := readFull(s.f, fr, l.off)
		if err == nil {
			_, err = verifyFrame(key, fr)
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("key %s, frame at %d: %v", key, l.off, err))
		}
	}
	return problems
}

func (s *Store) updateGauges() {
	s.mu.RLock()
	live, dead, end := len(s.index), s.dead, s.end
	s.mu.RUnlock()
	s.reg.Gauge("store.live_records").Set(float64(live))
	s.reg.Gauge("store.dead_bytes").Set(float64(dead))
	s.reg.Gauge("store.log_bytes").Set(float64(end))
}

// Put durably stores the entry under key. It returns once the entry's
// frame is fsynced — concurrent Puts coalesce into one write and one
// fsync. Errors mean the entry may not be cached; they never imply a
// torn entry is visible (Get would quarantine one).
func (s *Store) Put(key string, e Entry) error {
	e.Key = key
	if err := s.submit(&storeOp{key: key, rec: sealEntry(&e)}); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	return nil
}

// Delete removes the entry under key by appending a tombstone. Missing
// keys are not an error.
func (s *Store) Delete(key string) error {
	if err := s.submit(&storeOp{key: key, rec: tombstone(key)}); err != nil {
		return fmt.Errorf("store: delete %s: %w", key, err)
	}
	return nil
}

// Compact synchronously rewrites the live entries into a fresh log,
// dropping superseded frames and tombstones, and installs it atomically.
func (s *Store) Compact() error {
	if err := s.submit(&storeOp{}); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

var errClosed = errors.New("store is closed")

func (s *Store) submit(op *storeOp) error {
	op.resp = make(chan error, 1)
	select {
	case s.ops <- op:
	case <-s.stop:
		return errClosed
	}
	select {
	case err := <-op.resp:
		return err
	case <-s.stop:
		return errClosed
	}
}

// committer is the single writer: it drains queued operations into
// batches, each batch one write and one fsync.
func (s *Store) committer() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case op := <-s.ops:
			batch := []*storeOp{op}
		drain:
			for len(batch) < 64 {
				select {
				case op2 := <-s.ops:
					batch = append(batch, op2)
				default:
					break drain
				}
			}
			s.runBatch(batch)
		}
	}
}

func (s *Store) runBatch(batch []*storeOp) {
	// Compactions run alone: split them out of the batch.
	var work []*storeOp
	for _, op := range batch {
		if op.rec == nil {
			op.resp <- s.breaker.Do(s.compactNow)
			continue
		}
		work = append(work, op)
	}
	if len(work) == 0 {
		return
	}
	err := s.breaker.Do(func() error { return s.commit(work) })
	if err == nil {
		s.count("store.commit_batches")
	}
	for _, op := range work {
		if err == nil {
			s.count("store.commits")
			if op.rec[0] == tombstoneFormat {
				s.count("store.deletes")
			} else {
				s.count("store.writes")
			}
		}
		op.resp <- err
	}
	s.updateGauges()
	s.maybeAutoCompact()
}

// commit appends a batch as one write and one fsync — the durability
// point — and then points the index at the new frames.
func (s *Store) commit(batch []*storeOp) error {
	fail := func(stage string, err error) error {
		s.count("store.io_errors")
		s.f.Truncate(s.end) // best effort: drop the undurable tail
		return fmt.Errorf("store: commit %s: %w", stage, err)
	}
	if err := s.fault("append"); err != nil {
		return fail("append", err)
	}
	w := appender{f: s.f, off: s.end, buf: s.wbuf[:0]}
	locs := make([]loc, len(batch))
	for i, op := range batch {
		locs[i] = loc{off: w.pos(), n: uint32(len(op.rec))}
		if err := w.frame(op.rec); err != nil {
			return fail("append", err)
		}
	}
	if err := w.flush(); err != nil {
		return fail("append", err)
	}
	if err := s.fault("sync"); err != nil {
		return fail("sync", err)
	}
	if err := s.f.Sync(); err != nil {
		return fail("sync", err)
	}
	s.mu.Lock()
	for i, op := range batch {
		s.apply(op.key, locs[i], op.rec[0] == tombstoneFormat)
	}
	s.end = w.off
	s.mu.Unlock()
	return nil
}

func (s *Store) maybeAutoCompact() {
	if s.opts.AutoCompactBytes < 0 {
		return
	}
	s.mu.RLock()
	dead, end := s.dead, s.end
	s.mu.RUnlock()
	if dead >= s.opts.AutoCompactBytes && 2*dead >= end {
		s.breaker.Do(s.compactNow)
	}
}

// compactNow (committer goroutine only) copies every live frame, in log
// order, into a fresh file through a bounded buffer and installs it with
// one rename. A crash before the rename leaves the old log untouched;
// Open removes the leftover file.
func (s *Store) compactNow() error {
	if err := s.fault("compact"); err != nil {
		return err
	}
	type liveFrame struct {
		key string
		l   loc
	}
	s.mu.RLock()
	live := make([]liveFrame, 0, len(s.index))
	for k, l := range s.index {
		live = append(live, liveFrame{k, l})
	}
	s.mu.RUnlock()
	sort.Slice(live, func(i, j int) bool { return live[i].l.off < live[j].l.off })

	nf, err := s.vfs.Open(s.compactPath())
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	abort := func(why error) error {
		nf.Close()
		os.Remove(s.compactPath())
		s.count("store.compact_aborted")
		return fmt.Errorf("store: compact: %w", why)
	}
	w := appender{f: nf, buf: make([]byte, 0, scanBufSize)}
	if err := w.write([]byte(logHeader)); err != nil {
		return abort(err)
	}
	moved := make([]loc, len(live))
	var fr []byte
	for i, lf := range live {
		if int64(cap(fr)) < lf.l.size() {
			fr = make([]byte, lf.l.size())
		}
		fr = fr[:lf.l.size()]
		if _, err := readFull(s.f, fr, lf.l.off); err != nil {
			return abort(err)
		}
		if !checkFrame(fr) {
			s.count("store.corrupt_quarantined") // damaged: the key misses from now on
			s.saveEvidence(fmt.Sprintf("entry-%s.bin", sanitizeName(lf.key)), fr)
			continue
		}
		moved[i] = loc{off: w.pos(), n: lf.l.n}
		if err := w.write(fr); err != nil {
			return abort(err)
		}
	}
	if err := w.flush(); err != nil {
		return abort(err)
	}
	if err := nf.Sync(); err != nil {
		return abort(err)
	}
	if err := s.vfs.Rename(s.compactPath(), s.logPath()); err != nil {
		return abort(err)
	}
	syncDir(s.dir)

	// The exclusive lock waits out every Get still reading the old file.
	s.mu.Lock()
	old := s.f
	s.f, s.end, s.dead = nf, w.off, 0
	for i, lf := range live {
		if cur, ok := s.index[lf.key]; !ok || cur != lf.l {
			continue // quarantined while the copy ran
		}
		if moved[i].n == 0 {
			delete(s.index, lf.key)
		} else {
			s.index[lf.key] = moved[i]
		}
	}
	s.mu.Unlock()
	old.Close()
	s.count("store.compactions")
	s.updateGauges()
	return nil
}

func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// saveEvidence preserves damaged bytes under a unique name. Open's scan
// saves without pruning and prunes once at the end.
func (s *Store) saveEvidence(name string, data []byte) {
	path := filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", name, time.Now().UnixNano()))
	os.WriteFile(path, data, 0o644)
}

// writeQuarantineFile preserves evidence bytes, then prunes the
// directory to its configured bounds.
func (s *Store) writeQuarantineFile(name string, data []byte) {
	s.saveEvidence(name, data)
	s.gcQuarantine()
}

// gcQuarantine bounds the quarantine directory by age and count (oldest
// evidence goes first) and refreshes the store.quarantined gauge, so
// repeated corruption can never fill the disk.
func (s *Store) gcQuarantine() {
	dir := s.quarantineDir()
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type qf struct {
		name string
		mod  time.Time
	}
	files := make([]qf, 0, len(des))
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		info, ierr := de.Info()
		if ierr != nil {
			continue
		}
		files = append(files, qf{name: de.Name(), mod: info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	cutoff := time.Now().Add(-s.opts.QuarantineMaxAge)
	keep := files[:0]
	for _, f := range files {
		if f.mod.Before(cutoff) {
			os.Remove(filepath.Join(dir, f.name))
			continue
		}
		keep = append(keep, f)
	}
	for len(keep) > s.opts.QuarantineMaxFiles {
		os.Remove(filepath.Join(dir, keep[0].name))
		keep = keep[1:]
	}
	s.reg.Gauge("store.quarantined").Set(float64(len(keep)))
}

// Close stops the committer and closes the log. Every acknowledged Put
// was already durable at its fsync, so Close loses nothing.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.stop)
		<-s.done
		s.mu.Lock()
		err = s.f.Close()
		s.mu.Unlock()
	})
	return err
}
