// Package store is faccd's crash-safe adapter database. Synthesized
// adapters are expensive to produce (a full generate-and-test search)
// and cheap to keep, so the daemon memoizes them keyed by the request
// digest (facc.CompileRequest.Digest). The failure model is hostile: the
// process may be SIGKILLed mid-write, the disk may tear a sector, a bit
// may flip in flight. The store's contract is that a damaged entry is
// never served — it is detected, quarantined, and the adapter is
// recompiled — while undamaged entries survive a crash at any point in
// the write path. The crash matrix (internal/eval) proves that contract
// at every enumerated crash site.
//
// Engine: a single-file copy-on-write B-tree (store.db) of checksummed
// fixed-size pages, plus a group-commit write-ahead log (wal.log).
//
//   - MVCC snapshots: Get pins the committed {root, txid, pager} and
//     reads lock-free while the single committer goroutine builds the
//     next transaction. Readers never block on a committing compile.
//   - Copy-on-write: a commit never overwrites a page the committed
//     tree references. Freed pages enter a free list once no pinned
//     snapshot can still read them, and the free list is persisted so
//     space survives restarts.
//   - Group commit: concurrent Puts coalesce into one WAL record (all
//     dirty page images + the new meta) with one fsync — the durability
//     point — then a checkpoint writes the pages and the alternating
//     meta slot. Crash mid-checkpoint? Replay rewrites the pages.
//   - Entry records: each value is one strict length-prefixed record
//     (entry.go). Its SHA-256 checksum covers the payload fields as one
//     contiguous slice, so every read that serves an entry re-verifies
//     it by hashing that slice in place.
//   - Format version: the meta slots carry it; a store written by an
//     older build is set aside whole (WAL and database) on open and
//     starts empty, its adapters recompiling on first request.
//   - Secondary indexes: by target and by user-visible signature, kept
//     as key ranges in the same tree, so "all adapters for this target"
//     is an index walk, not a scan.
//   - Quarantine: a page that fails its checksum (or an entry that
//     fails its own) is copied into quarantine/ for post-mortems,
//     poisoned in memory so every later read misses deterministically,
//     and dropped from the tree. The quarantine directory is bounded by
//     age and count so repeated corruption cannot fill the disk.
//   - Compaction rewrites live entries into a fresh file and installs
//     it with one atomic rename, reclaiming freed and leaked pages;
//     pinned snapshots keep reading the old file handle until released.
//
// All disk I/O runs through a faultinject.VFS (crash-site injection
// under test) and a faultinject.IOBreaker: when storage itself goes
// sick the store degrades to a pass-through — every Get a miss, Puts
// dropped — instead of stalling the compile service on a dying disk.
//
// Metrics (in the registry passed to Open): store.hits, store.misses,
// store.writes, store.deletes, store.commits, store.commit_batches,
// store.corrupt_quarantined, store.recovered_pending, store.wal_torn,
// store.wal_resets, store.freelist_lost, store.compactions,
// store.compact_aborted, store.io_errors, store.format_resets, gauges
// store.pages, store.free_pages, store.quarantined, store.snapshots, and
// the store.breaker.* family.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// Key-space layout inside the one tree. Primary entries live under "o",
// index entries (empty values) under "t" and "s".
var (
	prefixPrimary = []byte("o\x00")
	prefixTarget  = []byte("t\x00")
	prefixSig     = []byte("s\x00")
)

func primaryKey(key string) []byte {
	return append(append([]byte(nil), prefixPrimary...), key...)
}

func targetKey(target, key string) []byte {
	k := append(append([]byte(nil), prefixTarget...), target...)
	k = append(k, 0)
	return append(k, key...)
}

// sigHash bounds signature index keys: signatures are free-form C
// prototypes, so the index keys their SHA-256 prefix.
func sigHash(sig string) string {
	h := sha256.Sum256([]byte(sig))
	return hex.EncodeToString(h[:8])
}

func sigKey(sig, key string) []byte {
	k := append(append([]byte(nil), prefixSig...), sigHash(sig)...)
	k = append(k, 0)
	return append(k, key...)
}

// Options tunes the store. The zero value means defaults.
type Options struct {
	// PageSize is the database page size in bytes (default 4096). Tests
	// use small pages to force deep trees and overflow chains.
	PageSize int
	// CachePages caps the in-memory page cache (default 512 pages).
	CachePages int
	// VerifyOnOpen walks the whole tree after recovery, quarantining any
	// damaged page or entry before the store serves (default true; set
	// DisableVerifyOnOpen to skip).
	DisableVerifyOnOpen bool
	// MaxWALBytes truncates the WAL after a commit once it exceeds this
	// size (default 4 MiB). Every commit checkpoints, so truncation only
	// discards records already applied.
	MaxWALBytes int64
	// AutoCompactPages triggers background compaction when the file
	// exceeds this many pages and at least half are dead (default 4096;
	// negative disables).
	AutoCompactPages int64
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
	if o.PageSize == 0 {
		o.PageSize = defaultPage
	}
	if o.CachePages == 0 {
		o.CachePages = 512
	}
	if o.MaxWALBytes == 0 {
		o.MaxWALBytes = 4 << 20
	}
	if o.AutoCompactPages == 0 {
		o.AutoCompactPages = 4096
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

// storeOp is one unit of work for the committer goroutine.
type storeOp struct {
	kind    opKind
	key     string // put, delete
	value   []byte // put: the entry record
	target  string // put: index keys
	sig     string
	page    uint64 // drop
	pg      *pager // drop: the generation the damage was seen in
	resp    chan error
	counter string // counter to bump on success
}

type opKind int

const (
	opPut opKind = iota
	opDelete
	opDrop
	opCompact
)

// Store is the crash-safe adapter database rooted at one directory.
// Safe for concurrent use: reads are MVCC snapshots, writes serialize
// through a single group-committing goroutine.
type Store struct {
	dir  string
	reg  *obs.Registry
	opts Options
	vfs  faultinject.VFS

	breaker *faultinject.IOBreaker

	// FaultHook, when non-nil, is consulted before disk operations (op
	// is "read", "wal_append", "wal_sync", "page_write", "db_sync",
	// "meta_write", "compact") and may return an error to inject
	// storage faults, or block to hold a commit in flight. Production
	// leaves it nil.
	FaultHook func(op, path string) error

	mu          sync.Mutex
	pg          *pager
	m           meta
	free        []uint64            // sorted, reusable now
	freeChain   []uint64            // persisted freelist chain pages (freed next commit)
	pendingFree map[uint64][]uint64 // txid -> pages freed by that commit, awaiting snapshot release
	snapRefs    map[uint64]int      // active snapshot count per txid
	pendingQuar map[string]bool     // entry keys quarantined, deletion in flight
	closed      bool

	walF   faultinject.File
	walOff int64

	ops  chan *storeOp
	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if needed) the store at dir with defaults,
// recovering from any prior crash: the WAL is replayed, damaged pages
// and entries are quarantined, and the surviving tree is verified.
// reg may be nil.
func Open(dir string, reg *obs.Registry) (*Store, error) {
	return OpenOptions(dir, reg, Options{})
}

// OpenOptions opens the store with explicit tuning.
func OpenOptions(dir string, reg *obs.Registry, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.PageSize < minPageSize {
		return nil, fmt.Errorf("store: page size %d below minimum %d", opts.PageSize, minPageSize)
	}
	s := &Store{
		dir: dir, reg: reg, opts: opts, vfs: opts.VFS,
		breaker:     faultinject.NewIOBreaker("store", reg),
		pendingFree: map[uint64][]uint64{},
		snapRefs:    map[uint64]int{},
		pendingQuar: map[string]bool{},
		ops:         make(chan *storeOp, 256),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for _, d := range []string{dir, s.quarantineDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// A leftover compaction scratch file is pre-rename garbage.
	os.Remove(s.compactPath())

	if err := s.recover(); err != nil {
		return nil, err
	}
	if !opts.DisableVerifyOnOpen {
		if err := s.verifyTree(); err != nil {
			return nil, err
		}
	}
	s.gcQuarantine()
	s.updateGaugesLocked()
	go s.committer()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Breaker exposes the store's I/O circuit breaker (state inspection and
// journaling hooks).
func (s *Store) Breaker() *faultinject.IOBreaker { return s.breaker }

func (s *Store) dbPath() string        { return filepath.Join(s.dir, "store.db") }
func (s *Store) walPath() string       { return filepath.Join(s.dir, "wal.log") }
func (s *Store) compactPath() string   { return filepath.Join(s.dir, "store.db.compact") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

func (s *Store) fault(op, path string) error {
	if s.FaultHook != nil {
		return s.FaultHook(op, path)
	}
	return nil
}

func (s *Store) count(name string) { s.reg.Counter(name).Inc() }

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

// recover opens the database and WAL files, picks the newest valid meta,
// replays committed WAL records the checkpoint never finished, and
// quarantines anything damaged. After recover the durable state and the
// in-memory state agree exactly.
func (s *Store) recover() error {
	f, err := s.vfs.Open(s.dbPath())
	if err != nil {
		return fmt.Errorf("store: opening db: %w", err)
	}
	s.pg = newPager(f, s.opts.PageSize, s.opts.CachePages)

	m, state, err := s.loadMeta(f)
	if err != nil {
		return err
	}
	if state != metaCurrent {
		if state == metaOlder {
			// Written by an older build: no value is in a format this
			// build reads, and the WAL's page images belong to that
			// database. Set both aside — the WAL first, so a crash in
			// between never leaves it to be replayed onto a fresh file —
			// and start empty; every adapter recompiles on first request.
			s.count("store.format_resets")
			s.setAside(s.walPath(), "wal.log")
		} else {
			// No valid meta in a non-trivial file: the database is
			// beyond page-level repair. Quarantine the whole file —
			// never guess — and start fresh; every entry recompiles.
			s.count("store.corrupt_quarantined")
		}
		s.setAside(s.dbPath(), "store.db")
		nf, err := s.vfs.Open(s.dbPath())
		if err != nil {
			return fmt.Errorf("store: recreating db: %w", err)
		}
		s.pg.retire()
		s.pg = newPager(nf, s.opts.PageSize, s.opts.CachePages)
		m = meta{txid: 0, root: 0, npages: metaSlots}
		if err := s.initFreshDB(m); err != nil {
			return err
		}
	}
	s.m = m

	if err := s.openWAL(); err != nil {
		return err
	}
	if err := s.replayWAL(); err != nil {
		return err
	}
	s.loadFreelist()
	return nil
}

// metaState is what the two meta slots of a database file say about it.
type metaState int

const (
	metaNone    metaState = iota // neither slot is valid
	metaOlder                    // intact, but only at older format versions
	metaCurrent                  // at least one slot is valid at this version
)

// loadMeta reads both meta slots and returns the valid one with the
// highest txid.
func (s *Store) loadMeta(f faultinject.File) (meta, metaState, error) {
	size, err := f.Size()
	if err != nil {
		return meta{}, metaNone, fmt.Errorf("store: sizing db: %w", err)
	}
	if size == 0 {
		m := meta{txid: 0, root: 0, npages: metaSlots}
		if err := s.initFreshDB(m); err != nil {
			return meta{}, metaNone, err
		}
		return m, metaCurrent, nil
	}
	var best meta
	state := metaNone
	for slot := uint64(0); slot < metaSlots; slot++ {
		buf, rerr := s.pg.read(slot)
		if rerr != nil {
			continue
		}
		m, derr := decodeMeta(buf, slot, s.opts.PageSize)
		if errors.Is(derr, errOlderFormat) && state == metaNone {
			state = metaOlder
		}
		if derr != nil {
			continue
		}
		if state != metaCurrent || m.txid > best.txid {
			best, state = m, metaCurrent
		}
	}
	return best, state, nil
}

// initFreshDB writes the initial meta for an empty database.
func (s *Store) initFreshDB(m meta) error {
	if err := s.pg.write(0, encodeMeta(m, 0, s.opts.PageSize)); err != nil {
		return fmt.Errorf("store: initializing db: %w", err)
	}
	// Extend the file over the second (invalid-until-used) meta slot so
	// the file length matches npages.
	if err := s.pg.write(1, make([]byte, s.opts.PageSize)); err != nil {
		return fmt.Errorf("store: initializing db: %w", err)
	}
	s.pg.evict(1) // a zero page is not a valid cached page
	if err := s.pg.sync(); err != nil {
		return fmt.Errorf("store: initializing db: %w", err)
	}
	return nil
}

// setAside moves a whole store file into quarantine/ as evidence. A file
// that cannot be moved is removed: it must not be reused either way.
func (s *Store) setAside(path, name string) {
	dst := filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", name, time.Now().UnixNano()))
	if err := s.vfs.Rename(path, dst); err != nil {
		s.vfs.Remove(path)
	}
}

func (s *Store) openWAL() error {
	wf, err := s.vfs.Open(s.walPath())
	if err != nil {
		return fmt.Errorf("store: opening wal: %w", err)
	}
	s.walF = wf
	return nil
}

// replayWAL applies committed records the checkpoint never finished and
// quarantines the torn tail of a crashed append. Afterwards the WAL is
// reset — every surviving page is checkpointed and verified-durable.
func (s *Store) replayWAL() error {
	size, err := s.walF.Size()
	if err != nil {
		return fmt.Errorf("store: sizing wal: %w", err)
	}
	if size > 0 {
		data := make([]byte, size)
		if _, err := readFull(s.walF, data, 0); err != nil {
			return fmt.Errorf("store: reading wal: %w", err)
		}
		recs, validLen, reason := decodeWALRecords(data, s.opts.PageSize)
		if reason != nil && validLen < size {
			// The torn tail of the append the crash interrupted: the
			// commit it described never reached its durability point.
			s.count("store.wal_torn")
			tail := data[validLen:]
			if len(tail) > 1<<16 {
				tail = tail[:1<<16]
			}
			s.writeQuarantineFile("wal-tail.bin", tail)
		}
		replayed := false
		for _, rec := range recs {
			if rec.m.txid <= s.m.txid {
				continue // already checkpointed before the crash
			}
			s.count("store.recovered_pending")
			for _, id := range rec.ids {
				if err := s.pg.write(id, rec.pages[id]); err != nil {
					return fmt.Errorf("store: replaying wal page %d: %w", id, err)
				}
			}
			s.m = rec.m
			replayed = true
		}
		if replayed {
			if err := s.pg.sync(); err != nil {
				return fmt.Errorf("store: syncing replayed pages: %w", err)
			}
			slot := s.m.txid % metaSlots
			if err := s.pg.write(slot, encodeMeta(s.m, slot, s.opts.PageSize)); err != nil {
				return fmt.Errorf("store: writing recovered meta: %w", err)
			}
			if err := s.pg.sync(); err != nil {
				return fmt.Errorf("store: syncing recovered meta: %w", err)
			}
		}
	}
	if err := s.walF.Truncate(0); err != nil {
		return fmt.Errorf("store: resetting wal: %w", err)
	}
	if err := s.walF.Sync(); err != nil {
		return fmt.Errorf("store: resetting wal: %w", err)
	}
	s.walOff = 0
	return nil
}

// loadFreelist decodes the persisted free list. Damage here loses free
// space, never data: the list is dropped (compaction reclaims the leak)
// and the chain is quarantined as evidence.
func (s *Store) loadFreelist() {
	ids, chain, err := decodeFreelist(s.pg, s.m.freeHead)
	if err != nil {
		s.count("store.freelist_lost")
		var ce *CorruptPageError
		if errors.As(err, &ce) && len(ce.Data) > 0 {
			s.writeQuarantineFile(fmt.Sprintf("freelist-page-%d.bin", ce.ID), ce.Data)
		}
		s.free, s.freeChain = nil, nil
		return
	}
	keep := ids[:0]
	for _, id := range ids {
		if id >= metaSlots && id < s.m.npages && !s.pg.isPoisoned(id) {
			keep = append(keep, id)
		}
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
	s.free = dedupSorted(keep)
	s.freeChain = chain
}

// verifyTree walks the whole tree — every node, every overflow chain,
// every entry checksum — quarantining and dropping anything damaged,
// until a full walk comes back clean. This is what turns "a crash
// happened" into "damaged entries miss, everything else serves".
func (s *Store) verifyTree() error {
	for round := 0; ; round++ {
		if round > 4096 {
			return fmt.Errorf("store: verify did not converge after %d rounds", round)
		}
		problem := s.scanOnce()
		if problem == nil {
			return nil
		}
		var ce *CorruptPageError
		if problem.key != "" {
			// A damaged value (corrupt overflow page or failed entry
			// checksum): quarantine the evidence and delete the entry.
			if errors.As(problem.err, &ce) {
				s.quarantinePage(s.pg, ce)
			} else {
				s.quarantineEntryBytes(problem.key, problem.data)
			}
			if err := s.commitDirect(&storeOp{kind: opDelete, key: problem.key}); err != nil {
				return fmt.Errorf("store: deleting quarantined entry: %w", err)
			}
			s.mu.Lock()
			delete(s.pendingQuar, problem.key)
			s.mu.Unlock()
			continue
		}
		if errors.As(problem.err, &ce) {
			// A damaged tree node: quarantine it and drop its subtree.
			s.quarantinePage(s.pg, ce)
			if err := s.commitDirect(&storeOp{kind: opDrop, page: ce.ID, pg: s.pg}); err != nil {
				return fmt.Errorf("store: dropping quarantined page %d: %w", ce.ID, err)
			}
			continue
		}
		return problem.err
	}
}

type scanProblem struct {
	err  error
	key  string // non-empty: the damage is scoped to one entry
	data []byte
}

// scanOnce walks the tree and returns the first problem found, or nil.
func (s *Store) scanOnce() *scanProblem {
	r := committedReader{pg: s.pg}
	var problem *scanProblem
	err := iterate(r, s.m.root, nil, func(key []byte, it item) (bool, error) {
		if !bytes.HasPrefix(key, prefixPrimary) {
			return true, nil // index entries carry no value to verify
		}
		k := string(key[len(prefixPrimary):])
		val, verr := readValue(r, s.opts.PageSize, it)
		if verr != nil {
			problem = &scanProblem{err: verr, key: k}
			return false, nil
		}
		if _, eerr := openEntry(k, val); eerr != nil {
			problem = &scanProblem{err: fmt.Errorf("%w (key %s)", eerr, k), key: k, data: val}
			return false, nil
		}
		return true, nil
	})
	if problem != nil {
		return problem
	}
	if err != nil && !errors.Is(err, errStopIteration) {
		return &scanProblem{err: err}
	}
	return nil
}

func readFull(f faultinject.File, buf []byte, off int64) (int, error) {
	n, err := f.ReadAt(buf, off)
	if n == len(buf) {
		return n, nil
	}
	return n, err
}

// ---------------------------------------------------------------------
// Snapshots (MVCC reads)
// ---------------------------------------------------------------------

// snapshot pins one committed tree: its meta, and the pager generation
// the tree lives in. Reads through a snapshot are isolated from every
// concurrent commit and from compaction.
type snapshot struct {
	s  *Store
	pg *pager
	m  meta
}

func (s *Store) acquireSnapshot() *snapshot {
	s.mu.Lock()
	sp := &snapshot{s: s, pg: s.pg, m: s.m}
	sp.pg.acquire()
	s.snapRefs[sp.m.txid]++
	s.mu.Unlock()
	return sp
}

func (sp *snapshot) release() {
	s := sp.s
	s.mu.Lock()
	s.snapRefs[sp.m.txid]--
	if s.snapRefs[sp.m.txid] <= 0 {
		delete(s.snapRefs, sp.m.txid)
		s.promoteFreeLocked()
	}
	s.mu.Unlock()
	sp.pg.release()
}

func (sp *snapshot) page(id uint64) ([]byte, error) { return sp.pg.read(id) }

// committedReader reads the current committed tree (recovery and the
// committer's transaction base).
type committedReader struct{ pg *pager }

func (r committedReader) page(id uint64) ([]byte, error) { return r.pg.read(id) }

// promoteFreeLocked moves pages freed by old commits into the reusable
// free list once no active snapshot predates the commit that freed
// them. Caller holds s.mu.
func (s *Store) promoteFreeLocked() {
	min := ^uint64(0)
	for t := range s.snapRefs {
		if t < min {
			min = t
		}
	}
	for t, ids := range s.pendingFree {
		if t > min {
			continue
		}
		keep := ids[:0]
		for _, id := range ids {
			if !s.pg.isPoisoned(id) {
				keep = append(keep, id)
			}
		}
		sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
		s.free = mergeSorted(s.free, keep)
		delete(s.pendingFree, t)
	}
}

func mergeSorted(a, b []uint64) []uint64 {
	if len(b) == 0 {
		return a
	}
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return dedupSorted(out)
}

func dedupSorted(a []uint64) []uint64 {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != a[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------

// Get returns the entry stored under key, or found=false on a miss. A
// corrupt page or entry is quarantined and reported as a miss: the
// caller recompiles. Storage I/O errors degrade to a miss through the
// breaker — the store never fails a compile, it only stops helping.
func (s *Store) Get(key string) (Entry, bool) {
	var e Entry
	var found bool
	err := s.breaker.Do(func() error {
		if err := s.fault("read", s.dbPath()); err != nil {
			s.count("store.io_errors")
			return err
		}
		s.mu.Lock()
		pending := s.pendingQuar[key]
		s.mu.Unlock()
		if pending {
			return nil // quarantined, deletion in flight: a deterministic miss
		}
		sp := s.acquireSnapshot()
		defer sp.release()
		val, err := lookup(sp, s.opts.PageSize, sp.m.root, primaryKey(key))
		if errors.Is(err, errNotFound) {
			return nil
		}
		var ce *CorruptPageError
		if errors.As(err, &ce) {
			// Damaged: quarantine the page and retire the entry that
			// references it. Every later Get misses deterministically.
			s.quarantinePage(sp.pg, ce)
			s.retireEntry(key)
			return nil
		}
		if err != nil {
			s.count("store.io_errors")
			return err
		}
		got, err := openEntry(key, val)
		if err != nil {
			s.quarantineEntry(key, val)
			return nil
		}
		e, found = got, true
		return nil
	})
	if err != nil || !found {
		s.count("store.misses")
		return Entry{}, false
	}
	s.count("store.hits")
	return e, true
}

// listByIndex walks one index prefix and materializes the entries it
// points at. Dangling or damaged targets are skipped (compaction prunes
// them); a damaged index page is quarantined and ends the walk early.
func (s *Store) listByIndex(prefix []byte) []Entry {
	sp := s.acquireSnapshot()
	defer sp.release()
	var out []Entry
	err := iterate(sp, sp.m.root, prefix, func(key []byte, _ item) (bool, error) {
		if !bytes.HasPrefix(key, prefix) {
			return false, nil
		}
		digest := string(key[len(prefix):])
		val, verr := lookup(sp, s.opts.PageSize, sp.m.root, primaryKey(digest))
		if verr != nil {
			var ce *CorruptPageError
			if errors.As(verr, &ce) {
				s.quarantinePage(sp.pg, ce)
			}
			return true, nil
		}
		e, eerr := openEntry(digest, val)
		if eerr != nil {
			s.quarantineEntry(digest, val)
			return true, nil
		}
		out = append(out, e)
		return true, nil
	})
	if err != nil && !errors.Is(err, errStopIteration) {
		var ce *CorruptPageError
		if errors.As(err, &ce) {
			s.quarantinePage(sp.pg, ce)
		}
	}
	return out
}

// ListByTarget returns every cached adapter synthesized for target, via
// the by-target index.
func (s *Store) ListByTarget(target string) []Entry {
	k := append(append([]byte(nil), prefixTarget...), target...)
	return s.listByIndex(append(k, 0))
}

// ListBySig returns every cached adapter whose replaced function has the
// given user-visible signature, via the by-signature index.
func (s *Store) ListBySig(sig string) []Entry {
	k := append(append([]byte(nil), prefixSig...), sigHash(sig)...)
	return s.listByIndex(append(k, 0))
}

// Len counts primary entries; a maintenance/test helper, not a hot path.
func (s *Store) Len() int {
	sp := s.acquireSnapshot()
	defer sp.release()
	n := 0
	iterate(sp, sp.m.root, prefixPrimary, func(key []byte, _ item) (bool, error) {
		if !bytes.HasPrefix(key, prefixPrimary) {
			return false, nil
		}
		n++
		return true, nil
	})
	return n
}

// Check walks the committed tree end to end — every page, chain and
// entry checksum — and returns the problems found (nil means the store
// is fully consistent). Used by tests and the crash matrix.
func (s *Store) Check() []string {
	sp := s.acquireSnapshot()
	defer sp.release()
	var problems []string
	err := iterate(sp, sp.m.root, nil, func(key []byte, it item) (bool, error) {
		if !bytes.HasPrefix(key, prefixPrimary) {
			return true, nil
		}
		val, verr := readValue(sp, s.opts.PageSize, it)
		if verr != nil {
			problems = append(problems, verr.Error())
			return true, nil
		}
		k := string(key[len(prefixPrimary):])
		if _, eerr := openEntry(k, val); eerr != nil {
			problems = append(problems, fmt.Sprintf("%v (key %s)", eerr, k))
		}
		return true, nil
	})
	if err != nil && !errors.Is(err, errStopIteration) {
		problems = append(problems, err.Error())
	}
	return problems
}

// Stats is a point-in-time view of the engine, for /status and tests.
type Stats struct {
	Txid        uint64 `json:"txid"`
	Pages       uint64 `json:"pages"`
	FreePages   int    `json:"free_pages"`
	PendingFree int    `json:"pending_free"`
	Snapshots   int    `json:"snapshots"`
	Poisoned    int    `json:"poisoned_pages"`
	Quarantined int    `json:"quarantined_files"`
	WALBytes    int64  `json:"wal_bytes"`
}

// Stats reports engine internals and refreshes the store gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Txid:      s.m.txid,
		Pages:     s.m.npages,
		FreePages: len(s.free),
		WALBytes:  s.walOff,
	}
	for _, ids := range s.pendingFree {
		st.PendingFree += len(ids)
	}
	for _, n := range s.snapRefs {
		st.Snapshots += n
	}
	st.Poisoned = s.pg.poisonedCount()
	s.updateGaugesLocked()
	s.mu.Unlock()
	st.Quarantined = s.quarantineCount()
	return st
}

func (s *Store) updateGaugesLocked() {
	s.reg.Gauge("store.pages").Set(float64(s.m.npages))
	s.reg.Gauge("store.free_pages").Set(float64(len(s.free)))
	n := 0
	for _, c := range s.snapRefs {
		n += c
	}
	s.reg.Gauge("store.snapshots").Set(float64(n))
}

// ---------------------------------------------------------------------
// Writes (group commit)
// ---------------------------------------------------------------------

// Put durably stores the entry under key. It returns once the entry's
// commit record is fsynced — concurrent Puts coalesce into one record
// and one fsync. Errors mean the entry may not be cached; they never
// imply a torn entry is visible (Get would quarantine one).
func (s *Store) Put(key string, e Entry) error {
	e.Key = key
	data := sealEntry(&e)
	op := &storeOp{
		kind: opPut, key: key, value: data, target: e.Target, sig: e.Sig,
		resp: make(chan error, 1), counter: "store.writes",
	}
	if err := s.submit(op); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	return nil
}

// Delete removes the entry under key (and its index entries). Missing
// keys are not an error.
func (s *Store) Delete(key string) error {
	op := &storeOp{kind: opDelete, key: key, resp: make(chan error, 1), counter: "store.deletes"}
	if err := s.submit(op); err != nil {
		return fmt.Errorf("store: delete %s: %w", key, err)
	}
	return nil
}

// Compact synchronously rewrites live entries into a fresh file,
// reclaiming dead and leaked pages, and installs it atomically.
func (s *Store) Compact() error {
	op := &storeOp{kind: opCompact, resp: make(chan error, 1)}
	if err := s.submit(op); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

var errClosed = errors.New("store is closed")

func (s *Store) submit(op *storeOp) error {
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

// submitAsync enqueues best-effort cleanup (quarantine drops). If the
// queue is full the drop is skipped — the damage is already contained
// by poisoning, and compaction removes the dangling reference later.
func (s *Store) submitAsync(op *storeOp) {
	select {
	case s.ops <- op:
	default:
	}
}

// committer is the single writer: it drains queued operations into
// batches, each batch becoming one transaction, one WAL record, one
// fsync.
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
		if op.kind == opCompact {
			err := s.breaker.Do(func() error { return s.compactNow() })
			op.resp <- err
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
			if op.counter != "" {
				s.count(op.counter)
			}
			if op.kind == opPut || op.kind == opDelete {
				s.mu.Lock()
				delete(s.pendingQuar, op.key)
				s.mu.Unlock()
			}
		}
		if op.resp != nil {
			op.resp <- err
		}
	}
	s.maybeAutoCompact()
}

// commitDirect runs one operation through the commit path synchronously;
// recovery uses it before the committer goroutine exists.
func (s *Store) commitDirect(op *storeOp) error {
	return s.commit([]*storeOp{op})
}

// commit applies a batch as one transaction: build the new tree
// copy-on-write, persist the free list, append + fsync one WAL record
// (the durability point), checkpoint the pages and meta, and install the
// new committed state.
func (s *Store) commit(batch []*storeOp) error {
	s.mu.Lock()
	pg := s.pg
	t := &tx{
		base:     committedReader{pg: pg},
		pageSize: s.opts.PageSize,
		m:        s.m,
		txid:     s.m.txid + 1,
		dirty:    map[uint64][]byte{},
		alloced:  map[uint64]bool{},
		free:     s.free,
		evict:    pg.evict,
	}
	prevChain := s.freeChain
	s.free = nil // ownership moves to the transaction
	s.mu.Unlock()

	// On failure, return the unallocated remainder of the free list.
	restoreFree := func() {
		s.mu.Lock()
		sort.Slice(t.free, func(i, j int) bool { return t.free[i] < t.free[j] })
		s.free = mergeSorted(s.free, t.free)
		s.mu.Unlock()
	}

	for _, op := range batch {
		if err := s.applyOp(t, op); err != nil {
			restoreFree()
			return err
		}
	}
	t.m.txid = t.txid

	// Persist the post-commit free set: the transaction's leftovers plus
	// everything this commit freed (safe to reuse after a reboot — no
	// snapshots survive one) plus the previous freelist chain. Chain
	// pages are allocated from file growth only, keeping the set stable
	// while it is being encoded.
	persist := append(append([]uint64(nil), t.free...), t.scratch...)
	persist = append(persist, t.freed...)
	persist = append(persist, prevChain...)
	sort.Slice(persist, func(i, j int) bool { return persist[i] < persist[j] })
	persist = dedupSorted(persist)
	head, chain, flPages := encodeFreelist(persist, s.opts.PageSize, t.txid, func() uint64 {
		id := t.m.npages
		t.m.npages++
		return id
	})
	for id, buf := range flPages {
		t.dirty[id] = buf
	}
	t.m.freeHead = head

	// Durability point: one record, one fsync.
	rec := encodeWALRecord(t.m, t.dirty, s.opts.PageSize)
	fail := func(stage string, err error) error {
		s.count("store.io_errors")
		restoreFree()
		return fmt.Errorf("store: commit %s: %w", stage, err)
	}
	if err := s.fault("wal_append", s.walPath()); err != nil {
		return fail("wal append", err)
	}
	if _, err := s.walF.WriteAt(rec, s.walOff); err != nil {
		return fail("wal append", err)
	}
	if err := s.fault("wal_sync", s.walPath()); err != nil {
		s.walF.Truncate(s.walOff)
		return fail("wal sync", err)
	}
	if err := s.walF.Sync(); err != nil {
		s.walF.Truncate(s.walOff)
		return fail("wal sync", err)
	}
	s.walOff += int64(len(rec))

	// Checkpoint. The WAL record is durable: if anything below fails the
	// in-memory state stays at the old commit, and either a retry or
	// replay-on-reopen converges on this transaction's pages.
	ids := make([]uint64, 0, len(t.dirty))
	for id := range t.dirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if err := s.fault("page_write", s.dbPath()); err != nil {
		return fail("page write", err)
	}
	for _, id := range ids {
		if err := pg.write(id, t.dirty[id]); err != nil {
			return fail("page write", err)
		}
	}
	if err := s.fault("db_sync", s.dbPath()); err != nil {
		return fail("db sync", err)
	}
	if err := pg.sync(); err != nil {
		return fail("db sync", err)
	}
	slot := t.m.txid % metaSlots
	mbuf := encodeMeta(t.m, slot, s.opts.PageSize)
	if err := s.fault("meta_write", s.dbPath()); err != nil {
		return fail("meta write", err)
	}
	if err := pg.write(slot, mbuf); err != nil {
		return fail("meta write", err)
	}
	if err := pg.sync(); err != nil {
		return fail("meta sync", err)
	}

	// Install the new committed state.
	s.mu.Lock()
	s.m = t.m
	scratch := append([]uint64(nil), t.scratch...)
	sort.Slice(t.free, func(i, j int) bool { return t.free[i] < t.free[j] })
	sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
	s.free = mergeSorted(s.free, mergeSorted(t.free, scratch))
	if len(t.freed) > 0 || len(prevChain) > 0 {
		s.pendingFree[t.txid] = append(append([]uint64(nil), t.freed...), prevChain...)
	}
	s.freeChain = chain
	s.promoteFreeLocked()
	s.updateGaugesLocked()
	walOff := s.walOff
	s.mu.Unlock()

	// The WAL only matters until its records are checkpointed — which
	// they all now are — so cap its growth.
	if walOff > s.opts.MaxWALBytes {
		if err := s.walF.Truncate(0); err == nil {
			if err := s.walF.Sync(); err == nil {
				s.mu.Lock()
				s.walOff = 0
				s.mu.Unlock()
				s.count("store.wal_resets")
			}
		}
	}
	return nil
}

// applyOp applies one operation to the transaction. A corrupt page
// discovered on the write path is quarantined and dropped, then the
// operation retries against the repaired tree.
func (s *Store) applyOp(t *tx, op *storeOp) error {
	for attempt := 0; attempt < 32; attempt++ {
		err := s.applyOnce(t, op)
		var ce *CorruptPageError
		if errors.As(err, &ce) {
			s.quarantinePage(s.pg, ce)
			if _, derr := t.dropSubtree(ce.ID); derr != nil {
				if errors.As(derr, &ce) {
					continue // the drop found more damage; quarantine that too
				}
				return derr
			}
			continue
		}
		return err
	}
	return fmt.Errorf("store: apply did not converge (cascading corruption)")
}

func (s *Store) applyOnce(t *tx, op *storeOp) error {
	switch op.kind {
	case opPut:
		// Replacing an entry whose target or signature changed must
		// retire the old index keys. An unreadable (corrupt-chain) old
		// value skips the cleanup — compaction prunes dangling keys.
		old, err := t.get(primaryKey(op.key))
		var pce *CorruptPageError
		if err != nil && !errors.Is(err, errNotFound) && !errors.As(err, &pce) {
			return err
		}
		if err == nil {
			if oe, _, derr := decodeEntry(old); derr == nil {
				if oe.Target != "" && oe.Target != op.target {
					if _, derr := t.delete(targetKey(oe.Target, op.key)); derr != nil {
						return derr
					}
				}
				if oe.Sig != "" && oe.Sig != op.sig {
					if _, derr := t.delete(sigKey(oe.Sig, op.key)); derr != nil {
						return derr
					}
				}
			}
		}
		if err := t.put(primaryKey(op.key), op.value); err != nil {
			return err
		}
		if op.target != "" {
			if err := t.put(targetKey(op.target, op.key), nil); err != nil {
				return err
			}
		}
		if op.sig != "" {
			if err := t.put(sigKey(op.sig, op.key), nil); err != nil {
				return err
			}
		}
		return nil
	case opDelete:
		old, err := t.get(primaryKey(op.key))
		var pce *CorruptPageError
		if err != nil && !errors.Is(err, errNotFound) && !errors.As(err, &pce) {
			return err
		}
		if err == nil {
			if oe, _, derr := decodeEntry(old); derr == nil {
				if oe.Target != "" {
					if _, derr := t.delete(targetKey(oe.Target, op.key)); derr != nil {
						return derr
					}
				}
				if oe.Sig != "" {
					if _, derr := t.delete(sigKey(oe.Sig, op.key)); derr != nil {
						return derr
					}
				}
			}
		}
		_, err = t.delete(primaryKey(op.key))
		if errors.Is(err, errNotFound) {
			return nil
		}
		return err
	case opDrop:
		if op.pg != nil && op.pg != s.pg {
			return nil // damage was in a retired generation; nothing to drop
		}
		_, err := t.dropSubtree(op.page)
		return err
	default:
		return fmt.Errorf("store: unknown op kind %d", op.kind)
	}
}

// ---------------------------------------------------------------------
// Quarantine
// ---------------------------------------------------------------------

// quarantinePage contains page-level damage: poison the page (all later
// reads miss deterministically and the ID is never reused), preserve the
// bytes as evidence, and schedule the tree reference for removal.
// Concurrent readers hitting the same page quarantine it exactly once.
func (s *Store) quarantinePage(pg *pager, ce *CorruptPageError) {
	if !pg.markPoisoned(ce.ID) {
		return
	}
	s.count("store.corrupt_quarantined")
	s.mu.Lock()
	s.free = removeSorted(s.free, ce.ID)
	for t, ids := range s.pendingFree {
		s.pendingFree[t] = removeUnsorted(ids, ce.ID)
	}
	s.mu.Unlock()
	if len(ce.Data) > 0 {
		s.writeQuarantineFile(fmt.Sprintf("page-%d.bin", ce.ID), ce.Data)
	}
	s.submitAsync(&storeOp{kind: opDrop, page: ce.ID, pg: pg})
}

// retireEntry schedules removal of a key whose value became unreadable
// (its pages are already quarantined and counted): the key misses until
// a recompile overwrites it, and its dangling leaf item is deleted.
func (s *Store) retireEntry(key string) {
	s.mu.Lock()
	already := s.pendingQuar[key]
	s.pendingQuar[key] = true
	s.mu.Unlock()
	if !already {
		s.submitAsync(&storeOp{kind: opDelete, key: key})
	}
}

// quarantineEntry contains entry-level damage (a value that fails to
// decode, names another key or fails its own checksum): record the key
// so every Get misses until a recompile overwrites it, preserve the
// bytes, and schedule deletion.
func (s *Store) quarantineEntry(key string, data []byte) {
	s.mu.Lock()
	if s.pendingQuar[key] {
		s.mu.Unlock()
		return
	}
	s.pendingQuar[key] = true
	s.mu.Unlock()
	s.count("store.corrupt_quarantined")
	s.writeQuarantineFile(fmt.Sprintf("entry-%s.bin", sanitizeName(key)), data)
	s.submitAsync(&storeOp{kind: opDelete, key: key})
}

// quarantineEntryBytes is the synchronous (recovery-time) variant.
func (s *Store) quarantineEntryBytes(key string, data []byte) {
	s.mu.Lock()
	already := s.pendingQuar[key]
	s.pendingQuar[key] = true
	s.mu.Unlock()
	if already {
		return
	}
	s.count("store.corrupt_quarantined")
	s.writeQuarantineFile(fmt.Sprintf("entry-%s.bin", sanitizeName(key)), data)
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

// writeQuarantineFile preserves evidence bytes under a unique name, then
// prunes the directory to its configured bounds.
func (s *Store) writeQuarantineFile(name string, data []byte) {
	path := filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", name, time.Now().UnixNano()))
	os.WriteFile(path, data, 0o644)
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

func (s *Store) quarantineCount() int {
	des, err := os.ReadDir(s.quarantineDir())
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range des {
		if !de.IsDir() {
			n++
		}
	}
	return n
}

func removeSorted(a []uint64, id uint64) []uint64 {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= id })
	if i < len(a) && a[i] == id {
		return append(a[:i], a[i+1:]...)
	}
	return a
}

func removeUnsorted(a []uint64, id uint64) []uint64 {
	out := a[:0]
	for _, v := range a {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------

func (s *Store) maybeAutoCompact() {
	if s.opts.AutoCompactPages <= 0 {
		return
	}
	s.mu.Lock()
	npages := s.m.npages
	dead := len(s.free) + len(s.freeChain)
	for _, ids := range s.pendingFree {
		dead += len(ids)
	}
	s.mu.Unlock()
	if int64(npages) >= s.opts.AutoCompactPages && uint64(dead)*2 >= npages {
		if err := s.breaker.Do(func() error { return s.compactNow() }); err == nil {
			return
		}
	}
}

// emptyReader backs a transaction that builds a tree from scratch: every
// page it could reference is in the dirty set, so base reads are a bug.
type emptyReader struct{}

func (emptyReader) page(id uint64) ([]byte, error) {
	return nil, fmt.Errorf("store: compaction read page %d outside its own tree", id)
}

// compactNow (committer goroutine only) bulk-copies every live entry
// into a fresh file and installs it with one atomic rename. A crash
// before the rename leaves the old file untouched; after it, the new
// meta's txid is >= every WAL record's, so replay is a no-op. Pinned
// snapshots keep reading the retired generation's still-open handle.
func (s *Store) compactNow() error {
	if err := s.fault("compact", s.compactPath()); err != nil {
		return err
	}
	sp := s.acquireSnapshot()
	defer sp.release()

	nf, err := s.vfs.Open(s.compactPath())
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	abort := func(why error) error {
		nf.Close()
		s.vfs.Remove(s.compactPath())
		s.count("store.compact_aborted")
		return why
	}
	t := &tx{
		base:     emptyReader{},
		pageSize: s.opts.PageSize,
		m:        meta{txid: sp.m.txid, npages: metaSlots},
		txid:     sp.m.txid,
		dirty:    map[uint64][]byte{},
		alloced:  map[uint64]bool{},
	}
	// Rebuild from primary entries only: dangling index keys and leaked
	// pages do not survive the copy.
	iterErr := iterate(sp, sp.m.root, prefixPrimary, func(key []byte, it item) (bool, error) {
		if !bytes.HasPrefix(key, prefixPrimary) {
			return false, nil
		}
		val, verr := readValue(sp, s.opts.PageSize, it)
		if verr != nil {
			return true, nil // damaged value: quarantined elsewhere, not copied
		}
		e, _, derr := decodeEntry(val)
		if derr != nil {
			return true, nil
		}
		k := string(key[len(prefixPrimary):])
		if perr := t.put(primaryKey(k), val); perr != nil {
			return false, perr
		}
		if e.Target != "" {
			if perr := t.put(targetKey(e.Target, k), nil); perr != nil {
				return false, perr
			}
		}
		if e.Sig != "" {
			if perr := t.put(sigKey(e.Sig, k), nil); perr != nil {
				return false, perr
			}
		}
		return true, nil
	})
	if iterErr != nil && !errors.Is(iterErr, errStopIteration) {
		return abort(fmt.Errorf("store: compact scan: %w", iterErr))
	}

	pg2 := newPager(nf, s.opts.PageSize, s.opts.CachePages)
	ids := make([]uint64, 0, len(t.dirty))
	for id := range t.dirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if werr := pg2.write(id, t.dirty[id]); werr != nil {
			return abort(fmt.Errorf("store: compact write: %w", werr))
		}
	}
	if serr := pg2.sync(); serr != nil {
		return abort(fmt.Errorf("store: compact sync: %w", serr))
	}
	slot := t.m.txid % metaSlots
	if werr := pg2.write(slot, encodeMeta(t.m, slot, s.opts.PageSize)); werr != nil {
		return abort(fmt.Errorf("store: compact meta: %w", werr))
	}
	if serr := pg2.sync(); serr != nil {
		return abort(fmt.Errorf("store: compact meta sync: %w", serr))
	}
	if rerr := s.vfs.Rename(s.compactPath(), s.dbPath()); rerr != nil {
		return abort(fmt.Errorf("store: compact install: %w", rerr))
	}

	s.mu.Lock()
	old := s.pg
	s.pg = pg2
	s.m = t.m
	s.free = nil
	s.freeChain = nil
	s.pendingFree = map[uint64][]uint64{}
	s.updateGaugesLocked()
	s.mu.Unlock()
	old.retire()

	// Old WAL records describe the retired file; drop them.
	if err := s.walF.Truncate(0); err == nil {
		if err := s.walF.Sync(); err == nil {
			s.mu.Lock()
			s.walOff = 0
			s.mu.Unlock()
		}
	}
	s.count("store.compactions")
	return nil
}

// ---------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------

// Close stops the committer and closes the files. Every acknowledged Put
// was already durable at its WAL fsync, so Close loses nothing.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	var first error
	if s.walF != nil {
		if err := s.walF.Sync(); err != nil && first == nil {
			first = err
		}
		if err := s.walF.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.mu.Lock()
	pg := s.pg
	s.mu.Unlock()
	if pg != nil {
		pg.retire() // closes the db file once the last snapshot releases
	}
	return first
}
