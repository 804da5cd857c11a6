package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"facc/internal/faultinject"
)

// The store database is a single file of fixed-size pages. Every page —
// tree nodes, overflow chains, freelist, meta — carries the same header,
// so a torn or bit-flipped sector is detected the moment it is read:
//
//	[0:4)    crc32 (Castagnoli) over bytes [4:pageSize)
//	[4:6)    page type (leaf, branch, overflow, freelist, meta)
//	[6:8)    nitems (overflow pages: payload byte length)
//	[8:16)   pageID — the page's own number, catching misdirected writes
//	[16:24)  txid of the transaction that wrote the page
//	[24:32)  next page (overflow and freelist chains)
//	[32:40)  reserved
//
// Pages 0 and 1 are alternating meta slots: a commit at txid T writes
// slot T%2, so one valid meta always survives a torn meta write. The
// meta payload names the tree root, the file length in pages and the
// head of the persisted freelist chain.
const (
	pageHeaderSize = 40
	minPageSize    = 256
	defaultPage    = 4096

	pageLeaf     = 1
	pageBranch   = 2
	pageOverflow = 3
	pageFreelist = 4
	pageMeta     = 5

	metaMagic = "FACCBT01"
	// metaVersion is the format version of the whole store. Version 2
	// stores entries as length-prefixed records (entry.go); version 1
	// stored them as JSON. A store at an older version is set aside whole
	// on open (see Store.recover).
	metaVersion = 2
	metaSlots   = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errOlderFormat marks an intact meta slot written at an older format
// version than this build reads.
var errOlderFormat = errors.New("store: written at an older format version")

// meta is the decoded meta page: the committed identity of the database.
type meta struct {
	txid     uint64
	root     uint64 // 0 = empty tree
	npages   uint64 // file length in pages (including the two meta slots)
	freeHead uint64 // first page of the persisted freelist chain (0 = none)
}

// CorruptPageError reports a page whose checksum, self-ID or type failed
// verification — a torn write, a bit flip, or a misdirected sector. The
// store quarantines the bytes and drops the page from the tree; the
// entries it held become misses, never wrong adapters.
type CorruptPageError struct {
	ID     uint64
	Reason string
	Data   []byte
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("store: corrupt page %d: %s", e.ID, e.Reason)
}

// pager reads and writes whole pages of one database file generation.
// Compaction retires a pager and installs a fresh one over the new file;
// snapshots pinned to the old generation keep reading its (renamed-over
// but still-open) file handle until released.
type pager struct {
	f        faultinject.File
	pageSize int

	mu       sync.Mutex
	cache    map[uint64][]byte
	cap      int
	poisoned map[uint64]bool // quarantined pages: never served, never reused

	refs    atomic.Int64
	retired atomic.Bool
}

func newPager(f faultinject.File, pageSize, cachePages int) *pager {
	if cachePages <= 0 {
		cachePages = 512
	}
	p := &pager{
		f: f, pageSize: pageSize,
		cache: make(map[uint64][]byte), cap: cachePages,
		poisoned: make(map[uint64]bool),
	}
	p.refs.Store(1) // the store's own reference
	return p
}

// markPoisoned quarantines a page for this file generation: every future
// read fails deterministically. Returns false when already poisoned, so
// concurrent readers hitting the same damage quarantine it exactly once.
func (p *pager) markPoisoned(id uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.poisoned[id] {
		return false
	}
	p.poisoned[id] = true
	delete(p.cache, id)
	return true
}

func (p *pager) isPoisoned(id uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.poisoned[id]
}

func (p *pager) poisonedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.poisoned)
}

func (p *pager) acquire() { p.refs.Add(1) }

// release drops one reference; the file closes when a retired pager's
// last snapshot releases it.
func (p *pager) release() {
	if p.refs.Add(-1) == 0 && p.retired.Load() {
		p.f.Close()
	}
}

// retire marks the pager superseded (by compaction or Close); the file
// handle stays open for any snapshots still reading it.
func (p *pager) retire() {
	p.retired.Store(true)
	p.release() // drop the store's own reference
}

// read returns the verified contents of page id. The returned slice is
// shared (cached) — callers must not mutate it.
func (p *pager) read(id uint64) ([]byte, error) {
	p.mu.Lock()
	if p.poisoned[id] {
		p.mu.Unlock()
		return nil, &CorruptPageError{ID: id, Reason: "page is quarantined"}
	}
	if d, ok := p.cache[id]; ok {
		p.mu.Unlock()
		return d, nil
	}
	p.mu.Unlock()

	buf := make([]byte, p.pageSize)
	if _, err := p.f.ReadAt(buf, int64(id)*int64(p.pageSize)); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, &CorruptPageError{ID: id, Reason: "page lies past the end of the file"}
		}
		return nil, err
	}
	if err := verifyPage(buf, id); err != nil {
		return nil, err
	}
	p.mu.Lock()
	if len(p.cache) >= p.cap {
		for k := range p.cache {
			delete(p.cache, k)
			break
		}
	}
	p.cache[id] = buf
	p.mu.Unlock()
	return buf, nil
}

// verifyPage checks a page's checksum and self-ID.
func verifyPage(buf []byte, id uint64) error {
	if got, want := binary.LittleEndian.Uint32(buf[0:4]), crc32.Checksum(buf[4:], castagnoli); got != want {
		return &CorruptPageError{ID: id, Reason: fmt.Sprintf("checksum %08x != %08x", got, want), Data: buf}
	}
	if self := binary.LittleEndian.Uint64(buf[8:16]); self != id {
		return &CorruptPageError{ID: id, Reason: fmt.Sprintf("self-ID %d (misdirected write)", self), Data: buf}
	}
	typ := binary.LittleEndian.Uint16(buf[4:6])
	if typ < pageLeaf || typ > pageMeta {
		return &CorruptPageError{ID: id, Reason: fmt.Sprintf("unknown type %d", typ), Data: buf}
	}
	return nil
}

// write stores a finished page image to the file and refreshes the cache
// (so readers see committed pages without re-reading the disk).
func (p *pager) write(id uint64, buf []byte) error {
	if _, err := p.f.WriteAt(buf, int64(id)*int64(p.pageSize)); err != nil {
		return err
	}
	p.mu.Lock()
	if len(p.cache) >= p.cap {
		for k := range p.cache {
			delete(p.cache, k)
			break
		}
	}
	p.cache[id] = buf
	p.mu.Unlock()
	return nil
}

// evict removes a page from the cache before its ID is rewritten with
// new content (page reuse from the freelist).
func (p *pager) evict(id uint64) {
	p.mu.Lock()
	delete(p.cache, id)
	p.mu.Unlock()
}

func (p *pager) sync() error { return p.f.Sync() }

// sealPage finishes a page image: stamps the header fields and checksum.
func sealPage(buf []byte, typ uint16, nitems int, id, txid, next uint64) {
	binary.LittleEndian.PutUint16(buf[4:6], typ)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(nitems))
	binary.LittleEndian.PutUint64(buf[8:16], id)
	binary.LittleEndian.PutUint64(buf[16:24], txid)
	binary.LittleEndian.PutUint64(buf[24:32], next)
	binary.LittleEndian.PutUint64(buf[32:40], 0)
	binary.LittleEndian.PutUint32(buf[0:4], crc32.Checksum(buf[4:], castagnoli))
}

// encodeMeta builds a meta page image for the given slot.
func encodeMeta(m meta, slot uint64, pageSize int) []byte {
	buf := make([]byte, pageSize)
	pl := buf[pageHeaderSize:]
	copy(pl[0:8], metaMagic)
	binary.LittleEndian.PutUint32(pl[8:12], metaVersion)
	binary.LittleEndian.PutUint32(pl[12:16], uint32(pageSize))
	binary.LittleEndian.PutUint64(pl[16:24], m.root)
	binary.LittleEndian.PutUint64(pl[24:32], m.npages)
	binary.LittleEndian.PutUint64(pl[32:40], m.freeHead)
	sealPage(buf, pageMeta, 0, slot, m.txid, 0)
	return buf
}

// decodeMeta validates and decodes one meta slot.
func decodeMeta(buf []byte, slot uint64, pageSize int) (meta, error) {
	if err := verifyPage(buf, slot); err != nil {
		return meta{}, err
	}
	if typ := binary.LittleEndian.Uint16(buf[4:6]); typ != pageMeta {
		return meta{}, fmt.Errorf("store: meta slot %d has page type %d", slot, typ)
	}
	pl := buf[pageHeaderSize:]
	if string(pl[0:8]) != metaMagic {
		return meta{}, fmt.Errorf("store: meta slot %d: bad magic %q", slot, pl[0:8])
	}
	if v := binary.LittleEndian.Uint32(pl[8:12]); v < metaVersion {
		return meta{}, fmt.Errorf("store: meta slot %d: version %d: %w", slot, v, errOlderFormat)
	} else if v != metaVersion {
		return meta{}, fmt.Errorf("store: meta slot %d: version %d (want %d)", slot, v, metaVersion)
	}
	if ps := binary.LittleEndian.Uint32(pl[12:16]); int(ps) != pageSize {
		return meta{}, fmt.Errorf("store: meta slot %d: page size %d (store opened with %d)", slot, ps, pageSize)
	}
	m := meta{
		txid:     binary.LittleEndian.Uint64(buf[16:24]),
		root:     binary.LittleEndian.Uint64(pl[16:24]),
		npages:   binary.LittleEndian.Uint64(pl[24:32]),
		freeHead: binary.LittleEndian.Uint64(pl[32:40]),
	}
	if m.npages < metaSlots {
		return meta{}, fmt.Errorf("store: meta slot %d: npages %d < %d", slot, m.npages, metaSlots)
	}
	if m.root != 0 && m.root >= m.npages {
		return meta{}, fmt.Errorf("store: meta slot %d: root %d outside %d pages", slot, m.root, m.npages)
	}
	if m.freeHead != 0 && m.freeHead >= m.npages {
		return meta{}, fmt.Errorf("store: meta slot %d: freelist head %d outside %d pages", slot, m.freeHead, m.npages)
	}
	return m, nil
}

// encodeFreelist writes the free-page set into a chain of freelist
// pages, allocating pages via alloc. Returns the head (0 when empty) and
// the chain's own page IDs.
func encodeFreelist(ids []uint64, pageSize int, txid uint64, alloc func() uint64) (head uint64, chain []uint64, pages map[uint64][]byte) {
	pages = map[uint64][]byte{}
	perPage := (pageSize - pageHeaderSize) / 8
	if len(ids) == 0 {
		return 0, nil, pages
	}
	// Allocate the chain first so chunks stay stable.
	n := (len(ids) + perPage - 1) / perPage
	chain = make([]uint64, n)
	for i := range chain {
		chain[i] = alloc()
	}
	for i := 0; i < n; i++ {
		lo, hi := i*perPage, (i+1)*perPage
		if hi > len(ids) {
			hi = len(ids)
		}
		buf := make([]byte, pageSize)
		pl := buf[pageHeaderSize:]
		for j, id := range ids[lo:hi] {
			binary.LittleEndian.PutUint64(pl[j*8:j*8+8], id)
		}
		next := uint64(0)
		if i+1 < n {
			next = chain[i+1]
		}
		sealPage(buf, pageFreelist, hi-lo, chain[i], txid, next)
		pages[chain[i]] = buf
	}
	return chain[0], chain, pages
}

// decodeFreelist walks the persisted freelist chain, returning the free
// IDs and the chain's own pages (freed by the next commit).
func decodeFreelist(p *pager, head uint64) (ids, chain []uint64, err error) {
	seen := map[uint64]bool{}
	for id := head; id != 0; {
		if seen[id] {
			return nil, nil, fmt.Errorf("store: freelist chain cycles at page %d", id)
		}
		seen[id] = true
		buf, rerr := p.read(id)
		if rerr != nil {
			return nil, nil, rerr
		}
		if typ := binary.LittleEndian.Uint16(buf[4:6]); typ != pageFreelist {
			return nil, nil, &CorruptPageError{ID: id, Reason: fmt.Sprintf("freelist chain points at type-%d page", typ), Data: buf}
		}
		n := int(binary.LittleEndian.Uint16(buf[6:8]))
		if n > (p.pageSize-pageHeaderSize)/8 {
			return nil, nil, &CorruptPageError{ID: id, Reason: fmt.Sprintf("freelist count %d overflows page", n), Data: buf}
		}
		chain = append(chain, id)
		pl := buf[pageHeaderSize:]
		for j := 0; j < n; j++ {
			ids = append(ids, binary.LittleEndian.Uint64(pl[j*8:j*8+8]))
		}
		id = binary.LittleEndian.Uint64(buf[24:32])
	}
	return ids, chain, nil
}
