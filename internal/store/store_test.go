package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"facc/internal/faultinject"
	"facc/internal/obs"
)

func testEntry(n int) Entry {
	return Entry{
		Target:   "ffta",
		Function: "fft",
		Sig:      fmt.Sprintf("void fft%d(float *data, int n)", n%3),
		AdapterC: fmt.Sprintf("/* adapter %d */\nvoid fft(float *data, int n) {}\n", n),
	}
}

func testKey(n int) string {
	return fmt.Sprintf("%04xdeadbeefdeadbeefdeadbeefdead", n)
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(testKey(1), testEntry(1)); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Get(testKey(1))
	if !ok || e.AdapterC != testEntry(1).AdapterC || e.Key != testKey(1) {
		t.Fatalf("Get after Put: ok=%v e=%+v", ok, e)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean reopen serves the same entry: durability across restarts.
	s2, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	e, ok = s2.Get(testKey(1))
	if !ok || e.AdapterC != testEntry(1).AdapterC {
		t.Fatalf("Get after reopen: ok=%v e=%+v", ok, e)
	}
	c := reg.Counters()
	if c["store.hits"] != 1 || c["store.misses"] != 1 || c["store.writes"] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

// TestStoreManyEntries forces deep trees, splits, overflow chains and
// free-list reuse with a small page size, across deletes and a reopen.
func TestStoreManyEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, obs.NewRegistry(), Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	const n = 150
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), testEntry(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 3 {
		if err := s.Delete(testKey(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if problems := s.Check(); len(problems) != 0 {
		t.Fatalf("Check: %v", problems)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenOptions(dir, obs.NewRegistry(), Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	want := 0
	for i := 0; i < n; i++ {
		e, ok := s2.Get(testKey(i))
		if i%3 == 0 {
			if ok {
				t.Fatalf("deleted key %d still served", i)
			}
			continue
		}
		want++
		if !ok || e.AdapterC != testEntry(i).AdapterC {
			t.Fatalf("entry %d after reopen: ok=%v", i, ok)
		}
	}
	if got := s2.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

func TestStoreIndexes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 9; i++ {
		e := testEntry(i)
		if i%2 == 0 {
			e.Target = "vfft"
		}
		if err := s.Put(testKey(i), e); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.ListByTarget("vfft")); got != 5 {
		t.Fatalf("ListByTarget(vfft) = %d, want 5", got)
	}
	if got := len(s.ListByTarget("ffta")); got != 4 {
		t.Fatalf("ListByTarget(ffta) = %d, want 4", got)
	}
	if got := len(s.ListByTarget("nope")); got != 0 {
		t.Fatalf("ListByTarget(nope) = %d, want 0", got)
	}
	// Three signatures cycle mod 3 over nine entries.
	if got := len(s.ListBySig(testEntry(0).Sig)); got != 3 {
		t.Fatalf("ListBySig = %d, want 3", got)
	}
	// Re-putting under a new target retires the old index entry.
	moved := testEntry(0)
	moved.Target = "ffta"
	if err := s.Put(testKey(0), moved); err != nil {
		t.Fatal(err)
	}
	if got := len(s.ListByTarget("vfft")); got != 4 {
		t.Fatalf("ListByTarget(vfft) after move = %d, want 4", got)
	}
	if got := len(s.ListByTarget("ffta")); got != 5 {
		t.Fatalf("ListByTarget(ffta) after move = %d, want 5", got)
	}
}

// corruptPageContaining flips bytes of the first page of store.db whose
// payload contains marker, simulating media damage, and returns its page
// number. The store must be closed.
func corruptPageContaining(t *testing.T, dir string, pageSize int, marker string) uint64 {
	t.Helper()
	path := filepath.Join(dir, "store.db")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The last occurrence lives in the newest (live) page; earlier ones
	// may be stale copy-on-write leftovers nobody reads.
	idx := bytes.LastIndex(data, []byte(marker))
	if idx < 0 {
		t.Fatalf("marker %q not found in store.db", marker)
	}
	data[idx] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return uint64(idx / pageSize)
}

// TestStoreQuarantinesCorruptPage: media damage under a cached entry
// must never be served — the page is quarantined, the Get misses, and a
// recompile heals the key.
func TestStoreQuarantinesCorruptPage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(2)
	if err := s.Put(key, testEntry(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	corruptPageContaining(t, dir, defaultPage, "adapter 2")

	// Reopen WITHOUT the open-time verify so the damage is discovered on
	// the serving path.
	reg := obs.NewRegistry()
	s2, err := OpenOptions(dir, reg, Options{DisableVerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if e, ok := s2.Get(key); ok {
		t.Fatalf("corrupt entry served: %+v", e)
	}
	// Deterministic miss, exactly one quarantine even when hit again.
	if _, ok := s2.Get(key); ok {
		t.Fatal("corrupt entry served on second Get")
	}
	if got := reg.Counters()["store.corrupt_quarantined"]; got != 1 {
		t.Fatalf("corrupt_quarantined = %d, want 1", got)
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) == 0 {
		t.Fatalf("quarantine dir: entries=%d err=%v", len(q), err)
	}

	// The key is healable: recompile-and-Put serves hits again.
	if err := s2.Put(key, testEntry(2)); err != nil {
		t.Fatal(err)
	}
	if e, ok := s2.Get(key); !ok || e.AdapterC != testEntry(2).AdapterC {
		t.Fatalf("Get after heal: ok=%v e=%+v", ok, e)
	}
}

// TestStoreVerifyOnOpenQuarantines: the same damage found at open time
// is quarantined before the store serves, and neighbours survive.
func TestStoreVerifyOnOpenQuarantines(t *testing.T) {
	dir := t.TempDir()
	// Small pages: each entry's value spills to its own overflow chain,
	// so damage is scoped to one entry.
	s, err := OpenOptions(dir, obs.NewRegistry(), Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 14; i++ {
		if err := s.Put(testKey(i), testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	corruptPageContaining(t, dir, 512, "adapter 11")

	reg := obs.NewRegistry()
	s2, err := OpenOptions(dir, reg, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if reg.Counters()["store.corrupt_quarantined"] == 0 {
		t.Fatal("open-time verify quarantined nothing")
	}
	if problems := s2.Check(); len(problems) != 0 {
		t.Fatalf("store inconsistent after verify: %v", problems)
	}
	if _, ok := s2.Get(testKey(11)); ok {
		t.Fatal("damaged entry served after verify")
	}
	for _, i := range []int{10, 12, 13} {
		if e, ok := s2.Get(testKey(i)); !ok || e.AdapterC != testEntry(i).AdapterC {
			t.Fatalf("neighbour %d damaged by recovery: ok=%v", i, ok)
		}
	}
}

// TestStoreEntryChecksumDefense: a record that decodes but fails the
// entry's own checksum (page checksums bypassed — a logic bug or a
// hostile writer) still misses and quarantines.
func TestStoreEntryChecksumDefense(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := testKey(20)
	// A record whose payload changed after it was sealed, injected
	// through the raw commit path (bypassing Put, which would fix the
	// checksum).
	e := Entry{Key: key, Target: "ffta", AdapterC: "void good(){}"}
	sealEntry(&e)
	e.AdapterC = "void evil(){}"
	bad := encodeEntry(&e)
	if _, _, err := decodeEntry(bad); err != nil {
		t.Fatalf("the injected record must reach the checksum comparison, but it fails to decode: %v", err)
	}
	if err := s.commitDirect(&storeOp{kind: opPut, key: key, value: bad}); err != nil {
		t.Fatal(err)
	}
	if e, ok := s.Get(key); ok {
		t.Fatalf("entry with bad checksum served: %+v", e)
	}
	if got := reg.Counters()["store.corrupt_quarantined"]; got != 1 {
		t.Fatalf("corrupt_quarantined = %d, want 1", got)
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 || !strings.HasPrefix(q[0].Name(), "entry-"+key+".bin.") {
		t.Fatalf("quarantine evidence: %v (err=%v), want one entry-%s.bin file", q, err, key)
	}
}

// TestStoreSetsAsideOlderFormat: a store written at format version 1,
// whose values were JSON, is set aside whole — database and WAL together
// — and the store opens empty. The fixture in testdata/store-v1 was
// written by the version-1 store with 512-byte pages: three Puts, a
// Delete, then a Put whose checkpoint failed after its WAL fsync, so the
// WAL holds a record a version-1 reopen replays.
func TestStoreSetsAsideOlderFormat(t *testing.T) {
	dir := t.TempDir()
	fixture := copyV1Fixture(t, dir)
	reg := obs.NewRegistry()
	s, err := OpenOptions(dir, reg, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	// No WAL record was replayed and no old value was decoded: each
	// would have been quarantined entry by entry, one verify round each.
	c := reg.Counters()
	if c["store.format_resets"] != 1 || c["store.recovered_pending"] != 0 || c["store.corrupt_quarantined"] != 0 {
		t.Fatalf("counters after opening a version-1 store: %v", c)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("Len = %d, want an empty store", n)
	}
	for i := 0; i < 4; i++ {
		if _, ok := s.Get(testKey(i)); ok {
			t.Fatalf("entry %d of the old store served", i)
		}
	}
	// Both old files are evidence in quarantine/, byte for byte.
	qdir := filepath.Join(dir, "quarantine")
	if q, err := os.ReadDir(qdir); err != nil || len(q) != 2 {
		t.Fatalf("quarantine holds %v (err=%v), want the old store.db and wal.log", q, err)
	}
	checkSetAside(t, qdir, fixture)

	// The fresh store works, and survives a reopen.
	if err := s.Put(testKey(7), testEntry(7)); err != nil {
		t.Fatal(err)
	}
	if e, ok := s.Get(testKey(7)); !ok || e.AdapterC != testEntry(7).AdapterC {
		t.Fatalf("Get after Put: ok=%v", ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	s2, err := OpenOptions(dir, reg2, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if e, ok := s2.Get(testKey(7)); !ok || e.AdapterC != testEntry(7).AdapterC {
		t.Fatalf("Get after reopen: ok=%v", ok)
	}
	if c := reg2.Counters(); c["store.format_resets"] != 0 || c["store.corrupt_quarantined"] != 0 {
		t.Fatalf("reopening the upgraded store: %v", c)
	}
	if q, _ := os.ReadDir(qdir); len(q) != 2 {
		t.Fatalf("quarantine holds %d files after reopen, want 2", len(q))
	}
}

// copyV1Fixture copies the version-1 store in testdata/store-v1 into dir
// and returns its files' bytes by name.
func copyV1Fixture(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	fixture := map[string][]byte{}
	for _, name := range []string{"store.db", "wal.log"} {
		b, err := os.ReadFile(filepath.Join("testdata", "store-v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		fixture[name] = b
	}
	return fixture
}

// checkSetAside asserts that quarantine directory qdir holds each of the
// fixture's files byte for byte, and no entry evidence.
func checkSetAside(t *testing.T, qdir string, fixture map[string][]byte) {
	t.Helper()
	q, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, de := range q {
		if strings.HasPrefix(de.Name(), "entry-") {
			t.Fatalf("an old entry was decoded and quarantined: %s", de.Name())
		}
		name := de.Name()[:strings.LastIndexByte(de.Name(), '.')]
		got, err := os.ReadFile(filepath.Join(qdir, de.Name()))
		if err == nil && bytes.Equal(got, fixture[name]) {
			found[name] = true
		}
	}
	for name := range fixture {
		if !found[name] {
			t.Fatalf("quarantine %v does not hold the old %s byte for byte", q, name)
		}
	}
}

// TestStoreOlderFormatCrashSafe crashes the set-aside of a version-1
// store at each of its durable operations, in each mode, and reopens:
// whichever step the crash hit, the store must come up empty and
// consistent with both old files preserved, no old WAL record replayed
// and no old value decoded.
func TestStoreOlderFormatCrashSafe(t *testing.T) {
	probeDir := t.TempDir()
	copyV1Fixture(t, probeDir)
	probe := faultinject.NewCrashVFS(nil, faultinject.CrashPlan{})
	s, err := OpenOptions(probeDir, obs.NewRegistry(), Options{PageSize: 512, VFS: probe})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	sites := probe.Sites()
	if ops := faultinject.SiteOps(sites); ops["rename"] < 2 {
		t.Fatalf("set-aside enumerated %v, want both renames among its crash sites", ops)
	}
	for _, site := range sites {
		for _, mode := range faultinject.CrashModes {
			t.Run(fmt.Sprintf("site%02d_%s_%s", site.Site, site.Op, mode), func(t *testing.T) {
				dir := t.TempDir()
				fixture := copyV1Fixture(t, dir)
				vfs := faultinject.NewCrashVFS(nil, faultinject.CrashPlan{Site: site.Site, Mode: mode})
				if s, err := OpenOptions(dir, obs.NewRegistry(), Options{PageSize: 512, VFS: vfs}); err == nil {
					s.Close()
				}
				if !vfs.Crashed() {
					t.Fatalf("plan site %d never fired", site.Site)
				}
				reg := obs.NewRegistry()
				s, err := OpenOptions(dir, reg, Options{PageSize: 512})
				if err != nil {
					t.Fatalf("reopen after crash: %v", err)
				}
				defer s.Close()
				if n := s.Len(); n != 0 {
					t.Fatalf("Len = %d after reopening, want an empty store", n)
				}
				if problems := s.Check(); len(problems) != 0 {
					t.Fatalf("store inconsistent after reopening: %v", problems)
				}
				if got := reg.Counters()["store.recovered_pending"]; got != 0 {
					t.Fatalf("recovered_pending = %d: an old WAL record was replayed", got)
				}
				checkSetAside(t, filepath.Join(dir, "quarantine"), fixture)
			})
		}
	}
}

// TestStoreMVCCReadersDontBlockCommit is the ISSUE acceptance: snapshot
// reads complete while a commit is held in flight at its fsync. Run
// under -race.
func TestStoreMVCCReadersDontBlockCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testKey(30), testEntry(30)); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.FaultHook = func(op, path string) error {
		if op == "db_sync" {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		return nil
	}
	putDone := make(chan error, 1)
	go func() { putDone <- s.Put(testKey(31), testEntry(31)) }()
	<-entered // the commit is now parked mid-checkpoint

	// Readers must finish while the writer is parked: hits on the old
	// snapshot, misses for the in-flight key.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if e, ok := s.Get(testKey(30)); !ok || e.AdapterC != testEntry(30).AdapterC {
					t.Errorf("snapshot read failed during commit: ok=%v", ok)
					return
				}
			}
		}()
	}
	readsDone := make(chan struct{})
	go func() { wg.Wait(); close(readsDone) }()
	select {
	case <-readsDone:
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot reads blocked behind an in-flight commit")
	}
	if _, ok := s.Get(testKey(31)); ok {
		t.Fatal("uncommitted entry visible to a snapshot read")
	}

	close(release)
	if err := <-putDone; err != nil {
		t.Fatalf("parked Put failed: %v", err)
	}
	if e, ok := s.Get(testKey(31)); !ok || e.AdapterC != testEntry(31).AdapterC {
		t.Fatalf("entry invisible after commit: ok=%v", ok)
	}
}

func TestStoreGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Park the first commit so the rest of the burst queues behind it.
	hold := make(chan struct{})
	var once sync.Once
	s.FaultHook = func(op, path string) error {
		if op == "wal_append" {
			once.Do(func() { <-hold })
		}
		return nil
	}
	var wg sync.WaitGroup
	const n = 24
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Put(testKey(40+i), testEntry(40+i)); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the burst enqueue
	close(hold)
	wg.Wait()
	c := reg.Counters()
	if c["store.commits"] != n {
		t.Fatalf("commits = %d, want %d", c["store.commits"], n)
	}
	if c["store.commit_batches"] >= n {
		t.Fatalf("batches = %d: group commit never coalesced %d puts", c["store.commit_batches"], n)
	}
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := OpenOptions(dir, reg, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if err := s.Put(testKey(i), testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 70; i++ {
		if err := s.Delete(testKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().Pages
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().Pages
	if after >= before {
		t.Fatalf("compaction did not shrink the file: %d -> %d pages", before, after)
	}
	if reg.Counters()["store.compactions"] != 1 {
		t.Fatal("no compaction counted")
	}
	for i := 70; i < 80; i++ {
		if e, ok := s.Get(testKey(i)); !ok || e.AdapterC != testEntry(i).AdapterC {
			t.Fatalf("entry %d lost by compaction: ok=%v", i, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenOptions(dir, obs.NewRegistry(), Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 10 {
		t.Fatalf("Len after compaction+reopen = %d, want 10", got)
	}
}

// TestStoreSnapshotSurvivesCompaction: a pinned snapshot keeps reading
// the retired file generation after compaction replaces it.
func TestStoreSnapshotSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, obs.NewRegistry(), Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		if err := s.Put(testKey(i), testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	sp := s.acquireSnapshot()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// The snapshot still reads the old generation.
	val, err := lookup(sp, s.opts.PageSize, sp.m.root, primaryKey(testKey(5)))
	if err != nil || !bytes.Contains(val, []byte("adapter 5")) {
		t.Fatalf("snapshot read after compaction: err=%v", err)
	}
	sp.release()
	if e, ok := s.Get(testKey(5)); !ok || e.AdapterC != testEntry(5).AdapterC {
		t.Fatalf("entry lost across compaction: ok=%v", ok)
	}
}

func TestStoreQuarantineGCBounds(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := OpenOptions(dir, reg, Options{QuarantineMaxFiles: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 30; i++ {
		s.writeQuarantineFile(fmt.Sprintf("page-%d.bin", i), []byte("evidence"))
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) > 5 {
		t.Fatalf("quarantine dir holds %d files, bound is 5", len(q))
	}
	if g := reg.Gauges()["store.quarantined"]; g > 5 {
		t.Fatalf("store.quarantined gauge = %v, want <= 5", g)
	}

	// Age-based GC: a file backdated past the cutoff is pruned.
	old := filepath.Join(dir, "quarantine", "ancient.bin")
	if err := os.WriteFile(old, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-30 * 24 * time.Hour)
	os.Chtimes(old, past, past)
	s.gcQuarantine()
	if _, err := os.Stat(old); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("aged-out quarantine evidence not pruned")
	}
}

// TestStoreBreakerDegradesOnIOErrors: consecutive storage failures open
// the I/O breaker; the store then degrades to pass-through (miss without
// touching the disk) instead of hammering a sick device, and recovers
// once the disk heals.
func TestStoreBreakerDegradesOnIOErrors(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testKey(9), testEntry(9)); err != nil {
		t.Fatal(err)
	}

	sick := true
	hookCalls := 0
	var mu sync.Mutex
	s.FaultHook = func(op, path string) error {
		mu.Lock()
		defer mu.Unlock()
		hookCalls++
		if sick {
			return errors.New("injected: disk unplugged")
		}
		return nil
	}
	threshold := s.Breaker().Threshold
	for i := 0; i < threshold; i++ {
		if _, ok := s.Get(testKey(9)); ok {
			t.Fatalf("hit %d despite injected I/O error", i)
		}
	}
	if s.Breaker().State() != faultinject.Open {
		t.Fatalf("breaker state = %v, want open after %d failures", s.Breaker().State(), threshold)
	}
	mu.Lock()
	callsAtOpen := hookCalls
	mu.Unlock()
	if _, ok := s.Get(testKey(9)); ok {
		t.Fatal("hit while breaker open")
	}
	mu.Lock()
	stillTouching := hookCalls != callsAtOpen
	mu.Unlock()
	if stillTouching {
		t.Fatal("open breaker still touched the disk")
	}
	if err := s.Put(testKey(10), testEntry(10)); err == nil {
		t.Fatal("Put succeeded while breaker open")
	}

	// Disk heals; after the cooldown a probe closes the circuit and the
	// cached entry is servable again.
	mu.Lock()
	sick = false
	mu.Unlock()
	s.Breaker().Cooldown = 0
	if e, ok := s.Get(testKey(9)); !ok || e.AdapterC != testEntry(9).AdapterC {
		t.Fatalf("Get after heal: ok=%v", ok)
	}
	if s.Breaker().State() != faultinject.Closed {
		t.Fatalf("breaker state = %v, want closed", s.Breaker().State())
	}
	if reg.Counters()["store.breaker.rejected"] == 0 {
		t.Fatal("no rejected ops counted")
	}
}

// ---------------------------------------------------------------------
// Crash mini-matrix
// ---------------------------------------------------------------------

// matrixExpect tracks what the workload has durably acknowledged: the
// entries whose Put returned nil (must survive any later crash) and the
// keys whose Delete returned nil (must stay gone). The one operation in
// flight when the crash fired is recorded too: it may or may not have
// reached its durability point, so both outcomes are legal for its key.
type matrixExpect struct {
	present map[string]Entry
	absent  map[string]bool

	pendingKey    string // key of the op interrupted by the crash ("" = none)
	pendingEntry  Entry  // the value it was writing (puts)
	pendingDelete bool
}

// matrixWorkload drives a deterministic write mix — inserts, a replace,
// a delete, a compaction — through the given VFS until it finishes or
// the planned crash fires. It returns what had been acknowledged by
// then.
func matrixWorkload(dir string, vfs faultinject.VFS) (*matrixExpect, error) {
	exp := &matrixExpect{present: map[string]Entry{}, absent: map[string]bool{}}
	st, err := OpenOptions(dir, obs.NewRegistry(), Options{
		PageSize: 512, VFS: vfs, AutoCompactPages: -1, DisableVerifyOnOpen: true,
	})
	if err != nil {
		return exp, err
	}
	defer st.Close()
	step := func(key string, e Entry, put bool) error {
		if put {
			if err := st.Put(key, e); err != nil {
				exp.pendingKey, exp.pendingEntry = key, e
				return err
			}
			exp.present[key] = e
			delete(exp.absent, key)
			return nil
		}
		if err := st.Delete(key); err != nil {
			exp.pendingKey, exp.pendingDelete = key, true
			return err
		}
		delete(exp.present, key)
		exp.absent[key] = true
		return nil
	}
	for i := 0; i < 4; i++ {
		if err := step(testKey(i), testEntry(i), true); err != nil {
			return exp, err
		}
	}
	if err := step(testKey(1), Entry{}, false); err != nil { // delete
		return exp, err
	}
	repl := testEntry(2)
	repl.Target = "vfft" // replace with an index move
	if err := step(testKey(2), repl, true); err != nil {
		return exp, err
	}
	if err := st.Compact(); err != nil {
		return exp, err
	}
	if err := step(testKey(5), testEntry(5), true); err != nil {
		return exp, err
	}
	return exp, nil
}

// TestStoreCrashMatrix is the package-level crash matrix: the workload
// is probed once to enumerate every durable operation, then replayed
// with a simulated power loss at each site in each damage mode. After
// every crash the store must reopen consistent, serve every
// acknowledged entry byte-identically, keep acknowledged deletes
// deleted, and never serve damaged data. The full-system matrix (with
// recompile baselines) lives in internal/eval.
func TestStoreCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is not -short")
	}
	probe := faultinject.NewCrashVFS(nil, faultinject.CrashPlan{})
	if _, err := matrixWorkload(t.TempDir(), probe); err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	sites := probe.Sites()
	if len(sites) < 30 {
		t.Fatalf("only %d crash sites enumerated, want >= 30", len(sites))
	}
	ops := faultinject.SiteOps(sites)
	for _, op := range []string{"write", "sync", "truncate", "rename"} {
		if ops[op] == 0 {
			t.Fatalf("no %q crash sites in the workload (ops=%v)", op, ops)
		}
	}

	for _, site := range sites {
		for _, mode := range faultinject.CrashModes {
			site, mode := site, mode
			t.Run(fmt.Sprintf("site%03d_%s_%s", site.Site, site.Op, mode), func(t *testing.T) {
				dir := t.TempDir()
				vfs := faultinject.NewCrashVFS(nil, faultinject.CrashPlan{Site: site.Site, Mode: mode})
				exp, err := matrixWorkload(dir, vfs)
				if !vfs.Crashed() {
					t.Fatalf("plan site %d never fired (err=%v)", site.Site, err)
				}

				// Reboot: recover on the real disk state the crash left.
				reg := obs.NewRegistry()
				st, err := OpenOptions(dir, reg, Options{PageSize: 512})
				if err != nil {
					t.Fatalf("reopen after crash: %v", err)
				}
				defer st.Close()
				if problems := st.Check(); len(problems) != 0 {
					t.Fatalf("store inconsistent after recovery: %v", problems)
				}
				sameEntry := func(a, b Entry) bool {
					return a.AdapterC == b.AdapterC && a.Target == b.Target && a.Sig == b.Sig
				}
				for key, want := range exp.present {
					e, ok := st.Get(key)
					if key == exp.pendingKey {
						// The interrupted op targeted this key: the old
						// acked value, the in-flight outcome, or (for an
						// in-flight delete) absence are all legal — but
						// nothing else ever is.
						switch {
						case !ok && exp.pendingDelete:
						case !ok:
							t.Fatalf("acknowledged entry %s lost", key)
						case sameEntry(e, want):
						case !exp.pendingDelete && sameEntry(e, exp.pendingEntry):
						default:
							t.Fatalf("entry %s holds a value never written:\n got %+v", key, e)
						}
						continue
					}
					if !ok {
						t.Fatalf("acknowledged entry %s lost", key)
					}
					if !sameEntry(e, want) {
						t.Fatalf("acknowledged entry %s differs after recovery:\n got %+v\nwant %+v", key, e, want)
					}
				}
				for key := range exp.absent {
					e, ok := st.Get(key)
					if !ok {
						continue
					}
					if key == exp.pendingKey && !exp.pendingDelete && sameEntry(e, exp.pendingEntry) {
						continue // the interrupted re-put durably landed
					}
					t.Fatalf("acknowledged delete of %s resurrected", key)
				}
				if exp.pendingKey != "" {
					if _, tracked := exp.present[exp.pendingKey]; !tracked && !exp.absent[exp.pendingKey] {
						// A first-time put interrupted: absent or fully
						// intact are the only legal outcomes.
						if e, ok := st.Get(exp.pendingKey); ok && !sameEntry(e, exp.pendingEntry) {
							t.Fatalf("interrupted put of %s half-applied: %+v", exp.pendingKey, e)
						}
					}
				}
				// Unacknowledged keys may be present (the crash hit after
				// the durability point) — but then they must be intact.
				for i := 0; i < 8; i++ {
					key := testKey(i)
					if _, tracked := exp.present[key]; tracked || exp.absent[key] {
						continue
					}
					if e, ok := st.Get(key); ok {
						if !strings.Contains(e.AdapterC, fmt.Sprintf("adapter %d", i)) {
							t.Fatalf("unacknowledged entry %s served damaged: %+v", key, e)
						}
					}
				}
			})
		}
	}
}
