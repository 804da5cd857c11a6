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

// TestStoreManyEntries: puts, overwrites by tombstone and delete, and a
// reopen that rebuilds the index from the log.
func TestStoreManyEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, obs.NewRegistry())
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

	s2, err := Open(dir, obs.NewRegistry())
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

// damageRecord flips one byte of the last frame in the log whose record
// contains marker, and returns the frame's offset. The last occurrence
// is the live frame; earlier ones are superseded.
func damageRecord(t *testing.T, dir, marker string) int64 {
	t.Helper()
	path := filepath.Join(dir, LogFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.LastIndex(data, []byte(marker))
	if idx < 0 {
		t.Fatalf("marker %q not found in %s", marker, LogFile)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{data[idx] ^ 0xFF}, int64(idx)); err != nil {
		t.Fatal(err)
	}
	var off int64 = int64(len(logHeader))
	scanFrames(bytes.NewReader(data), off, int64(len(data)), func(o int64, rec []byte, ok bool) {
		if o <= int64(idx) {
			off = o
		}
	})
	return off
}

// TestStoreQuarantinesCorruptPage: media damage under a cached entry,
// here a flipped byte in its frame after Open, must never be served: the
// frame is quarantined, the Get misses, and a recompile heals the key.
func TestStoreQuarantinesCorruptPage(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := testKey(2)
	if err := s.Put(key, testEntry(2)); err != nil {
		t.Fatal(err)
	}
	damageRecord(t, dir, "adapter 2")
	if e, ok := s.Get(key); ok {
		t.Fatalf("corrupt entry served: %+v", e)
	}
	// Deterministic miss, exactly one quarantine even when hit again.
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt entry served on second Get")
	}
	if got := reg.Counters()["store.corrupt_quarantined"]; got != 1 {
		t.Fatalf("corrupt_quarantined = %d, want 1", got)
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 || !strings.HasPrefix(q[0].Name(), "entry-"+key+".bin.") {
		t.Fatalf("quarantine evidence: %v (err=%v), want one entry-%s.bin file", q, err, key)
	}

	// The key is healable: recompile-and-Put serves hits again.
	if err := s.Put(key, testEntry(2)); err != nil {
		t.Fatal(err)
	}
	if e, ok := s.Get(key); !ok || e.AdapterC != testEntry(2).AdapterC {
		t.Fatalf("Get after heal: ok=%v e=%+v", ok, e)
	}
}

// TestStoreVerifyOnOpenQuarantines: the same damage found by Open's scan
// is quarantined before the store serves, and neighbours survive.
func TestStoreVerifyOnOpenQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, obs.NewRegistry())
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
	off := damageRecord(t, dir, "adapter 11")

	reg := obs.NewRegistry()
	s2, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := reg.Counters()["store.corrupt_quarantined"]; got != 1 {
		t.Fatalf("corrupt_quarantined = %d, want 1", got)
	}
	q, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(q) != 1 || !strings.HasPrefix(q[0].Name(), fmt.Sprintf("record-%d.bin.", off)) {
		t.Fatalf("quarantine evidence: %v, want one record-%d.bin file", q, off)
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

// TestStoreOpensManyDamagedRecords: one scan quarantines every damaged
// record, however many, and serves every undamaged one.
func TestStoreOpensManyDamagedRecords(t *testing.T) {
	dir := t.TempDir()
	const n, damaged = 5000, 4500
	log := []byte(logHeader)
	for i := 0; i < n; i++ {
		e := testEntry(i)
		e.Key = testKey(i)
		fr := encodeFrame(sealEntry(&e))
		if i < damaged {
			fr[len(fr)-1] ^= 1 // the record fails its CRC; the header holds
		}
		log = append(log, fr...)
	}
	if err := os.WriteFile(filepath.Join(dir, LogFile), log, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := reg.Counters()
	if c["store.corrupt_quarantined"] != damaged || c["store.torn_tails"] != 0 {
		t.Fatalf("counters = %v, want %d quarantined and no torn tail", c, damaged)
	}
	if got := s.Len(); got != n-damaged {
		t.Fatalf("Len = %d, want %d", got, n-damaged)
	}
	for i := 0; i < n; i++ {
		e, ok := s.Get(testKey(i))
		if i < damaged && ok {
			t.Fatalf("damaged entry %d served", i)
		}
		if i >= damaged && (!ok || e.AdapterC != testEntry(i).AdapterC) {
			t.Fatalf("undamaged entry %d: ok=%v", i, ok)
		}
	}
	if q, _ := os.ReadDir(filepath.Join(dir, "quarantine")); len(q) > 512 {
		t.Fatalf("quarantine holds %d files, bound is 512", len(q))
	}
}

// plantTornTail appends the first half of a frame to the log, as a
// process that died mid-append leaves it.
func plantTornTail(t *testing.T, dir string) {
	t.Helper()
	e := testEntry(99)
	e.Key = testKey(99)
	fr := encodeFrame(sealEntry(&e))
	f, err := os.OpenFile(filepath.Join(dir, LogFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(fr[:len(fr)/2]); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTruncatesTornTail: the half-written frame of an interrupted
// append is quarantined and cut off, and appends resume after the last
// whole frame.
func TestStoreTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), testEntry(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	info, _ := os.Stat(filepath.Join(dir, LogFile))
	plantTornTail(t, dir)

	reg := obs.NewRegistry()
	s2, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if c := reg.Counters(); c["store.torn_tails"] != 1 || c["store.corrupt_quarantined"] != 0 {
		t.Fatalf("counters = %v, want one torn tail", c)
	}
	if after, _ := os.Stat(filepath.Join(dir, LogFile)); after.Size() != info.Size() {
		t.Fatalf("log is %d bytes after recovery, want %d", after.Size(), info.Size())
	}
	if err := s2.Put(testKey(2), testEntry(2)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	for _, i := range []int{1, 2} {
		if e, ok := s3.Get(testKey(i)); !ok || e.AdapterC != testEntry(i).AdapterC {
			t.Fatalf("entry %d after recovery: ok=%v", i, ok)
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
	// A record whose payload changed after it was sealed, appended
	// through the committer directly (Put would fix the checksum). Its
	// frame CRC holds: only the entry checksum can catch it.
	e := Entry{Key: key, Target: "ffta", AdapterC: "void good(){}"}
	sealEntry(&e)
	e.AdapterC = "void evil(){}"
	bad := encodeEntry(&e)
	if _, _, err := decodeEntry(bad); err != nil {
		t.Fatalf("the injected record must reach the checksum comparison, but it fails to decode: %v", err)
	}
	if err := s.submit(&storeOp{key: key, rec: bad}); err != nil {
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

// olderFixtures are stores written by earlier builds, both paged
// B-trees with 512-byte pages: three Puts, a Delete, then a Put whose
// checkpoint failed after its WAL fsync, so each WAL holds a record its
// own build replays on reopen. store-v1 holds JSON values, store-v2
// length-prefixed entry records.
var olderFixtures = []string{"store-v1", "store-v2"}

// TestStoreSetsAsideOlderFormat: an older build's store is set aside
// whole — database and WAL together — and the store opens empty.
func TestStoreSetsAsideOlderFormat(t *testing.T) {
	for _, name := range olderFixtures {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fixture := copyOlderFixture(t, dir, name)
			reg := obs.NewRegistry()
			s, err := Open(dir, reg)
			if err != nil {
				t.Fatal(err)
			}
			// No old record was decoded: each would have been quarantined.
			c := reg.Counters()
			if c["store.format_resets"] != 1 || c["store.corrupt_quarantined"] != 0 {
				t.Fatalf("counters after opening an older store: %v", c)
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
			s2, err := Open(dir, reg2)
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
		})
	}
}

// copyOlderFixture copies testdata/<name> into dir and returns its
// files' bytes by name.
func copyOlderFixture(t *testing.T, dir, name string) map[string][]byte {
	t.Helper()
	fixture := map[string][]byte{}
	for _, file := range []string{"store.db", "wal.log"} {
		b, err := os.ReadFile(filepath.Join("testdata", name, file))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
			t.Fatal(err)
		}
		fixture[file] = b
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

// upgradeWorkload opens an older store, makes the fresh log's first
// Put, then reopens twice: over a torn tail, and cleanly.
func upgradeWorkload(t *testing.T, dir string, vfs faultinject.VFS) error {
	open := func() (*Store, error) { return OpenOptions(dir, obs.NewRegistry(), Options{VFS: vfs}) }
	s, err := open()
	if err != nil {
		return err
	}
	err = s.Put(testKey(7), testEntry(7))
	s.Close()
	if err != nil {
		return err
	}
	plantTornTail(t, dir)
	for i := 0; i < 2; i++ {
		if s, err = open(); err != nil {
			return err
		}
		s.Close()
	}
	return nil
}

// TestStoreOlderFormatCrashSafe crashes the upgrade of an older store at
// each of its durable operations (the two renames, the new log's first
// writes and fsync, then a torn-tail truncate and the reopens' fsyncs),
// in each mode, and reopens: whichever step the crash hit, the store
// must come up consistent with both old files preserved, no old entry
// served and the new one intact if present.
func TestStoreOlderFormatCrashSafe(t *testing.T) {
	for _, name := range olderFixtures {
		cells := func(t *testing.T) { olderFormatCrashCells(t, name) }
		if name == "store-v1" {
			cells(t) // store-v1's cells keep their original top-level names
		} else {
			t.Run(name, cells)
		}
	}
}

func olderFormatCrashCells(t *testing.T, name string) {
	probeDir := t.TempDir()
	copyOlderFixture(t, probeDir, name)
	probe := faultinject.NewCrashVFS(nil, faultinject.CrashPlan{})
	if err := upgradeWorkload(t, probeDir, probe); err != nil {
		t.Fatal(err)
	}
	sites := probe.Sites()
	if ops := faultinject.SiteOps(sites); ops["rename"] < 2 || ops["truncate"] < 1 {
		t.Fatalf("upgrade enumerated %v, want both renames and a truncate among its crash sites", ops)
	}
	for _, site := range sites {
		for _, mode := range faultinject.CrashModes {
			t.Run(fmt.Sprintf("site%02d_%s_%s", site.Site, site.Op, mode), func(t *testing.T) {
				dir := t.TempDir()
				fixture := copyOlderFixture(t, dir, name)
				vfs := faultinject.NewCrashVFS(nil, faultinject.CrashPlan{Site: site.Site, Mode: mode})
				upgradeWorkload(t, dir, vfs)
				if !vfs.Crashed() {
					t.Fatalf("plan site %d never fired", site.Site)
				}
				s, err := Open(dir, obs.NewRegistry())
				if err != nil {
					t.Fatalf("reopen after crash: %v", err)
				}
				defer s.Close()
				if n := s.Len(); n > 1 {
					t.Fatalf("Len = %d after reopening, want at most the one new entry", n)
				}
				if problems := s.Check(); len(problems) != 0 {
					t.Fatalf("store inconsistent after reopening: %v", problems)
				}
				for i := 0; i < 4; i++ {
					if _, ok := s.Get(testKey(i)); ok {
						t.Fatalf("entry %d of the old store served", i)
					}
				}
				if e, ok := s.Get(testKey(7)); ok && e.AdapterC != testEntry(7).AdapterC {
					t.Fatalf("new entry served damaged: %+v", e)
				}
				checkSetAside(t, filepath.Join(dir, "quarantine"), fixture)
			})
		}
	}
}

// TestStoreMVCCReadersDontBlockCommit: reads complete while a commit is
// held in flight at its fsync. Run under -race.
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
		if op == "sync" {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		return nil
	}
	putDone := make(chan error, 1)
	go func() { putDone <- s.Put(testKey(31), testEntry(31)) }()
	<-entered // the commit is now parked before its fsync

	// Readers must finish while the writer is parked: hits on durable
	// entries, misses for the in-flight key.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if e, ok := s.Get(testKey(30)); !ok || e.AdapterC != testEntry(30).AdapterC {
					t.Errorf("read failed during commit: ok=%v", ok)
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
		t.Fatal("reads blocked behind an in-flight commit")
	}
	if _, ok := s.Get(testKey(31)); ok {
		t.Fatal("entry visible before its fsync")
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
		if op == "append" {
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
	s, err := Open(dir, reg)
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
	logSize := func() int64 {
		info, err := os.Stat(filepath.Join(dir, LogFile))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	before := logSize()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := logSize(); after >= before/4 {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before, after)
	}
	if g := reg.Gauges(); g["store.dead_bytes"] != 0 || g["store.live_records"] != 10 {
		t.Fatalf("gauges after compaction: %v", g)
	}
	if reg.Counters()["store.compactions"] != 1 {
		t.Fatal("no compaction counted")
	}
	for i := 70; i < 80; i++ {
		if e, ok := s.Get(testKey(i)); !ok || e.AdapterC != testEntry(i).AdapterC {
			t.Fatalf("entry %d lost by compaction: ok=%v", i, ok)
		}
	}
	if err := s.Put(testKey(80), testEntry(80)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 11 {
		t.Fatalf("Len after compaction+reopen = %d, want 11", got)
	}
}

// TestStoreSnapshotSurvivesCompaction: Gets racing compactions return
// correct bytes. A Get that found its frame in the old file finishes
// reading it before compaction closes that file. Run under -race.
func TestStoreSnapshotSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		if err := s.Put(testKey(i), testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := r; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				i := j % 20
				if e, ok := s.Get(testKey(i)); !ok || e.AdapterC != testEntry(i).AdapterC {
					t.Errorf("Get %d racing a compaction: ok=%v", i, ok)
					return
				}
			}
		}(r)
	}
	// Each round appends and deletes a frame, so every compaction moves
	// the live frames to new offsets in a new file.
	for round := 0; round < 30; round++ {
		if err := s.Put(testKey(100+round), testEntry(100+round)); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(testKey(100 + round)); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
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

// matrixKeys is how many keys the crash-matrix workload touches.
const matrixKeys = 14

// bigEntry is testEntry(n) grown so that its frame spans chunks writes
// of the committer's append buffer: a torn write can then leave a
// prefix of whole buffers of one frame on disk.
func bigEntry(n, chunks int) Entry {
	e := testEntry(n)
	e.AdapterC += strings.Repeat("/* padding */\n", ((chunks-1)*appendBufSize+appendBufSize/2)/14)
	return e
}

// matrixWorkload drives a deterministic write mix through the given VFS
// until it finishes or the planned crash fires: inserts of small and
// multi-buffer entries, replaces, deletes and a re-put, a compaction,
// and reopens — two over a torn tail planted as a process that died
// mid-append leaves one, and a clean one. It returns what had been
// acknowledged by then. The steps are ordered so that the first 78
// sites keep the operation kinds, and so the subtest names, they had
// when the store was a paged B-tree.
func matrixWorkload(t *testing.T, dir string, vfs faultinject.VFS) (*matrixExpect, error) {
	exp := &matrixExpect{present: map[string]Entry{}, absent: map[string]bool{}}
	var st *Store
	open := func() error {
		var err error
		st, err = OpenOptions(dir, obs.NewRegistry(), Options{
			VFS: vfs, AutoCompactBytes: -1, DisableVerifyOnOpen: true,
		})
		return err
	}
	reopen := func(torn bool) error {
		st.Close()
		st = nil
		if torn {
			plantTornTail(t, dir)
		}
		return open()
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	put := func(n int, e Entry) error {
		key := testKey(n)
		if err := st.Put(key, e); err != nil {
			exp.pendingKey, exp.pendingEntry = key, e
			return err
		}
		exp.present[key] = e
		delete(exp.absent, key)
		return nil
	}
	del := func(n int) error {
		key := testKey(n)
		if err := st.Delete(key); err != nil {
			exp.pendingKey, exp.pendingDelete = key, true
			return err
		}
		delete(exp.present, key)
		exp.absent[key] = true
		return nil
	}
	moved := testEntry(2)
	moved.Target = "vfft" // a replace that shrinks the entry and moves it
	steps := []func() error{
		open, // 1: the new log's header
		func() error { return put(0, testEntry(0)) },     // 2-3
		func() error { return reopen(true) },             // 4-5: truncate, fsync
		func() error { return put(1, testEntry(1)) },     // 6-7
		func() error { return put(2, bigEntry(2, 2)) },   // 8-10
		func() error { return put(3, testEntry(3)) },     // 11-12
		func() error { return del(1) },                   // 13-14
		func() error { return put(4, bigEntry(4, 3)) },   // 15-18
		func() error { return put(2, moved) },            // 19-20
		func() error { return del(4) },                   // 21-22
		func() error { return put(5, bigEntry(5, 3)) },   // 23-26
		func() error { return put(6, testEntry(6)) },     // 27-28
		func() error { return del(5) },                   // 29-30
		func() error { return put(7, bigEntry(7, 5)) },   // 31-36
		func() error { return put(1, testEntry(1)) },     // 37-38: re-put a deleted key
		func() error { return del(7) },                   // 39-40
		func() error { return put(8, bigEntry(8, 4)) },   // 41-45
		func() error { return put(9, testEntry(9)) },     // 46-47
		func() error { return del(9) },                   // 48-49
		func() error { return put(10, bigEntry(10, 5)) }, // 50-55
		func() error { return del(10) },                  // 56-57
		func() error { return put(11, bigEntry(11, 4)) }, // 58-62
		func() error { return st.Compact() },             // 63-65: write, fsync, rename
		func() error { return reopen(true) },             // 66-67
		func() error { return put(12, testEntry(12)) },   // 68-69
		func() error { return put(13, bigEntry(13, 5)) }, // 70-75
		func() error { return del(8) },                   // 76-77
		func() error { return reopen(false) },            // 78: fsync
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return exp, err
		}
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
	if _, err := matrixWorkload(t, t.TempDir(), probe); err != nil {
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
				exp, err := matrixWorkload(t, dir, vfs)
				if !vfs.Crashed() {
					t.Fatalf("plan site %d never fired (err=%v)", site.Site, err)
				}

				// Reboot: recover on the real disk state the crash left.
				reg := obs.NewRegistry()
				st, err := Open(dir, reg)
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
				for i := 0; i < matrixKeys; i++ {
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

// encodeFrame returns rec framed, as the committer appends it.
func encodeFrame(rec []byte) []byte {
	f := make([]byte, frameHeader+len(rec))
	putFrameHeader(f, rec)
	copy(f[frameHeader:], rec)
	return f
}
