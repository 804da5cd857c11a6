package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"facc/internal/faultinject"
	"facc/internal/obs"
	"facc/internal/store"
)

// CrashMatrixConfig shapes the crash-point injection matrix over the
// adapter store: one probe run enumerates every durable operation
// (log append, fsync, torn-tail truncate, compaction rename) a
// representative faccd workload performs, then the workload is re-run
// once per (site, mode) pair with a simulated crash at exactly that
// operation.
type CrashMatrixConfig struct {
	// Modes to exercise at every site (default all of
	// faultinject.CrashModes: clean loss, torn write, bit flip).
	Modes []faultinject.CrashMode
	// Dir is the scratch directory (default a fresh temp dir, removed
	// afterwards).
	Dir string
	// KeepArtifacts leaves each crashed site's quarantine directory in
	// place under Dir for CI upload instead of cleaning between runs.
	KeepArtifacts bool
}

func (c *CrashMatrixConfig) defaults() {
	if len(c.Modes) == 0 {
		c.Modes = faultinject.CrashModes
	}
}

// CrashRunResult is one cell of the matrix: the store crashed at Site
// under Mode, rebooted on the real file system, and either recovered to
// a consistent state (OK) or did not.
type CrashRunResult struct {
	Site int    `json:"site"`
	Op   string `json:"op"`
	File string `json:"file"`
	Mode string `json:"mode"`

	OK          bool   `json:"ok"`
	Error       string `json:"error,omitempty"`
	Quarantined int64  `json:"quarantined,omitempty"`
	TornTails   int64  `json:"torn_tails,omitempty"`
	Healed      int    `json:"healed,omitempty"` // entries recompiled after recovery
}

// CrashMatrixReport is the CRASH_MATRIX.json artifact.
type CrashMatrixReport struct {
	Sites  int      `json:"sites"`
	Modes  []string `json:"modes"`
	Runs   int      `json:"runs"`
	Failed int      `json:"failed"`
	// SiteOps counts enumerated sites by operation kind — the proof the
	// matrix covered writes, fsyncs, truncates and renames, not just one
	// flavor of durability.
	SiteOps map[string]int   `json:"site_ops"`
	Results []CrashRunResult `json:"results"`
}

// OK reports whether every cell of the matrix recovered consistently.
func (r *CrashMatrixReport) OK() bool { return r.Failed == 0 }

// crashWorkload drives a representative faccd adapter-store life: ten
// puts, a delete, an overwrite that moves an entry between targets, a
// compaction, a restart over the torn tail of an append a dead process
// left behind, and a final put. It stops at the first error — after a
// simulated crash everything else would fail too.
func crashWorkload(dir string, vfs faultinject.VFS) error {
	opts := store.Options{
		VFS:              vfs,
		AutoCompactBytes: -1,
		// Verification runs on the post-crash reopen; during the
		// crashing run it would only re-read what was just written.
		DisableVerifyOnOpen: true,
	}
	st, err := store.OpenOptions(dir, obs.New().Metrics(), opts)
	if err != nil {
		return err
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	for i := 0; i < crashPuts; i++ {
		if err := st.Put(crashKey(i), crashEntry(i)); err != nil {
			return err
		}
	}
	if err := st.Delete(crashKey(1)); err != nil {
		return err
	}
	moved := crashEntry(2)
	moved.Target = "vfft"
	if err := st.Put(crashKey(2), moved); err != nil {
		return err
	}
	if err := st.Compact(); err != nil {
		return err
	}
	st.Close()
	if err := tearLogTail(dir); err != nil {
		return err
	}
	if st, err = store.OpenOptions(dir, obs.New().Metrics(), opts); err != nil {
		return err
	}
	return st.Put(crashKey(crashPuts+1), crashEntry(crashPuts+1))
}

// crashPuts is how many entries the workload puts before its delete.
const crashPuts = 10

// tearLogTail appends bytes that no frame header accepts to the store's
// log, outside the crash VFS: the torn tail an earlier process left when
// it died mid-append. The reopen must cut it off.
func tearLogTail(dir string) error {
	f, err := os.OpenFile(filepath.Join(dir, store.LogFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte("\xff\xff\xff\x7f torn mid-append"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func crashKey(i int) string { return fmt.Sprintf("cmkey-%04d", i) }

func crashEntry(i int) store.Entry {
	return store.Entry{
		Target:   "ffta",
		Function: fmt.Sprintf("fft_%d", i),
		Sig:      fmt.Sprintf("spec=ffta;in=%d", i%3),
		AdapterC: fmt.Sprintf("/* adapter %d */ %s", i, strings.Repeat("x", 700)),
		Trace:    fmt.Sprintf("trace-%d", i),
	}
}

// crashBaseline is what a run that never crashes leaves behind — the
// byte-identity reference every recovered (or recompiled) entry is
// compared against.
func crashBaseline() map[string]store.Entry {
	want := map[string]store.Entry{}
	for i := 0; i < crashPuts; i++ {
		want[crashKey(i)] = crashEntry(i)
	}
	delete(want, crashKey(1))
	moved := crashEntry(2)
	moved.Target = "vfft"
	want[crashKey(2)] = moved
	want[crashKey(crashPuts+1)] = crashEntry(crashPuts + 1)
	return want
}

// RunCrashMatrix executes the full matrix. Every cell must satisfy the
// recovery invariants: the store reopens, a full tree check is clean,
// no surviving entry differs from the no-crash baseline by a single
// byte, and every lost entry can be recompiled (re-put) to a
// byte-identical copy. A cell that violates any of them is a Failed
// result, not an aborted run — the report shows the whole matrix.
func RunCrashMatrix(ctx context.Context, cfg CrashMatrixConfig) (*CrashMatrixReport, error) {
	cfg.defaults()
	root := cfg.Dir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "crashmatrix")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(root)
	}

	// Probe run: no crash, enumerate the sites.
	probeDir := root + "/probe"
	probe := faultinject.NewCrashVFS(nil, faultinject.CrashPlan{})
	if err := crashWorkload(probeDir, probe); err != nil {
		return nil, fmt.Errorf("crashmatrix: probe workload: %w", err)
	}
	sites := probe.Sites()
	faultinject.SortSites(sites)

	rep := &CrashMatrixReport{
		Sites:   len(sites),
		SiteOps: faultinject.SiteOps(sites),
	}
	for _, m := range cfg.Modes {
		rep.Modes = append(rep.Modes, m.String())
	}

	for _, site := range sites {
		for _, mode := range cfg.Modes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res := runCrashCell(root, site, mode, cfg)
			rep.Runs++
			if !res.OK {
				rep.Failed++
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, nil
}

// runCrashCell runs the workload with a crash planned at one site, then
// reboots on the real OS and checks the recovery invariants.
func runCrashCell(root string, site faultinject.CrashSite, mode faultinject.CrashMode, cfg CrashMatrixConfig) CrashRunResult {
	res := CrashRunResult{Site: site.Site, Op: site.Op, File: site.File, Mode: mode.String()}
	fail := func(format string, args ...any) CrashRunResult {
		res.Error = fmt.Sprintf(format, args...)
		return res
	}

	dir := fmt.Sprintf("%s/site%03d-%s", root, site.Site, mode)
	vfs := faultinject.NewCrashVFS(nil, faultinject.CrashPlan{Site: site.Site, Mode: mode})
	werr := crashWorkload(dir, vfs)
	if !vfs.Crashed() {
		return fail("planned crash at site %d never fired (workload err: %v)", site.Site, werr)
	}

	// Reboot on the real file system with full verification.
	reg := obs.New()
	st, err := store.OpenOptions(dir, reg.Metrics(), store.Options{AutoCompactBytes: -1})
	if err != nil {
		return fail("reopen after crash: %v", err)
	}
	defer st.Close()
	if problems := st.Check(); len(problems) != 0 {
		return fail("post-recovery check: %s", strings.Join(problems, "; "))
	}

	counters := reg.Metrics().Counters()
	res.Quarantined = counters["store.corrupt_quarantined"]
	res.TornTails = counters["store.torn_tails"]

	// Recovery invariant: anything served is byte-identical to the
	// no-crash baseline; anything lost recompiles to a byte-identical
	// copy. The interrupted operation may legitimately have (not)
	// landed, so presence is not asserted — content is.
	for key, want := range crashBaseline() {
		if got, ok := st.Get(key); ok {
			if got.AdapterC != want.AdapterC && got.AdapterC != crashEntry(2).AdapterC {
				// crashKey(2) may still hold its pre-overwrite value.
				return fail("entry %s survived with foreign bytes", key)
			}
			continue
		}
		// Cache miss: the daemon would recompile. Simulate and demand
		// byte identity.
		if err := st.Put(key, want); err != nil {
			return fail("recompile %s: %v", key, err)
		}
		got, ok := st.Get(key)
		if !ok {
			return fail("entry %s missing after recompile", key)
		}
		if got.AdapterC != want.AdapterC || got.Target != want.Target || got.Sig != want.Sig {
			return fail("recompiled %s differs from baseline", key)
		}
		res.Healed++
	}
	res.OK = true
	if !cfg.KeepArtifacts {
		st.Close()
		os.RemoveAll(dir)
	}
	return res
}

// WriteJSON emits the CRASH_MATRIX.json artifact.
func (r *CrashMatrixReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText prints the human-readable matrix summary: coverage by
// operation kind, then every failing cell (or a one-line all-clear).
func (r *CrashMatrixReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Crash-point injection matrix\n")
	fmt.Fprintf(w, "  %d sites x %d modes = %d runs, %d failed\n",
		r.Sites, len(r.Modes), r.Runs, r.Failed)
	var ops []string
	for op := range r.SiteOps {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	var b bytes.Buffer
	for _, op := range ops {
		fmt.Fprintf(&b, " %s=%d", op, r.SiteOps[op])
	}
	fmt.Fprintf(w, "  site coverage:%s\n", b.String())
	torn, quarantined, healed := int64(0), int64(0), 0
	for _, res := range r.Results {
		torn += res.TornTails
		quarantined += res.Quarantined
		healed += res.Healed
		if !res.OK {
			fmt.Fprintf(w, "  FAIL site %3d %s(%s) %s: %s\n",
				res.Site, res.Op, res.File, res.Mode, res.Error)
		}
	}
	fmt.Fprintf(w, "  torn tails cut: %d, quarantines: %d, recompiles healed: %d\n",
		torn, quarantined, healed)
	if r.Failed == 0 {
		fmt.Fprintf(w, "  every crash site recovered consistently\n")
	}
}
