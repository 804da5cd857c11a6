package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"facc"
)

// labelSupported is the golden label of a (program, target) pair FACC
// compiles; every other label is a Fig. 8 failure category.
const labelSupported = "supported"

// goldenPair is the expected outcome of one (program, target) compile:
// the hand-written Fig. 8 label from the corpus metadata, plus the
// SHA-256 and signature of the adapter a correct compile produces.
type goldenPair struct {
	Program string `json:"program"`
	Target  string `json:"target"`
	Label   string `json:"label"`
	Adapter string `json:"adapter_sha256,omitempty"`
	Sig     string `json:"sig,omitempty"`
}

type goldenFile struct {
	About string       `json:"about"`
	Pairs []goldenPair `json:"pairs"`
}

// pair is one compile request of the benchmark corpus with its golden
// outcome.
type pair struct {
	prog   *facc.Benchmark
	target string
	want   goldenPair
}

func (p pair) id() string      { return p.prog.Name + "/" + p.target }
func (p pair) supported() bool { return p.want.Label == labelSupported }

// fig8Label is the corpus's own expected outcome for program b.
func fig8Label(b *facc.Benchmark) string {
	if b.IsSupported() {
		return labelSupported
	}
	return string(b.Failure)
}

// request is the pair as a service request. An empty profile is sent as
// none, exactly as the CLI's -profile flag and the daemon's JSON
// (omitempty) deliver it.
func (p pair) request() facc.CompileRequest {
	req := facc.CompileRequest{
		Name:   p.prog.File,
		Source: p.prog.Source(),
		Target: p.target,
		Entry:  p.prog.Entry,
	}
	if len(p.prog.ProfileValues) > 0 {
		req.ProfileValues = p.prog.ProfileValues
	}
	return req
}

// cliArgs are the facc flags for the pair, in the -profile syntax
// "n=64,128;inverse=0,1" with names sorted.
func (p pair) cliArgs() []string {
	args := []string{"-target", p.target, "-entry", p.prog.Entry}
	names := make([]string, 0, len(p.prog.ProfileValues))
	for name := range p.prog.ProfileValues {
		names = append(names, name)
	}
	sort.Strings(names)
	var groups []string
	for _, name := range names {
		vals := make([]string, len(p.prog.ProfileValues[name]))
		for i, v := range p.prog.ProfileValues[name] {
			vals[i] = strconv.FormatInt(v, 10)
		}
		groups = append(groups, name+"="+strings.Join(vals, ","))
	}
	if len(groups) > 0 {
		args = append(args, "-profile", strings.Join(groups, ";"))
	}
	return args
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// check compares one compile outcome — the adapter text, or the failure
// reason when there is none — with the golden outcome.
func (p pair) check(adapter, reason string) error {
	switch {
	case p.supported() && reason != "":
		return fmt.Errorf("%s: want an adapter, got failure %q", p.id(), reason)
	case p.supported() && sha(adapter) != p.want.Adapter:
		return fmt.Errorf("%s: adapter sha256 %.12s, want %.12s", p.id(), sha(adapter), p.want.Adapter)
	case !p.supported() && (adapter != "" || reason != p.want.Label):
		return fmt.Errorf("%s: want failure %q, got reason %q (adapter %d bytes)",
			p.id(), p.want.Label, reason, len(adapter))
	}
	return nil
}

func goldenPath(root string) string { return filepath.Join(root, "benchmark", "golden.json") }

// loadPairs reads the golden file and returns the corpus pairs in corpus
// order, restricted to the named programs when programs is non-empty. A
// golden label that disagrees with the corpus's hand-written Fig. 8 label
// is an error: the two references must agree before anything is judged
// against them.
func loadPairs(root, programs string) ([]pair, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var gf goldenFile
	if err := json.Unmarshal(data, &gf); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	gold := map[string]goldenPair{}
	for _, g := range gf.Pairs {
		gold[g.Program+"/"+g.Target] = g
	}
	keep := map[string]bool{}
	for _, name := range strings.Split(programs, ",") {
		if name = strings.TrimSpace(name); name != "" {
			keep[name] = true
		}
	}
	var out []pair
	found := map[string]bool{}
	for _, b := range facc.Corpus() {
		if len(keep) > 0 && !keep[b.Name] {
			continue
		}
		found[b.Name] = true
		for _, t := range facc.Targets() {
			p := pair{prog: b, target: t}
			g, ok := gold[p.id()]
			if !ok {
				return nil, fmt.Errorf("golden.json has no entry for %s", p.id())
			}
			if g.Label != fig8Label(b) {
				return nil, fmt.Errorf("golden.json labels %s %q, the corpus says %q", p.id(), g.Label, fig8Label(b))
			}
			p.want = g
			out = append(out, p)
		}
	}
	for name := range keep {
		if !found[name] {
			return nil, fmt.Errorf("-programs: no corpus program %q", name)
		}
	}
	return out, nil
}

// byProgram groups pairs of the same program, keeping corpus order.
func byProgram(pairs []pair) [][]pair {
	var out [][]pair
	for _, p := range pairs {
		if n := len(out); n > 0 && out[n-1][0].prog == p.prog {
			out[n-1] = append(out[n-1], p)
			continue
		}
		out = append(out, []pair{p})
	}
	return out
}

// regenGolden compiles every pair through the facc binary, the library
// and the daemon, and writes golden.json only if all three agree with each
// other and with the corpus's Fig. 8 labels.
func regenGolden(root string) error {
	build := buildDir(root)
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(build, "tmp"), "golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	var pairs []pair
	for _, b := range facc.Corpus() {
		for _, t := range facc.Targets() {
			pairs = append(pairs, pair{prog: b, target: t, want: goldenPair{Label: fig8Label(b)}})
		}
	}
	e := &env{ctx: context.Background(), work: work, pairs: pairs,
		faccBin: filepath.Join(build, "bin", "facc"), faccdBin: filepath.Join(build, "bin", "faccd")}
	paths, err := writeSources(e)
	if err != nil {
		return err
	}
	d, _, err := startDaemon(e.faccdBin, filepath.Join(work, "store"), "-workers", "1", "-j", "1")
	if err != nil {
		return err
	}
	defer d.stop()

	var gf goldenFile
	gf.About = "Expected outcome of every (program, target) compile: the corpus's hand-written " +
		"Fig. 8 label, and for supported pairs the SHA-256 and signature of the adapter. " +
		"Regenerate with: sh benchmark/run.sh -regen-golden"
	var disagree []string
	for _, p := range pairs {
		req := p.request()
		lib, err := facc.CompileContext(e.ctx, req.Name, req.Source, req.Target,
			facc.Options{Entry: req.Entry, ProfileValues: req.ProfileValues, Workers: 1})
		if err != nil {
			return fmt.Errorf("%s: library: %w", p.id(), err)
		}
		cli, err := runCLI(e.ctx, e.faccBin, append(p.cliArgs(), paths[p.prog.Name])...)
		if err != nil {
			return fmt.Errorf("%s: cli: %w", p.id(), err)
		}
		j, _, _, err := d.compile(req)
		if err != nil {
			return fmt.Errorf("%s: daemon: %w", p.id(), err)
		}
		dAdapter, dReason := j.outcome()
		label := lib.FailReason()
		if label == "" {
			label = labelSupported
		}
		switch {
		case label != p.want.Label:
			disagree = append(disagree, fmt.Sprintf("%s: library says %q, Fig. 8 says %q", p.id(), label, p.want.Label))
		case cli.adapter != lib.AdapterC() || cli.reason != lib.FailReason():
			disagree = append(disagree, p.id()+": CLI and library differ")
		case dAdapter != lib.AdapterC() || dReason != lib.FailReason() || j.Sig != lib.Sig():
			disagree = append(disagree, p.id()+": daemon and library differ")
		}
		g := goldenPair{Program: p.prog.Name, Target: p.target, Label: label, Sig: lib.Sig()}
		if lib.OK() {
			g.Adapter = sha(lib.AdapterC())
		}
		gf.Pairs = append(gf.Pairs, g)
	}
	if len(disagree) > 0 {
		return fmt.Errorf("golden.json not written; the paths disagree:\n  %s", strings.Join(disagree, "\n  "))
	}
	data, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root), append(data, '\n'), 0o644)
}

// digest is the request's content address, the key faccd stores it under.
func digest(req facc.CompileRequest) string { return req.Digest() }
