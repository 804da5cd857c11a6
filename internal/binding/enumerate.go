package binding

import (
	"sort"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/minic"
	"facc/internal/obs"
)

// scored pairs a candidate with its heuristic priority so the most
// plausible bindings are fuzz-tested first.
type scored struct {
	cand  *Candidate
	score int
	order int // tiebreaker: enumeration order
}

// Enumerate generates all binding candidates for fn against spec, pruned
// by constraints and heuristics. profile may be nil (no value profiling
// environment); the search is then more conservative. Candidates are
// returned in priority order, deduplicated, each with its Key rendered
// once; callers must not modify them.
func Enumerate(fi *analysis.FuncInfo, spec *accel.Spec, profile *analysis.Profile, opts Options) []*Candidate {
	e := &enumerator{fi: fi, spec: spec, profile: profile, opts: opts}
	e.run()
	sort.SliceStable(e.out, func(i, j int) bool {
		if e.out[i].score != e.out[j].score {
			return e.out[i].score > e.out[j].score
		}
		return e.out[i].order < e.out[j].order
	})
	cands := make([]*Candidate, 0, len(e.out))
	seen := map[string]bool{}
	dups, capped := 0, 0
	for _, s := range e.out {
		k := s.cand.render()
		s.cand.key = k
		if seen[k] {
			dups++
			opts.Events.Record(obs.Event{Kind: obs.KindPruned,
				Function: fi.Fn.Name, Target: spec.Name, Heuristic: "dedup", Candidate: k})
			continue
		}
		seen[k] = true
		if opts.MaxCandidates > 0 && len(cands) >= opts.MaxCandidates {
			capped++
			opts.Events.Record(obs.Event{Kind: obs.KindPruned,
				Function: fi.Fn.Name, Target: spec.Name, Heuristic: "cap", Candidate: k})
			continue
		}
		cands = append(cands, s.cand)
		opts.Events.Record(obs.Event{Kind: obs.KindEmitted,
			Function: fi.Fn.Name, Target: spec.Name, Candidate: k})
	}
	if opts.Obs != nil {
		opts.Obs.Counter("binding.emitted").Add(int64(e.n))
		opts.Obs.Counter("binding.candidates").Add(int64(len(cands)))
		opts.Obs.Counter("binding.pruned.dedup").Add(int64(dups))
		opts.Obs.Counter("binding.pruned.cap").Add(int64(capped))
		opts.Obs.Histogram("binding.candidates_per_function", obs.CountBuckets).
			Observe(float64(len(cands)))
	}
	return cands
}

type enumerator struct {
	fi      *analysis.FuncInfo
	spec    *accel.Spec
	profile *analysis.Profile
	opts    Options
	out     []scored
	n       int
}

func (e *enumerator) emit(c *Candidate, score int) {
	e.n++
	e.out = append(e.out, scored{cand: c, score: score, order: e.n})
}

// prune tallies a heuristic rejection (binding.pruned.<heuristic>) — the
// pruned-vs-enumerated accounting the summary exporter reports — and
// records which hypothesis the heuristic killed.
func (e *enumerator) prune(heuristic, detail string) {
	if e.opts.Obs != nil {
		e.opts.Obs.Counter("binding.pruned." + heuristic).Inc()
	}
	e.opts.Events.Record(obs.Event{Kind: obs.KindPruned,
		Function: e.fi.Fn.Name, Target: e.spec.Name, Heuristic: heuristic, Detail: detail})
}

// arrayChoice is one hypothesis for the (input, output) array pair.
type arrayChoice struct {
	in, out ArrayBinding
	inPlace bool
	used    []string // consumed parameter names
	score   int
}

func (e *enumerator) run() {
	// Functions with observable IO or unsupported parameter shapes get
	// no candidates (paper Fig. 8 failure categories).
	if e.fi.CallsPrintf || e.fi.UsesVoidPtr || e.fi.NestedPointer {
		return
	}
	for _, ac := range e.arrayChoices() {
		e.lengthStage(ac)
	}
}

// arrayChoices enumerates input/output array assignments.
func (e *enumerator) arrayChoices() []arrayChoice {
	var choices []arrayChoice

	type ptrInfo struct {
		p     *analysis.ParamInfo
		elems []complexElemInfo
	}
	var complexPtrs []ptrInfo
	var floatPtrs []*analysis.ParamInfo
	for _, p := range e.fi.PointerParams() {
		elem := p.Type.Decay().Elem
		if infos := classifyElem(elem); infos != nil {
			complexPtrs = append(complexPtrs, ptrInfo{p, infos})
		} else if elem.IsFloat() {
			floatPtrs = append(floatPtrs, p)
		}
	}

	mk := func(p *analysis.ParamInfo, info complexElemInfo, orderScore int) ArrayBinding {
		return ArrayBinding{
			Layout: info.layout,
			Param:  p.Name,
			ReOff:  info.reOff,
			ImOff:  info.imOff,
			Elem:   p.Type.Decay().Elem,
		}
	}

	// Single-array (C99 / struct) shapes.
	for _, pi := range complexPtrs {
		for ord, info := range pi.elems {
			ordScore := 0
			if ord == 0 {
				ordScore = 2 // field-name heuristic
			}
			b := mk(pi.p, info, ordScore)
			if pi.p.Reads && pi.p.Writes {
				choices = append(choices, arrayChoice{
					in: b, out: b, inPlace: true,
					used: []string{pi.p.Name}, score: 4 + ordScore,
				})
			}
		}
	}
	// Out-of-place: reader -> writer pairs with matching layout order.
	for _, inP := range complexPtrs {
		if !inP.p.Reads || inP.p.Writes {
			continue
		}
		for _, outP := range complexPtrs {
			if outP.p.Name == inP.p.Name || !outP.p.Writes {
				continue
			}
			for ord := range inP.elems {
				if ord >= len(outP.elems) {
					continue
				}
				ordScore := 0
				if ord == 0 {
					ordScore = 2
				}
				choices = append(choices, arrayChoice{
					in:    mk(inP.p, inP.elems[ord], ordScore),
					out:   mk(outP.p, outP.elems[ord], ordScore),
					used:  []string{inP.p.Name, outP.p.Name},
					score: 5 + ordScore,
				})
			}
		}
	}

	// Split arrays: pairs of float pointers.
	splitScore := func(re, im *analysis.ParamInfo) int {
		s := 0
		if looksReal(re.Name) {
			s += 2
		}
		if looksImaginary(im.Name) {
			s += 2
		}
		return s
	}
	// In-place split: both arrays read+written.
	for i, re := range floatPtrs {
		for j, im := range floatPtrs {
			if i == j {
				continue
			}
			if !(re.Reads && re.Writes && im.Reads && im.Writes) {
				continue
			}
			b := ArrayBinding{Layout: LayoutSplit, ReParam: re.Name, ImParam: im.Name,
				Elem: re.Type.Decay().Elem}
			choices = append(choices, arrayChoice{
				in: b, out: b, inPlace: true,
				used:  []string{re.Name, im.Name},
				score: 3 + splitScore(re, im),
			})
		}
	}
	// Out-of-place split: read-only pair -> written pair.
	var roFloats, wFloats []*analysis.ParamInfo
	for _, p := range floatPtrs {
		if p.Reads && !p.Writes {
			roFloats = append(roFloats, p)
		}
		if p.Writes {
			wFloats = append(wFloats, p)
		}
	}
	for i, re := range roFloats {
		for j, im := range roFloats {
			if i == j {
				continue
			}
			for k, ore := range wFloats {
				for l, oim := range wFloats {
					if k == l || ore.Name == re.Name || ore.Name == im.Name ||
						oim.Name == re.Name || oim.Name == im.Name {
						continue
					}
					inB := ArrayBinding{Layout: LayoutSplit, ReParam: re.Name,
						ImParam: im.Name, Elem: re.Type.Decay().Elem}
					outB := ArrayBinding{Layout: LayoutSplit, ReParam: ore.Name,
						ImParam: oim.Name, Elem: ore.Type.Decay().Elem}
					choices = append(choices, arrayChoice{
						in: inB, out: outB,
						used:  []string{re.Name, im.Name, ore.Name, oim.Name},
						score: 2 + splitScore(re, im) + splitScore(ore, oim),
					})
				}
			}
		}
	}
	return choices
}

// lengthStage enumerates length bindings for an array choice.
func (e *enumerator) lengthStage(ac arrayChoice) {
	usedSet := map[string]bool{}
	for _, u := range ac.used {
		usedSet[u] = true
	}
	inParam := ac.in.Param
	if ac.in.Layout == LayoutSplit {
		inParam = ac.in.ReParam
	}

	// Ranked integer-parameter candidates: analysis evidence first.
	var ranked []string
	var evidence []string
	if pi := e.fi.Param(inParam); pi != nil {
		evidence = pi.LengthCandidates
	}
	ranked = append(ranked, evidence...)
	for _, ip := range e.fi.IntParams() {
		if !contains(ranked, ip.Name) {
			ranked = append(ranked, ip.Name)
		}
	}

	emitted := false
	for rank, name := range ranked {
		if usedSet[name] && !e.opts.DisableSingleRead {
			e.prune("single-read", "length="+name+" already bound to an array")
			continue
		}
		score := ac.score
		if rank == 0 && len(evidence) > 0 {
			score += 3
		}
		r := e.paramRange(name)
		// Identity conversion, subject to the range heuristic.
		if e.opts.DisableRangeHeuristic || r == nil || e.rangeOverlapsDomain(r, ConvIdentity) {
			e.scalarStage(ac, LengthBinding{Param: name, Conv: ConvIdentity}, score+1, usedSet)
			emitted = true
		} else {
			e.prune("range", "len=n("+name+") profiled values outside the accelerator domain")
		}
		// 2^n conversion: only plausible when the profiled values are
		// small exponents (paper Fig. 6's range-heuristic rejection).
		exp2OK := false
		if e.opts.DisableRangeHeuristic {
			exp2OK = r != nil // still needs a profile to bound allocation
		} else {
			exp2OK = r != nil && r.Max <= 24 && r.Min >= 0 && e.rangeOverlapsDomain(r, ConvExp2)
		}
		if exp2OK {
			e.scalarStage(ac, LengthBinding{Param: name, Conv: ConvExp2}, score, usedSet)
			emitted = true
		} else if r != nil && !e.opts.DisableRangeHeuristic {
			e.prune("range-exp2", "len=1<<"+name+" profiled values outside the accelerator domain")
		}
	}
	if !emitted || len(ranked) == 0 {
		// Fixed-length implementation: constants from loop bounds.
		for _, c := range e.fi.ConstBounds {
			if e.spec.Supports(int(c)) {
				e.scalarStage(ac, LengthBinding{Const: c}, ac.score, usedSet)
			}
		}
	}
}

func (e *enumerator) paramRange(name string) *analysis.Range {
	if e.profile == nil {
		return nil
	}
	return e.profile.Range(name)
}

// rangeOverlapsDomain applies the range heuristic: a length binding is
// plausible only if some observed value lands inside the accelerator's
// domain after conversion.
func (e *enumerator) rangeOverlapsDomain(r *analysis.Range, conv LengthConv) bool {
	if r.Count == 0 {
		return true
	}
	if vals := r.Distinct(); vals != nil {
		for _, v := range vals {
			if n := conv.Apply(v); n > 0 && e.spec.Supports(int(n)) {
				return true
			}
		}
		return false
	}
	lo, hi := conv.Apply(r.Min), conv.Apply(r.Max)
	if lo < 0 || hi < 0 {
		return false
	}
	return hi >= int64(e.spec.MinN) && lo <= int64(e.spec.MaxN)
}

// scalarStage enumerates direction/flags/pins for the remaining scalars.
func (e *enumerator) scalarStage(ac arrayChoice, lb LengthBinding, score int, usedSet map[string]bool) {
	used := map[string]bool{}
	for k := range usedSet {
		used[k] = true
	}
	if lb.Param != "" {
		used[lb.Param] = true
	}

	// Single-read heuristic: a user scalar already consumed (as the
	// length) is not offered again. The ablation switch lifts this.
	var leftovers []string
	for _, ip := range e.fi.IntParams() {
		if !used[ip.Name] || e.opts.DisableSingleRead {
			leftovers = append(leftovers, ip.Name)
		}
	}

	dirParam := e.spec.ParamByRole(accel.RoleDirection)
	var dirs []*DirectionSource
	if dirParam != nil {
		for _, v := range dirParam.Values {
			dirs = append(dirs, &DirectionSource{Constant: v})
		}
		// Bind a user flag to the direction parameter.
		for _, name := range leftovers {
			r := e.paramRange(name)
			if r == nil || !r.IsFlagLike() {
				continue
			}
			vals := r.Distinct()
			if len(vals) != 2 || len(dirParam.Values) != 2 {
				continue
			}
			dirs = append(dirs,
				&DirectionSource{Param: name, Map: map[int64]int64{
					vals[0]: dirParam.Values[0], vals[1]: dirParam.Values[1]}},
				&DirectionSource{Param: name, Map: map[int64]int64{
					vals[0]: dirParam.Values[1], vals[1]: dirParam.Values[0]}},
			)
		}
	} else {
		dirs = []*DirectionSource{nil}
	}

	var flagSets []map[string]int64
	flagSets = append(flagSets, nil)
	for i := range e.spec.Params {
		p := &e.spec.Params[i]
		if p.Role != accel.RoleFlags {
			continue
		}
		var next []map[string]int64
		for _, base := range flagSets {
			for _, v := range p.Values {
				fs := map[string]int64{}
				for k, bv := range base {
					fs[k] = bv
				}
				fs[p.Name] = v
				next = append(next, fs)
			}
		}
		flagSets = next
	}

	for _, dir := range dirs {
		dirUsed := ""
		if dir != nil && dir.Param != "" {
			dirUsed = dir.Param
		}
		// Assign leftover scalars: pinned or free.
		var rem []string
		for _, name := range leftovers {
			if name != dirUsed {
				rem = append(rem, name)
			}
		}
		for _, assign := range e.pinAssignments(rem) {
			for fi2, flags := range flagSets {
				c := &Candidate{
					Spec:    e.spec,
					Input:   ac.in,
					Output:  ac.out,
					Length:  lb,
					InPlace: ac.inPlace,
					Flags:   flags,
					Pins:    assign.pins,
				}
				c.FreeParams = assign.free
				if dir != nil {
					d := *dir
					c.Direction = &d
				}
				s := score
				if dir != nil && dir.Param == "" && dir.Constant == dirParam.Values[0] {
					s++
				}
				// A direction bound from a user flag covers more of the
				// user's domain than a pinned specialization; prefer it.
				if dir != nil && dir.Param != "" {
					s += 2
				}
				if fi2 == 0 {
					s++
				}
				s -= len(assign.pins)
				if e.fi.Fn.Type.Ret.Kind != minic.TVoid {
					c.ReturnIgnored = true
				}
				e.emit(c, s)
			}
		}
	}
}

type pinAssign struct {
	pins []ScalarPin
	free []string
}

// pinAssignments enumerates pin/free combinations for leftover scalars.
// Flag-like parameters may be pinned to each observed value or left free;
// wide-range parameters are always free (fuzzing verifies independence).
func (e *enumerator) pinAssignments(names []string) []pinAssign {
	out := []pinAssign{{}}
	for _, name := range names {
		r := e.paramRange(name)
		var options []pinAssign
		for _, base := range out {
			// Free variant.
			freeVariant := pinAssign{
				pins: append([]ScalarPin{}, base.pins...),
				free: append(append([]string{}, base.free...), name),
			}
			options = append(options, freeVariant)
			if r != nil && r.IsFlagLike() {
				for _, v := range r.Distinct() {
					options = append(options, pinAssign{
						pins: append(append([]ScalarPin{}, base.pins...), ScalarPin{name, v}),
						free: append([]string{}, base.free...),
					})
				}
			}
		}
		out = options
	}
	return out
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
