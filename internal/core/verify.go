package core

import (
	"math/rand"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// verifier implements the CEGIS verification phase (§5.2) and the §7.1
// correctness check: does the candidate implementation agree with the
// specification on every input?
//
// When the input space is small enough the check is exhaustive (complete).
// Otherwise it combines directed path coverage — inputs that steer the
// specification through every transition rule — with uniform random
// sampling, mirroring the paper's simulator-based validation (Figure 22).
type verifier struct {
	spec   *pir.Spec
	opts   Options
	rng    *rand.Rand
	maxLen int
	budget int // interpreter iteration bound for equivalence runs
	// window realizations for directed input generation
	layouts []layout
	keys    [][]skelKeyPart
}

func newVerifier(spec *pir.Spec, opts Options, seed int64) (*verifier, error) {
	v := &verifier{
		spec: spec,
		opts: opts,
		rng:  rand.New(rand.NewSource(seed)),
	}
	// Input length: the longest path of a loop-free spec, or a few loop
	// turns of a loopy one. The interpreter budget is then set strictly
	// above anything an input of that length can drive, so equivalence is
	// never evaluated at an artificial iteration boundary (post-synthesis
	// folding changes iteration counts but not outcomes).
	pathIter := len(spec.States) + 2
	if spec.HasLoop() {
		pathIter = 3 * len(spec.States)
		if pathIter < 8 {
			pathIter = 8
		}
		// A user-supplied iteration bound caps how deep loop verification
		// goes (and how long its inputs are). The interpreter budget below
		// stays far above any path an input can drive, so the bound never
		// creates an artificial iteration-boundary disagreement.
		if opts.MaxIterations > 0 && opts.MaxIterations < pathIter {
			pathIter = opts.MaxIterations
		}
	}
	v.maxLen = spec.MaxConsumedBits(pathIter) + spec.LookaheadUse()
	if v.maxLen == 0 {
		v.maxLen = 1
	}
	v.budget = v.maxLen + len(spec.States) + 4
	back, err := backoffs(spec)
	if err != nil {
		return nil, err
	}
	reach := spec.Reachable()
	v.layouts = make([]layout, len(spec.States))
	v.keys = make([][]skelKeyPart, len(spec.States))
	for i := range spec.States {
		if !reach[i] {
			continue // unreachable states never appear on directed paths
		}
		v.layouts[i], err = stateLayout(spec, &spec.States[i])
		if err != nil {
			return nil, err
		}
		v.keys[i], err = realizeKey(spec, i, v.layouts[i], back[i])
		if err != nil {
			return nil, err
		}
	}
	return v, nil
}

// maxIterBudget is the interpreter iteration bound used for both Spec and
// Impl runs during verification: strictly above any path an input of
// maxLen bits can drive.
func (v *verifier) maxIterBudget() int { return v.budget }

// counterexample searches for an input on which prog and the spec
// disagree. The boolean reports whether one was found; exhaustive reports
// whether the search covered the whole (padded) input space.
func (v *verifier) counterexample(prog *tcam.Program) (cex bitstream.Bits, found, exhaustive bool) {
	cex, found, exhaustive, _ = v.counterexampleStop(prog, nil)
	return cex, found, exhaustive
}

// counterexampleStop is counterexample with a cancellation hook: stop (when
// non-nil) is polled periodically and aborts the search. An aborted search
// reports interrupted=true and MUST NOT be read as "no counterexample
// exists" — the candidate was simply not fully checked. Callers rely on
// this distinction to avoid accepting an unverified program when the
// compile is canceled.
func (v *verifier) counterexampleStop(prog *tcam.Program, stop func() bool) (cex bitstream.Bits, found, exhaustive, interrupted bool) {
	k := v.maxIterBudget()
	check := func(in bitstream.Bits) bool {
		return !prog.Run(in, k).Same(v.spec.Run(in, k))
	}
	stopped := func(i int) bool {
		return stop != nil && i&63 == 0 && stop()
	}
	if v.maxLen <= v.opts.ExhaustiveVerifyBits {
		n := uint64(1) << uint(v.maxLen)
		for x := uint64(0); x < n; x++ {
			if stopped(int(x)) {
				return nil, false, false, true
			}
			in := bitstream.FromUint(x, v.maxLen)
			if check(in) {
				return in, true, true, false
			}
		}
		return nil, false, true, false
	}
	// Deterministic per-rule coverage first: one input per (path rule,
	// state rule) combination. These catch wide-key mistakes that random
	// sampling would hit with probability 2^-keyWidth.
	for i, in := range v.directedSuite() {
		if stopped(i) {
			return nil, false, false, true
		}
		if check(in) {
			return in, true, false, false
		}
	}
	// Then stochastic directed walks and uniform random sampling.
	for i := 0; i < v.opts.VerifySamples/2; i++ {
		if stopped(i) {
			return nil, false, false, true
		}
		in := v.directedInput()
		if check(in) {
			return in, true, false, false
		}
	}
	for i := 0; i < v.opts.VerifySamples/2; i++ {
		if stopped(i) {
			return nil, false, false, true
		}
		in := bitstream.Random(v.rng, v.maxLen)
		if check(in) {
			return in, true, false, false
		}
	}
	return nil, false, false, false
}

// directedSuite deterministically constructs inputs that drive the
// specification through every transition rule of every state: for each
// target (state, rule) pair it walks from the start state, writing the
// key pattern steering toward that state at each hop and finally the
// target rule's own pattern. Because a written pattern can overlap bits
// that influenced earlier hops, the walk re-simulates up to three times
// until it stabilizes.
func (v *verifier) directedSuite() []bitstream.Bits {
	// Steering table: for each state, a rule index (or -1 for default)
	// leading one hop closer to each other state, computed by BFS.
	type hop struct {
		from, rule int // rule == -1 means default
	}
	parent := make([]hop, len(v.spec.States))
	for i := range parent {
		parent[i] = hop{from: -1}
	}
	queue := []int{0}
	seen := map[int]bool{0: true}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		st := &v.spec.States[s]
		visitTarget := func(t pir.Target, rule int) {
			if t.Kind != pir.ToState || seen[t.State] {
				return
			}
			seen[t.State] = true
			parent[t.State] = hop{from: s, rule: rule}
			queue = append(queue, t.State)
		}
		for ri, r := range st.Rules {
			visitTarget(r.Next, ri)
		}
		visitTarget(st.Default, -1)
	}
	// Path of (state, rule-to-take) from start to each state.
	pathTo := func(s int) ([]int, []int, bool) {
		var states, rules []int
		for cur := s; cur != 0; {
			h := parent[cur]
			if h.from < 0 {
				return nil, nil, false
			}
			states = append([]int{h.from}, states...)
			rules = append([]int{h.rule}, rules...)
			cur = h.from
		}
		return states, rules, true
	}

	var suite []bitstream.Bits
	for s := range v.spec.States {
		states, rules, ok := pathTo(s)
		if !ok && s != 0 {
			continue
		}
		// One input per rule of s, plus one for the default.
		for target := -1; target < len(v.spec.States[s].Rules); target++ {
			in := make(bitstream.Bits, v.maxLen)
			var window []int     // absolute positions of s's key window
			var pathWindow []int // key windows of the interior hops
			var dontcare []int   // target rule's masked-out window positions
			for pass := 0; pass < 3; pass++ {
				pos := 0
				dict := bitstream.Dict{}
				collect := func(si int, dst []int) []int {
					for _, p := range v.keys[si] {
						for j := 0; j < p.BitWidth(); j++ {
							if ip := pos + p.RelOff + j; ip >= 0 && ip < len(in) {
								dst = append(dst, ip)
							}
						}
					}
					return dst
				}
				step := func(si, rule int) {
					if rule >= 0 && rule < len(v.spec.States[si].Rules) {
						v.writePatternAll(in, pos, si, v.spec.States[si].Rules[rule])
					}
					for _, e := range v.spec.States[si].Extracts {
						w := extractWidthFor(v.spec, e, dict)
						dict[e.Field] = in.Slice(pos, w)
						pos += w
					}
				}
				pathWindow = pathWindow[:0]
				for i, si := range states {
					pathWindow = collect(si, pathWindow)
					step(si, rules[i])
				}
				window = collect(s, window[:0])
				if target >= 0 {
					dontcare = v.dontcarePositions(in, pos, s, v.spec.States[s].Rules[target])
				} else {
					dontcare = nil
				}
				step(s, target)
			}
			suite = append(suite, in)
			// Near-miss neighbours: flip each bit of s's key window. A TCAM
			// entry with a wrong mask bit is indistinguishable from a right
			// one on exact rule patterns; it always differs on a one-bit
			// neighbour.
			for _, ip := range window {
				flipped := in.Clone()
				flipped[ip] ^= 1
				suite = append(suite, flipped)
			}
			// One-deviation path coverage: also flip each bit of every
			// interior hop's key window while the rest of the path stays on
			// its rule patterns. A wrong mask bit on an interior hop is
			// silent when the wrongly entered state falls through to the
			// same outcome — it only shows when a later state's key happens
			// to match, and that is exactly the combination these inputs
			// provide (deviating hop, exact downstream patterns).
			for _, ip := range pathWindow {
				flipped := in.Clone()
				flipped[ip] ^= 1
				suite = append(suite, flipped)
			}
			// Don't-care-plane coverage: the base pattern leaves a rule's
			// masked-out bits at whatever the walk produced (usually 0),
			// so an implementation that is only wrong on the other setting
			// of a don't-care bit — e.g. a split-key realization that
			// drops the mask conjunct of one fragment — survives every
			// input above. Flip each don't-care bit to visit its
			// unexplored plane, and pair each such flip with every
			// one-bit window near-miss: that two-bit neighbourhood is
			// exactly where a dropped mask conjunct first becomes
			// observable.
			for _, dp := range dontcare {
				dflip := in.Clone()
				dflip[dp] ^= 1
				suite = append(suite, dflip)
				for _, ip := range window {
					if ip == dp {
						continue
					}
					both := dflip.Clone()
					both[ip] ^= 1
					suite = append(suite, both)
				}
			}
		}
	}
	return suite
}

// dontcarePositions returns the in-range absolute input positions of the
// key-window bits that rule r's mask ignores, with state si's cursor at
// pos — the bits writePatternAll leaves untouched.
func (v *verifier) dontcarePositions(in bitstream.Bits, pos, si int, r pir.Rule) []int {
	total := 0
	for _, p := range v.keys[si] {
		total += p.BitWidth()
	}
	var out []int
	bit := 0
	for _, p := range v.keys[si] {
		w := p.BitWidth()
		for j := 0; j < w; j++ {
			shift := uint(total - bit - 1)
			if r.Mask>>shift&1 == 0 {
				if ip := pos + p.RelOff + j; ip >= 0 && ip < len(in) {
					out = append(out, ip)
				}
			}
			bit++
		}
	}
	return out
}

// writePatternAll writes a rule pattern into a state's key windows,
// including back-reference windows (the caller re-simulates afterwards, so
// rewriting history is acceptable for input construction).
func (v *verifier) writePatternAll(in bitstream.Bits, pos, si int, r pir.Rule) {
	total := 0
	for _, p := range v.keys[si] {
		total += p.BitWidth()
	}
	bit := 0
	for _, p := range v.keys[si] {
		w := p.BitWidth()
		for j := 0; j < w; j++ {
			shift := uint(total - bit - 1)
			if r.Mask>>shift&1 == 1 {
				if ip := pos + p.RelOff + j; ip >= 0 && ip < len(in) {
					in[ip] = byte(r.Value >> shift & 1)
				}
			}
			bit++
		}
	}
}

// directedInput builds a random input, then repeatedly simulates the spec
// and overwrites the key windows along the visited trajectory with
// randomly chosen rule patterns, so execution explores deep transitions
// instead of falling into defaults. Each pass re-simulates because a
// write may redirect the path.
func (v *verifier) directedInput() bitstream.Bits {
	in := bitstream.Random(v.rng, v.maxLen)
	for pass := 0; pass < 3; pass++ {
		res := v.spec.Run(in, v.maxIterBudget())
		pos := 0
		dict := bitstream.Dict{}
		for _, si := range res.Path {
			st := &v.spec.States[si]
			if len(st.Rules) > 0 && v.rng.Intn(4) != 0 {
				v.writePattern(in, pos, si, st.Rules[v.rng.Intn(len(st.Rules))])
			}
			for _, e := range st.Extracts {
				w := extractWidthFor(v.spec, e, dict)
				dict[e.Field] = in.Slice(pos, w)
				pos += w
			}
		}
	}
	return in
}

// writePattern writes rule.Value (where rule.Mask is set) into the
// cursor-relative key windows of state si with the cursor at pos.
// Back-reference windows (negative offsets) are skipped: their bits were
// laid down by earlier extraction and rewriting them would change history.
func (v *verifier) writePattern(in bitstream.Bits, pos, si int, r pir.Rule) {
	total := 0
	for _, p := range v.keys[si] {
		total += p.BitWidth()
	}
	bit := 0
	for _, p := range v.keys[si] {
		w := p.BitWidth()
		for j := 0; j < w; j++ {
			shift := uint(total - bit - 1)
			if p.RelOff >= 0 && r.Mask>>shift&1 == 1 {
				if ip := pos + p.RelOff + j; ip >= 0 && ip < len(in) {
					in[ip] = byte(r.Value >> shift & 1)
				}
			}
			bit++
		}
	}
}

func extractWidthFor(spec *pir.Spec, e pir.Extract, dict bitstream.Dict) int {
	f, _ := spec.Field(e.Field)
	if e.LenField == "" {
		return f.Width
	}
	lf, _ := spec.Field(e.LenField)
	n := int(dict[e.LenField].Uint(0, lf.Width))*e.LenScale + e.LenBias
	if n < 0 {
		n = 0
	}
	if n > f.Width {
		n = f.Width
	}
	return n
}

// randomInput returns a uniformly random input of the verifier's maximum
// length; the CEGIS loop seeds its test-case set with one (§5.2).
func (v *verifier) randomInput() bitstream.Bits {
	return bitstream.Random(v.rng, v.maxLen)
}
