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

	// The verifier's only interpreters: the spec compiled once, each
	// candidate compiled once per check (both against slots), the outcomes
	// they write into, and one input buffer that enumeration and the input
	// generators refill. Like the RNG they make the verifier single-
	// goroutine; each budgetEnv owns its verifiers.
	slots            *pir.Slots
	specM            *pir.Machine
	specOut, progOut pir.Outcome
	trace            pir.Outcome // KeepPath: the path directedInput steers
	in               bitstream.Bits
	walk             walker
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
	v.slots = pir.NewSlots(spec)
	v.specM = pir.NewMachine(spec, v.slots)
	v.trace.KeepPath = true
	v.in = make(bitstream.Bits, v.maxLen)
	v.walk = newWalker(spec, v.slots)
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
//
// Every candidate input lands in the reused buffer v.in, so a returned
// counterexample is always a fresh copy: the example set keeps it.
func (v *verifier) counterexampleStop(prog *tcam.Program, stop func() bool) (cex bitstream.Bits, found, exhaustive, interrupted bool) {
	k := v.maxIterBudget()
	progM := tcam.NewMachine(prog, v.slots)
	check := func(in bitstream.Bits) bool {
		progM.Exec(in, k, &v.progOut)
		v.specM.Exec(in, k, &v.specOut)
		return !v.progOut.Same(&v.specOut, in)
	}
	stopped := func(i int) bool {
		return stop != nil && i&63 == 0 && stop()
	}
	in := v.in
	if v.maxLen <= v.opts.ExhaustiveVerifyBits {
		// in holds x as a big-endian maxLen-bit number, counting up from 0.
		clear(in)
		n := uint64(1) << uint(v.maxLen)
		for x := uint64(0); x < n; x++ {
			if stopped(int(x)) {
				return nil, false, false, true
			}
			if check(in) {
				return in.Clone(), true, true, false
			}
			for i := len(in) - 1; i >= 0; i-- {
				if in[i] ^= 1; in[i] == 1 {
					break
				}
			}
		}
		return nil, false, true, false
	}
	// Deterministic per-rule coverage first: one input per (path rule,
	// state rule) combination. These catch wide-key mistakes that random
	// sampling would hit with probability 2^-keyWidth.
	i := 0
	v.directedSuite(func(in bitstream.Bits) bool {
		if stopped(i) {
			interrupted = true
			return false
		}
		i++
		if check(in) {
			cex = in.Clone()
			return false
		}
		return true
	})
	if interrupted {
		return nil, false, false, true
	}
	if cex != nil {
		return cex, true, false, false
	}
	// Then stochastic directed walks and uniform random sampling.
	for i := 0; i < v.opts.VerifySamples/2; i++ {
		if stopped(i) {
			return nil, false, false, true
		}
		v.directedInput(in)
		if check(in) {
			return in.Clone(), true, false, false
		}
	}
	for i := 0; i < v.opts.VerifySamples/2; i++ {
		if stopped(i) {
			return nil, false, false, true
		}
		in.Randomize(v.rng)
		if check(in) {
			return in.Clone(), true, false, false
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
//
// Each input is built in v.in and handed to visit, which must not keep
// it; the suite stops early when visit returns false.
func (v *verifier) directedSuite(visit func(bitstream.Bits) bool) {
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

	in, w := v.in, &v.walk
	var window []int     // absolute positions of s's key window
	var pathWindow []int // key windows of the interior hops
	var dontcare []int   // target rule's masked-out window positions
	collect := func(si int, dst []int) []int {
		for _, p := range v.keys[si] {
			for j := 0; j < p.BitWidth(); j++ {
				if ip := w.pos + p.RelOff + j; ip >= 0 && ip < len(in) {
					dst = append(dst, ip)
				}
			}
		}
		return dst
	}
	step := func(si, rule int) {
		if rule >= 0 && rule < len(v.spec.States[si].Rules) {
			v.writePatternAll(in, w.pos, si, v.spec.States[si].Rules[rule])
		}
		w.extract(in, si)
	}
	// flip visits in with bit ip inverted, then restores it.
	flip := func(ip int) bool {
		in[ip] ^= 1
		ok := visit(in)
		in[ip] ^= 1
		return ok
	}
	for s := range v.spec.States {
		states, rules, ok := pathTo(s)
		if !ok && s != 0 {
			continue
		}
		// One input per rule of s, plus one for the default.
		for target := -1; target < len(v.spec.States[s].Rules); target++ {
			clear(in)
			for pass := 0; pass < 3; pass++ {
				w.reset()
				pathWindow = pathWindow[:0]
				for i, si := range states {
					pathWindow = collect(si, pathWindow)
					step(si, rules[i])
				}
				window = collect(s, window[:0])
				if target >= 0 {
					dontcare = v.dontcarePositions(in, w.pos, s, v.spec.States[s].Rules[target])
				} else {
					dontcare = nil
				}
				step(s, target)
			}
			if !visit(in) {
				return
			}
			// Near-miss neighbours: flip each bit of s's key window. A TCAM
			// entry with a wrong mask bit is indistinguishable from a right
			// one on exact rule patterns; it always differs on a one-bit
			// neighbour.
			for _, ip := range window {
				if !flip(ip) {
					return
				}
			}
			// One-deviation path coverage: also flip each bit of every
			// interior hop's key window while the rest of the path stays on
			// its rule patterns. A wrong mask bit on an interior hop is
			// silent when the wrongly entered state falls through to the
			// same outcome — it only shows when a later state's key happens
			// to match, and that is exactly the combination these inputs
			// provide (deviating hop, exact downstream patterns).
			for _, ip := range pathWindow {
				if !flip(ip) {
					return
				}
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
				in[dp] ^= 1
				if !visit(in) {
					return
				}
				for _, ip := range window {
					if ip != dp && !flip(ip) {
						return
					}
				}
				in[dp] ^= 1
			}
		}
	}
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

// directedInput fills in with a random input, then repeatedly runs the
// spec machine and overwrites the key windows along the visited path with
// randomly chosen rule patterns, so execution explores deep transitions
// instead of falling into defaults. Each pass re-runs because a write may
// redirect the path.
func (v *verifier) directedInput(in bitstream.Bits) {
	in.Randomize(v.rng)
	for pass := 0; pass < 3; pass++ {
		v.specM.Exec(in, v.maxIterBudget(), &v.trace)
		v.walk.reset()
		for _, si := range v.trace.Path {
			st := &v.spec.States[si]
			if len(st.Rules) > 0 && v.rng.Intn(4) != 0 {
				v.writePattern(in, v.walk.pos, si, st.Rules[v.rng.Intn(len(st.Rules))])
			}
			v.walk.extract(in, si)
		}
	}
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

// walker replays the spec's extractions along a state sequence the input
// generators prescribe, tracking the cursor. Like the dictionary of the
// reference interpreter it captures each length field's value when the
// field is extracted, so a generator rewriting those bits later (directed
// patterns do rewrite history) does not reach back into varbit widths.
type walker struct {
	extracts [][]pir.SlotExtract // per spec state
	isLen    []bool              // per slot: some extraction's length field
	lenVal   []uint64            // per slot: captured value, 0 until extracted
	pos      int
}

func newWalker(spec *pir.Spec, ns *pir.Slots) walker {
	w := walker{extracts: make([][]pir.SlotExtract, len(spec.States))}
	for i := range spec.States {
		for _, e := range spec.States[i].Extracts {
			w.extracts[i] = append(w.extracts[i], ns.Extract(spec, e))
		}
	}
	w.isLen = make([]bool, ns.Len())
	w.lenVal = make([]uint64, ns.Len())
	for _, xs := range w.extracts {
		for _, x := range xs {
			if x.LenSlot >= 0 {
				w.isLen[x.LenSlot] = true
			}
		}
	}
	return w
}

func (w *walker) reset() {
	w.pos = 0
	clear(w.lenVal)
}

// extract advances the cursor over state si's extractions on in.
func (w *walker) extract(in bitstream.Bits, si int) {
	for i := range w.extracts[si] {
		x := &w.extracts[si][i]
		var lv uint64
		if x.LenSlot >= 0 {
			lv = w.lenVal[x.LenSlot]
		}
		n := x.Len(lv)
		if w.isLen[x.Slot] {
			w.lenVal[x.Slot] = pir.FieldUint(in, w.pos, n, 0, x.Width)
		}
		w.pos += n
	}
}

// randomInput returns a uniformly random input of the verifier's maximum
// length; the CEGIS loop seeds its test-case set with one (§5.2).
func (v *verifier) randomInput() bitstream.Bits {
	return bitstream.Random(v.rng, v.maxLen)
}
