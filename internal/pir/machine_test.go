package pir_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/bitstream"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
)

// machineInputs returns the inputs the machine ≡ reference properties run
// on: every input of the spec's maximum length when that is at most 12
// bits, otherwise 10k seeded random packets — most at the maximum length,
// a quarter shorter or longer to exercise zero padding.
func machineInputs(spec *pir.Spec, maxIter int, seed int64) []bitstream.Bits {
	maxLen := spec.MaxConsumedBits(maxIter) + spec.LookaheadUse()
	if maxLen <= 12 {
		out := make([]bitstream.Bits, 0, 1<<uint(maxLen))
		for x := uint64(0); x < 1<<uint(maxLen); x++ {
			out = append(out, bitstream.FromUint(x, maxLen))
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]bitstream.Bits, 10000)
	for i := range out {
		n := maxLen
		if i%4 == 0 {
			n = rng.Intn(maxLen + 9)
		}
		out[i] = bitstream.Random(rng, n)
	}
	return out
}

// checkSpecMachine asserts that the compiled machine reproduces Run on in:
// verdict, path and dictionary.
func checkSpecMachine(t *testing.T, spec *pir.Spec, m *pir.Machine, in bitstream.Bits, maxIter int, o *pir.Outcome) pir.Result {
	t.Helper()
	ref := spec.Run(in, maxIter)
	m.Exec(in, maxIter, o)
	if o.Accepted != ref.Accepted || o.Rejected != ref.Rejected {
		t.Fatalf("%s on %s (maxIter %d): machine accept=%v reject=%v, reference accept=%v reject=%v",
			spec.Name, in, maxIter, o.Accepted, o.Rejected, ref.Accepted, ref.Rejected)
	}
	if !slices.Equal(o.Path, ref.Path) {
		t.Fatalf("%s on %s (maxIter %d): machine path %v, reference path %v", spec.Name, in, maxIter, o.Path, ref.Path)
	}
	if d := o.Dict(in); !d.Equal(ref.Dict) {
		t.Fatalf("%s on %s (maxIter %d): dictionaries differ: %s", spec.Name, in, maxIter, d.Diff(ref.Dict))
	}
	return ref
}

// dropExtract returns spec with the first extraction of its first
// extracting state removed (nil when nothing is extracted): a partner
// whose later fields land at shifted input positions, so Outcome.Same
// must compare ranges rather than positions.
func dropExtract(spec *pir.Spec) *pir.Spec {
	states := make([]pir.State, len(spec.States))
	copy(states, spec.States)
	for i := range states {
		if len(states[i].Extracts) > 0 {
			states[i].Extracts = states[i].Extracts[1:]
			return pir.MustNew(spec.Name+"-drop", spec.Fields, states)
		}
	}
	return nil
}

// checkSpecEquivalence runs the machine ≡ reference property on spec, and
// checks that Outcome.Same agrees with Result.Same against two partners:
// the spec itself under a tight iteration budget (exhaustion) and the
// spec with one extraction dropped (shifted positions, missing fields).
func checkSpecEquivalence(t *testing.T, spec *pir.Spec, maxIter int, seed int64) {
	t.Helper()
	ns := pir.NewSlots(spec)
	m := pir.NewMachine(spec, ns)
	var drop *pir.Machine
	dropSpec := dropExtract(spec)
	if dropSpec != nil {
		drop = pir.NewMachine(dropSpec, ns)
	}
	o := &pir.Outcome{KeepPath: true}
	var p pir.Outcome
	for i, in := range machineInputs(spec, maxIter, seed) {
		ref := checkSpecMachine(t, spec, m, in, maxIter, o)
		tight := 1 + i%3
		m.Exec(in, tight, &p)
		if got, want := o.Same(&p, in), ref.Same(spec.Run(in, tight)); got != want {
			t.Fatalf("%s on %s: Outcome.Same=%v vs maxIter %d, Result.Same=%v", spec.Name, in, got, tight, want)
		}
		if drop != nil {
			drop.Exec(in, maxIter, &p)
			if got, want := o.Same(&p, in), ref.Same(dropSpec.Run(in, maxIter)); got != want {
				t.Fatalf("%s on %s: Outcome.Same=%v vs %s, Result.Same=%v", spec.Name, in, got, dropSpec.Name, want)
			}
		}
	}
}

func exampleSpecs(t *testing.T) []*pir.Spec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.p4"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no .p4 specs under examples/: %v", err)
	}
	var specs []*pir.Spec
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := p4.ParseSpec(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// TestMachineMatchesReferenceCorpus pins the compiled spec machine to the
// §4 reference interpreter over the whole benchmark corpus (Table 3 and
// the deep suite) and the examples, at the default budget and at the
// benchmark's own loop bound.
func TestMachineMatchesReferenceCorpus(t *testing.T) {
	for i, b := range benchdata.All() {
		checkSpecEquivalence(t, b.Spec, 0, int64(i))
		if b.MaxIterations > 0 {
			checkSpecEquivalence(t, b.Spec, b.MaxIterations, int64(i))
		}
	}
	for i, spec := range exampleSpecs(t) {
		checkSpecEquivalence(t, spec, 0, int64(100+i))
	}
}

// machineCornerSpecs covers the semantics a compiled interpreter most
// easily gets wrong: varbit widths clamped at both ends, keys over a
// varbit field past its extracted width, lookahead past the end of the
// packet, keys over never-extracted fields, loops that re-extract a field,
// and loops that only stop at the iteration budget.
func machineCornerSpecs() []*pir.Spec {
	varbit := pir.MustNew("varbit",
		[]pir.Field{{Name: "len", Width: 3}, {Name: "opt", Width: 6, Var: true}, {Name: "tail", Width: 2}},
		[]pir.State{
			{
				Name:     "start",
				Extracts: []pir.Extract{{Field: "len"}, {Field: "opt", LenField: "len", LenScale: 2, LenBias: -3}},
				Key:      []pir.KeyPart{pir.FieldSlice("opt", 2, 6)},
				Rules:    []pir.Rule{{Value: 0b0001, Mask: 0b0011, Next: pir.To(1)}},
				Default:  pir.AcceptTarget,
			},
			{Name: "tail", Extracts: []pir.Extract{{Field: "tail"}}, Default: pir.AcceptTarget},
		})
	lookahead := pir.MustNew("lookahead",
		[]pir.Field{{Name: "a", Width: 2}, {Name: "b", Width: 3}},
		[]pir.State{
			{
				Name:     "start",
				Extracts: []pir.Extract{{Field: "a"}},
				Key:      []pir.KeyPart{pir.LookaheadBits(2, 3), pir.WholeField("a", 2)},
				Rules:    []pir.Rule{pir.ExactRule(0b10101, 5, pir.To(1)), {Value: 0, Mask: 0b11100, Next: pir.RejectTarget}},
				Default:  pir.To(1),
			},
			{
				Name:     "b",
				Extracts: []pir.Extract{{Field: "b"}},
				Key:      []pir.KeyPart{pir.LookaheadBits(0, 4)},
				Rules:    []pir.Rule{pir.ExactRule(0, 4, pir.AcceptTarget)},
				Default:  pir.RejectTarget,
			},
		})
	// "x" is only extracted on one branch but keyed on the join state.
	unextracted := pir.MustNew("unextracted",
		[]pir.Field{{Name: "sel", Width: 1}, {Name: "x", Width: 2}, {Name: "y", Width: 1}},
		[]pir.State{
			{
				Name:     "start",
				Extracts: []pir.Extract{{Field: "sel"}},
				Key:      []pir.KeyPart{pir.WholeField("sel", 1)},
				Rules:    []pir.Rule{pir.ExactRule(1, 1, pir.To(1))},
				Default:  pir.To(2),
			},
			{Name: "getx", Extracts: []pir.Extract{{Field: "x"}}, Default: pir.To(2)},
			{
				Name:     "join",
				Extracts: []pir.Extract{{Field: "y"}},
				Key:      []pir.KeyPart{pir.WholeField("x", 2), pir.WholeField("y", 1)},
				Rules:    []pir.Rule{pir.ExactRule(0b000, 3, pir.RejectTarget)},
				Default:  pir.AcceptTarget,
			},
		})
	// An MPLS-like label stack: loops while the bottom-of-stack bit is 0,
	// re-extracting the same field each turn.
	loop := pir.MustNew("loop",
		[]pir.Field{{Name: "label", Width: 2}, {Name: "bos", Width: 1}},
		[]pir.State{{
			Name:     "mpls",
			Extracts: []pir.Extract{{Field: "label"}, {Field: "bos"}},
			Key:      []pir.KeyPart{pir.WholeField("bos", 1)},
			Rules:    []pir.Rule{pir.ExactRule(0, 1, pir.To(0))},
			Default:  pir.AcceptTarget,
		}})
	// Never stops on its own: every run ends at the iteration budget.
	spin := pir.MustNew("spin",
		[]pir.Field{{Name: "f", Width: 1}},
		[]pir.State{{Name: "spin", Extracts: []pir.Extract{{Field: "f"}}, Default: pir.To(0)}})
	return []*pir.Spec{varbit, lookahead, unextracted, loop, spin}
}

func TestMachineMatchesReferenceCorners(t *testing.T) {
	for i, spec := range machineCornerSpecs() {
		for _, maxIter := range []int{0, 1, 2, 5} {
			checkSpecEquivalence(t, spec, maxIter, int64(i))
		}
	}
}

// TestMachineExecAllocationFree asserts the verifier's per-packet work —
// two runs and a comparison — allocates nothing once the outcomes have
// grown.
func TestMachineExecAllocationFree(t *testing.T) {
	b, ok := benchdata.ByName("Parse MPLS")
	if !ok {
		t.Fatal("Parse MPLS benchmark missing")
	}
	spec := b.Spec
	ns := pir.NewSlots(spec)
	m := pir.NewMachine(spec, ns)
	in := bitstream.Random(rand.New(rand.NewSource(1)), spec.MaxConsumedBits(0))
	var o, p pir.Outcome
	m.Exec(in, 0, &o)
	m.Exec(in, 0, &p)
	allocs := testing.AllocsPerRun(100, func() {
		m.Exec(in, 0, &o)
		m.Exec(in, 3, &p)
		o.Same(&p, in)
	})
	if allocs != 0 {
		t.Errorf("Exec+Same allocated %.1f times per packet, want 0", allocs)
	}
}
