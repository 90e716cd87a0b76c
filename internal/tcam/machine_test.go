package tcam

import (
	"slices"
	"testing"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
)

// checkMachine asserts that the compiled machine reproduces Run on every
// input of width bits at each iteration budget, and that Outcome.Same
// against the spec machine agrees with Result.Same.
func checkMachine(t *testing.T, name string, prog *Program, width int) {
	t.Helper()
	ns := pir.NewSlots(prog.Spec)
	m := NewMachine(prog, ns)
	sm := pir.NewMachine(prog.Spec, ns)
	o := &pir.Outcome{KeepPath: true}
	var so pir.Outcome
	for _, maxIter := range []int{0, 1, 2, 3} {
		for x := uint64(0); x < 1<<uint(width); x++ {
			in := bitstream.FromUint(x, width)
			ref := prog.Run(in, maxIter)
			m.Exec(in, maxIter, o)
			if o.Accepted != ref.Accepted || o.Rejected != ref.Rejected ||
				!slices.Equal(o.Path, ref.Path) || !o.Dict(in).Equal(ref.Dict) {
				t.Fatalf("%s on %s (maxIter %d): machine %v/%v path=%v dict=%v, reference %v/%v path=%v dict=%v",
					name, in, maxIter, o.Accepted, o.Rejected, o.Path, o.Dict(in),
					ref.Accepted, ref.Rejected, ref.Path, ref.Dict)
			}
			sm.Exec(in, maxIter, &so)
			if got, want := o.Same(&so, in), ref.Same(prog.Spec.Run(in, maxIter)); got != want {
				t.Fatalf("%s on %s (maxIter %d): Outcome.Same=%v, Result.Same=%v", name, in, maxIter, got, want)
			}
		}
	}
}

func TestMachineMatchesRunTable1(t *testing.T) {
	prog, _ := table1Program(t)
	checkMachine(t, "table1", prog, 10)
}

// TestMachineMatchesRunCorners covers the device semantics a compiled
// interpreter most easily gets wrong: targets naming missing states, a
// missing start state, packets falling off the TCAM, loops that only stop
// at the iteration budget, duplicate (table, id) states, split-key chains
// over a field extracted in an earlier state, lookahead past the end of
// the packet, and varbit extraction.
func TestMachineMatchesRunCorners(t *testing.T) {
	spec := pir.MustNew("corners",
		[]pir.Field{{Name: "a", Width: 2}, {Name: "len", Width: 2}, {Name: "opt", Width: 4, Var: true}},
		[]pir.State{{Name: "S", Extracts: []pir.Extract{{Field: "a"}}, Default: pir.AcceptTarget}})
	varbit := []pir.Extract{{Field: "len"}, {Field: "opt", LenField: "len", LenScale: 3, LenBias: -1}}
	progs := map[string]*Program{
		"missing-target": {Spec: spec, States: []State{{
			Key: []pir.KeyPart{pir.LookaheadBits(0, 1)},
			Entries: []Entry{
				{Value: 1, Mask: 1, Extracts: []pir.Extract{{Field: "a"}}, Next: To(0, 7)},
				{Extracts: []pir.Extract{{Field: "a"}}, Next: To(3, 0)},
			},
		}}},
		"missing-start": {Spec: spec, States: []State{{Table: 1, ID: 0, Entries: []Entry{{Next: AcceptTarget}}}}},
		"fall-off": {Spec: spec, States: []State{{
			Key:     []pir.KeyPart{pir.LookaheadBits(1, 2)},
			Entries: []Entry{{Value: 0b10, Mask: 0b11, Extracts: []pir.Extract{{Field: "a"}}, Next: AcceptTarget}},
		}}},
		// Loops while a's low bit is 0, re-extracting a each turn; long
		// runs end at the iteration budget.
		"exhaustion": {Spec: spec, States: []State{
			{Entries: []Entry{{Extracts: []pir.Extract{{Field: "a"}}, Next: To(0, 1)}}},
			{ID: 1, Key: []pir.KeyPart{pir.FieldSlice("a", 1, 2)}, Entries: []Entry{
				{Value: 0, Mask: 1, Extracts: []pir.Extract{{Field: "a"}}, Next: To(0, 1)},
				{Next: AcceptTarget},
			}},
		}},
		// The second (0,0) state is unreachable: Lookup takes the first.
		"duplicate-state": {Spec: spec, States: []State{
			{Entries: []Entry{{Extracts: []pir.Extract{{Field: "a"}}, Next: RejectTarget}}},
			{Entries: []Entry{{Extracts: []pir.Extract{{Field: "a"}}, Next: AcceptTarget}}},
		}},
		// A 3-bit key split into a chain: a's two bits in one state, then
		// the low bit of a again with one lookahead bit in the next.
		"split-key": {Spec: spec, States: []State{
			{Entries: []Entry{{Extracts: []pir.Extract{{Field: "a"}}, Next: To(1, 0)}}},
			{Table: 1, Key: []pir.KeyPart{pir.WholeField("a", 2)}, Entries: []Entry{
				{Value: 0b01, Mask: 0b11, Next: To(2, 0)},
				{Value: 0b11, Mask: 0b01, Next: To(2, 0)},
				{Next: RejectTarget},
			}},
			{Table: 2, Key: []pir.KeyPart{pir.FieldSlice("a", 1, 2), pir.LookaheadBits(4, 1)}, Entries: []Entry{
				{Value: 0b11, Mask: 0b11, Extracts: varbit, Next: AcceptTarget},
				{Value: 0b10, Mask: 0b11, Next: RejectTarget},
			}},
		}},
		// Keys over never-extracted and partially extracted fields.
		"unextracted-key": {Spec: spec, States: []State{
			{Key: []pir.KeyPart{pir.WholeField("a", 2), pir.FieldSlice("opt", 1, 4)}, Entries: []Entry{
				{Value: 0, Mask: 0b11111, Extracts: varbit, Next: To(0, 1)},
				{Next: RejectTarget},
			}},
			{ID: 1, Key: []pir.KeyPart{pir.FieldSlice("opt", 1, 4), pir.LookaheadBits(0, 2)}, Entries: []Entry{
				{Value: 0b10100, Mask: 0b11100, Next: AcceptTarget},
				{Value: 0, Mask: 0b00011, Extracts: []pir.Extract{{Field: "a"}}, Next: AcceptTarget},
			}},
		}},
	}
	for name, prog := range progs {
		checkMachine(t, name, prog, 10)
	}
}
