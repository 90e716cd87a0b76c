package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/bitstream"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
	"parserhawk/internal/tables"
	"parserhawk/internal/tcam"
)

// corpusInputs returns every input of spec's maximum length when that is
// at most 12 bits, otherwise 10k seeded random packets; then the
// verifier's directed inputs, which reach the deep states random packets
// rarely do.
func corpusInputs(spec *pir.Spec, seed int64) []bitstream.Bits {
	maxLen := spec.MaxConsumedBits(0) + spec.LookaheadUse()
	var out []bitstream.Bits
	if maxLen <= 12 {
		for x := uint64(0); x < 1<<uint(maxLen); x++ {
			out = append(out, bitstream.FromUint(x, maxLen))
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 10000; i++ {
			out = append(out, bitstream.Random(rng, maxLen))
		}
	}
	return append(out, core.DirectedInputs(spec, 1000, 200, seed)...)
}

// sameRun reports whether a machine outcome reproduces a reference
// result: verdict, path and dictionary.
func sameRun(o *pir.Outcome, ref pir.Result, in bitstream.Bits) bool {
	return o.Accepted == ref.Accepted && o.Rejected == ref.Rejected &&
		slices.Equal(o.Path, ref.Path) && o.Dict(in).Equal(ref.Dict)
}

// dropFirstExtract returns a copy of prog whose first extracting entry
// lost its first extraction: later fields land at shifted positions, so
// comparing it with the spec exercises Outcome.Same's range comparison.
func dropFirstExtract(prog *tcam.Program) *tcam.Program {
	out := &tcam.Program{Spec: prog.Spec, States: slices.Clone(prog.States)}
	for i := range out.States {
		st := &out.States[i]
		for j := range st.Entries {
			if len(st.Entries[j].Extracts) > 0 {
				st.Entries = slices.Clone(st.Entries)
				st.Entries[j].Extracts = st.Entries[j].Extracts[1:]
				return out
			}
		}
	}
	return nil
}

type machineSubject struct {
	name     string
	spec     *pir.Spec
	maxIter  int
	profiles []hw.Profile
}

// machineSubjects is the corpus: Table 3 with the deep suite and seeded
// random specs on the three scaled Table 3 devices, and the examples on
// the full devices they are written for (the MPLS example's 48-bit
// addresses and 32-bit labels take minutes to fail on 12-bit scaled keys).
func machineSubjects(t *testing.T) []machineSubject {
	scaled := []hw.Profile{tables.TofinoScaled(), tables.IPUScaled(), tables.FPGAScaled()}
	var out []machineSubject
	for _, b := range benchdata.All() {
		out = append(out, machineSubject{b.Name(), b.Spec, b.MaxIterations, scaled})
	}
	for _, spec := range core.ExampleSpecs(t) {
		out = append(out, machineSubject{"example " + spec.Name, spec, 0, []hw.Profile{hw.Tofino(), hw.IPU()}})
	}
	rng := rand.New(rand.NewSource(20260704))
	for i := 0; i < 8; i++ {
		spec := core.RandomSpec(rng, i)
		out = append(out, machineSubject{spec.Name, spec, 0, scaled})
	}
	return out
}

// TestMachinesMatchReferenceOnCompiledPrograms is the verifier's
// soundness anchor: on the whole corpus and the programs compiled from
// it, the compiled machines reproduce the reference interpreters, and Outcome.Same agrees with Result.Same between
// the spec and each program, and between the spec and a corrupted copy of
// the program.
func TestMachinesMatchReferenceOnCompiledPrograms(t *testing.T) {
	for si, s := range machineSubjects(t) {
		seed := int64(si)
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			inputs := corpusInputs(s.spec, seed)
			ns := pir.NewSlots(s.spec)
			sm := pir.NewMachine(s.spec, ns)
			so := &pir.Outcome{KeepPath: true}
			refs := make([]pir.Result, len(inputs))
			for i, in := range inputs {
				refs[i] = s.spec.Run(in, 0)
				sm.Exec(in, 0, so)
				if !sameRun(so, refs[i], in) {
					t.Fatalf("spec machine diverges from Spec.Run on %s", in)
				}
			}
			for _, profile := range s.profiles {
				opts := core.DefaultOptions()
				opts.Timeout = time.Minute
				opts.Workers = 1
				opts.MaxIterations = s.maxIter
				res, err := core.Compile(s.spec, profile, opts)
				if err != nil {
					t.Logf("%s: %v", profile.Name, err)
					continue
				}
				progs := []*tcam.Program{res.Program}
				if bad := dropFirstExtract(res.Program); bad != nil {
					progs = append(progs, bad)
				}
				for pi, prog := range progs {
					label := fmt.Sprintf("%s program %d", profile.Name, pi)
					pm := tcam.NewMachine(prog, ns)
					po := &pir.Outcome{KeepPath: true}
					for i, in := range inputs {
						if pi > 0 && i >= 2000 {
							break // the corrupted copy needs fewer inputs to show disagreement
						}
						sm.Exec(in, 0, so)
						ref := prog.Run(in, 0)
						pm.Exec(in, 0, po)
						if !sameRun(po, ref, in) {
							t.Fatalf("%s: machine diverges from Program.Run on %s", label, in)
						}
						if got, want := po.Same(so, in), ref.Same(refs[i]); got != want {
							t.Fatalf("%s: Outcome.Same=%v, Result.Same=%v on %s", label, got, want, in)
						}
					}
				}
			}
		})
	}
}

// TestVerifyPacketAllocationFree asserts the verifier's per-packet work —
// running a compiled program and the spec, then comparing — allocates
// nothing once the outcomes have grown.
func TestVerifyPacketAllocationFree(t *testing.T) {
	b, ok := benchdata.ByName("Parse MPLS")
	if !ok {
		t.Fatal("Parse MPLS benchmark missing")
	}
	opts := core.DefaultOptions()
	opts.MaxIterations = b.MaxIterations
	res, err := core.Compile(b.Spec, tables.TofinoScaled(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ns := pir.NewSlots(b.Spec)
	sm, pm := pir.NewMachine(b.Spec, ns), tcam.NewMachine(res.Program, ns)
	inputs := corpusInputs(b.Spec, 1)
	var so, po pir.Outcome
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		in := inputs[i%len(inputs)]
		i++
		pm.Exec(in, 0, &po)
		sm.Exec(in, 0, &so)
		po.Same(&so, in)
	})
	if allocs != 0 {
		t.Errorf("Exec+Same allocated %.2f times per packet, want 0", allocs)
	}
}
