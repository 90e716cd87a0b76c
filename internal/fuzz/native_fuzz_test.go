package fuzz

// Native go test -fuzz targets. They run their seed corpora (f.Add plus
// testdata/fuzz/<Name>/) on every plain `go test`, and explore with the
// coverage-guided engine under `go test -fuzz=FuzzSpecInterp` /
// `-fuzz=FuzzMachineMatchesReference` / `-fuzz=FuzzCanonicalize`. Unlike
// the differential campaign (which needs a compile per spec), these
// targets exercise only front-end invariants — parse, interpret,
// canonicalize — so the engine gets millions of executions per minute.

import (
	"slices"
	"testing"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
)

const fuzzSeedSrcA = `
header eth { bit<4> t; }
header v4  { bit<3> p; }
parser SeedA {
    state start {
        extract(eth);
        transition select(eth.t) {
            4       : parse_v4;
            default : accept;
        }
    }
    state parse_v4 { extract(v4); transition accept; }
}
`

const fuzzSeedSrcB = `
header tag { bit<2> kind; bit<2> more; }
header opt { bit<3> v; }
parser SeedB {
    state start {
        extract(tag);
        transition select(tag.kind, tag.more) {
            (1, 1)  : parse_opt;
            (2, 0)  : reject;
            default : accept;
        }
    }
    state parse_opt { extract(opt); transition start; }
}
`

const fuzzSeedSrcC = `
header h { bit<2> n; }
header b { bit<4> body; }
parser SeedC {
    state start {
        extract(h);
        transition select(lookahead<bit<1>>()) {
            1       : parse_b;
            default : accept;
        }
    }
    state parse_b { extract(b, h.n * 2); transition accept; }
}
`

// fuzzSeedSrcD mixes a varbit extraction, a key over the varbit field,
// and a lookahead window that can run past the end of the packet.
const fuzzSeedSrcD = `
header h   { bit<2> n; bit<1> more; }
header opt { bit<1> k; varbit<6> data; }
parser SeedD {
    state start {
        extract(h);
        transition select(h.more, lookahead<bit<3>>()) {
            (1, 5)  : parse_opt;
            (0, 7)  : reject;
            default : accept;
        }
    }
    state parse_opt {
        extract(opt, h.n * 2);
        transition select(opt.data[5:3]) {
            2       : start;
            default : accept;
        }
    }
}
`

// FuzzSpecInterp fuzzes the §4 reference interpreter: any source the P4
// front end accepts must interpret without panicking, and Run, RunTrace,
// and the consumption bound must stay mutually consistent.
func FuzzSpecInterp(f *testing.F) {
	f.Add(fuzzSeedSrcA, []byte{0x4a}, 0)
	f.Add(fuzzSeedSrcB, []byte{0x55, 0xaa}, 8)
	f.Add(fuzzSeedSrcC, []byte{0xff, 0x00}, 3)
	f.Fuzz(func(t *testing.T, src string, packet []byte, maxIter int) {
		spec, err := p4.ParseSpec(src)
		if err != nil {
			t.Skip()
		}
		if maxIter < 0 || maxIter > 4*pir.DefaultMaxIterations {
			maxIter = 0
		}
		in := bitstream.FromBytes(packet)
		res := spec.Run(in, maxIter)
		traced, trace := spec.RunTrace(in, maxIter)

		if res.Accepted && res.Rejected {
			t.Fatalf("both accepted and rejected: %+v", res)
		}
		if !res.Same(traced) || res.Accepted != traced.Accepted || res.Rejected != traced.Rejected {
			t.Fatalf("Run and RunTrace disagree: %+v vs %+v", res, traced)
		}
		if len(trace) != len(traced.Path) {
			t.Fatalf("trace length %d != path length %d", len(trace), len(traced.Path))
		}
		for i, step := range trace {
			if step.State != traced.Path[i] {
				t.Fatalf("trace step %d attributes state %d, path says %d", i, step.State, traced.Path[i])
			}
			if step.State < 0 || step.State >= len(spec.States) {
				t.Fatalf("trace step %d: state %d out of range", i, step.State)
			}
			if nr := len(spec.States[step.State].Rules); step.Rule < -1 || step.Rule >= nr {
				t.Fatalf("trace step %d: rule %d out of range [-1,%d)", i, step.Rule, nr)
			}
		}
		if bound := spec.MaxConsumedBits(maxIter); res.Consumed > bound {
			t.Fatalf("consumed %d bits, static bound says at most %d", res.Consumed, bound)
		}
	})
}

// FuzzMachineMatchesReference fuzzes the compiled spec interpreter the
// CEGIS verifier uses against the §4 reference interpreter: same verdict,
// path and dictionary, and Outcome.Same must agree with
// Result.Same between the run and a run under a tighter iteration budget.
func FuzzMachineMatchesReference(f *testing.F) {
	f.Add(fuzzSeedSrcA, []byte{0x4a}, 0)
	f.Add(fuzzSeedSrcB, []byte{0x55, 0xaa}, 8)
	f.Add(fuzzSeedSrcC, []byte{0xff, 0x00}, 3)
	f.Add(fuzzSeedSrcD, []byte{0xb7, 0x5d, 0x40}, 0)
	f.Add(fuzzSeedSrcD, []byte{0x3f}, 2)
	f.Fuzz(func(t *testing.T, src string, packet []byte, maxIter int) {
		spec, err := p4.ParseSpec(src)
		if err != nil {
			t.Skip()
		}
		if maxIter < 0 || maxIter > 4*pir.DefaultMaxIterations {
			maxIter = 0
		}
		in := bitstream.FromBytes(packet)
		ns := pir.NewSlots(spec)
		m := pir.NewMachine(spec, ns)
		o := &pir.Outcome{KeepPath: true}
		ref := spec.Run(in, maxIter)
		m.Exec(in, maxIter, o)
		if o.Accepted != ref.Accepted || o.Rejected != ref.Rejected {
			t.Fatalf("verdicts differ: machine accept=%v reject=%v, reference %+v",
				o.Accepted, o.Rejected, ref)
		}
		if !slices.Equal(o.Path, ref.Path) {
			t.Fatalf("paths differ: machine %v, reference %v", o.Path, ref.Path)
		}
		if d := o.Dict(in); !d.Equal(ref.Dict) {
			t.Fatalf("dictionaries differ: %s", d.Diff(ref.Dict))
		}
		tight := 1 + len(ref.Path)/2
		var p pir.Outcome
		m.Exec(in, tight, &p)
		if got, want := o.Same(&p, in), ref.Same(spec.Run(in, tight)); got != want {
			t.Fatalf("Outcome.Same=%v, Result.Same=%v against maxIter %d", got, want, tight)
		}
	})
}

// FuzzCanonicalize fuzzes the spec canonicalizer: the canonical form must
// validate, canonicalization must be idempotent, and the witness must map
// canonical executions back to the original's observable behavior.
func FuzzCanonicalize(f *testing.F) {
	f.Add(fuzzSeedSrcA, []byte{0x4a})
	f.Add(fuzzSeedSrcB, []byte{0x55, 0xaa})
	f.Add(fuzzSeedSrcC, []byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, src string, packet []byte) {
		spec, err := p4.ParseSpec(src)
		if err != nil {
			t.Skip()
		}
		canon, wit, err := pir.Canonicalize(spec)
		if err != nil {
			t.Fatalf("canonicalize rejected a parsed spec: %v", err)
		}
		if err := canon.Validate(); err != nil {
			t.Fatalf("canonical form does not validate: %v", err)
		}

		again, _, err := pir.Canonicalize(canon)
		if err != nil {
			t.Fatalf("re-canonicalize: %v", err)
		}
		if canon.String() != again.String() {
			t.Fatalf("canonicalize not idempotent:\n%s\nvs\n%s", canon, again)
		}

		in := bitstream.FromBytes(packet)
		want := spec.Run(in, 0)
		got := canon.Run(in, 0)
		got.Dict = wit.OrigDict(got.Dict)
		if !got.Same(want) {
			t.Fatalf("canonical spec not equivalent on input %s:\norig %+v\ncanon %+v", in, want, got)
		}
	})
}
