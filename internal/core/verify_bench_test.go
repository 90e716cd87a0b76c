package core

import (
	"testing"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/bitstream"
	"parserhawk/internal/hw"
	"parserhawk/internal/pir"
	"parserhawk/internal/tcam"
)

// BenchmarkVerifyPacket measures the verifier's per-packet cost on the two
// Table 3 specs whose inputs it enumerates exhaustively: checking one
// enumerated input of a compiled program against the spec. reference is
// the §4 interpreters with per-input dictionaries and a fresh input per
// packet; machine is what counterexampleStop runs — both compiled machines
// and a slot-wise comparison over one refilled input buffer.
func BenchmarkVerifyPacket(b *testing.B) {
	for _, name := range []string{"Parse Ethernet", "Parse MPLS"} {
		bm, ok := benchdata.ByName(name)
		if !ok {
			b.Fatalf("benchmark %q missing", name)
		}
		opts := DefaultOptions()
		opts.MaxIterations = bm.MaxIterations
		res, err := Compile(bm.Spec, hw.Tofino(), opts)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		v, err := newVerifier(bm.Spec, opts, opts.Seed)
		if err != nil {
			b.Fatal(err)
		}
		spec, prog, k := bm.Spec, res.Program, v.maxIterBudget()
		mask := uint64(1)<<uint(v.maxLen) - 1
		b.Run(name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := bitstream.FromUint(uint64(i)&mask, v.maxLen)
				if !prog.Run(in, k).Same(spec.Run(in, k)) {
					b.Fatalf("%s: program disagrees with the spec on %s", name, in)
				}
			}
		})
		b.Run(name+"/machine", func(b *testing.B) {
			ns := pir.NewSlots(spec)
			sm, pm := pir.NewMachine(spec, ns), tcam.NewMachine(prog, ns)
			var so, po pir.Outcome
			in := make(bitstream.Bits, v.maxLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := len(in) - 1; j >= 0; j-- { // next enumerated input
					if in[j] ^= 1; in[j] == 1 {
						break
					}
				}
				pm.Exec(in, k, &po)
				sm.Exec(in, k, &so)
				if !po.Same(&so, in) {
					b.Fatalf("%s: program disagrees with the spec on %s", name, in)
				}
			}
		})
	}
}
