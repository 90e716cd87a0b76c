package core

import (
	"parserhawk/internal/bitstream"
	"parserhawk/internal/pir"
)

// Hooks for the external core_test package, whose corpus tests import
// internal/tables (itself an importer of core) for the scaled profiles.

// RandomSpec is the seeded random specification generator of the
// whole-compiler property tests.
var RandomSpec = randomSpec

// DirectedInputs returns the inputs the verifier steers through spec's
// transition rules: at most limit inputs of the deterministic directed
// suite, then walks directed random walks drawn from seed. It returns nil
// when the verifier cannot realize spec's key windows.
func DirectedInputs(spec *pir.Spec, limit, walks int, seed int64) []bitstream.Bits {
	v, err := newVerifier(spec, DefaultOptions(), seed)
	if err != nil {
		return nil
	}
	var out []bitstream.Bits
	v.directedSuite(func(in bitstream.Bits) bool {
		out = append(out, in.Clone())
		return len(out) < limit
	})
	for i := 0; i < walks; i++ {
		v.directedInput(v.in)
		out = append(out, v.in.Clone())
	}
	return out
}

// ExampleSpecs parses every .p4 specification under examples/.
var ExampleSpecs = exampleSpecs
