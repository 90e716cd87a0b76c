package main

import (
	"fmt"

	"parserhawk/internal/cert"
	"parserhawk/internal/core"
	"parserhawk/internal/sim"
	"parserhawk/internal/tcam"
)

// Simulator settings for the output check: exhaustive over input spaces of
// at most 12 bits, otherwise 512 seeded packets. The witness check below is
// complete; the simulator is a second, independent opinion.
const (
	simSamples = 512
	simExBits  = 12
)

// checkProgram validates a compiled program without trusting the compiler:
// the effective spec is recomputed from the input, the product automaton
// of spec and program is traversed by internal/cert (building a witness
// when the compile carried none), and internal/sim runs both on packets.
// It runs outside every timed region.
func checkProgram(c cell, prog *tcam.Program, certificate *cert.Certificate, seed int64) error {
	eff, err := core.EffectiveSpec(c.bench.Spec, c.profile, c.opts)
	if err != nil {
		return fmt.Errorf("effective spec: %w", err)
	}
	var w *cert.Witness
	if certificate != nil {
		if certificate.Witness == nil {
			return fmt.Errorf("certificate carries no witness: %s", certificate.Error)
		}
		w = certificate.Witness
	} else if w, err = cert.BuildWitness(eff, prog); err != nil {
		return fmt.Errorf("witness: %w", err)
	}
	if err := cert.CheckWitness(eff, prog, w); err != nil {
		return err
	}
	if rep := sim.Check(eff, prog, simSamples, simExBits, 0, seed); !rep.OK() {
		return fmt.Errorf("simulator: %s", rep)
	}
	return nil
}
