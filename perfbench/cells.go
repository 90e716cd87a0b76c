package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/tables"
)

// compileTimeout bounds one compile. Every cell finishes far inside it on
// a 2-core machine; hitting it is an op failure.
const compileTimeout = 2 * time.Minute

// cell is one (program, profile) compile of a compile workload.
type cell struct {
	bench   benchdata.Benchmark
	profile hw.Profile
	opts    core.Options
}

func (c cell) key() string { return cellKey(c.bench.Name(), c.profile.Name) }

func cellKey(program, profile string) string { return program + " | " + profile }

// scaledProfiles are the Table 3 devices.
func scaledProfiles() []hw.Profile {
	return []hw.Profile{tables.TofinoScaled(), tables.IPUScaled(), tables.FPGAScaled()}
}

func profileNames() []string {
	var names []string
	for _, p := range scaledProfiles() {
		names = append(names, p.Name)
	}
	return names
}

// table3Cells is the paper's Table 3: every benchdata program on the three
// scaled profiles, compiled by the sequential compiler without a memo or a
// certificate.
func table3Cells() []cell {
	var out []cell
	for _, b := range benchdata.All() {
		for _, p := range scaledProfiles() {
			opts := core.DefaultOptions()
			opts.Timeout = compileTimeout
			opts.MaxIterations = b.MaxIterations
			opts.Workers = 1
			out = append(out, cell{bench: b, profile: p, opts: opts})
		}
	}
	return out
}

// wireCells is the wire-width set on the full device profiles in the CLI
// user's default configuration: portfolio workers = GOMAXPROCS, clause
// exchange on, certificate emitted.
func wireCells() []cell {
	var out []cell
	for _, b := range benchdata.WireScale() {
		for _, p := range []hw.Profile{hw.Tofino(), hw.IPU(), hw.FPGAStreaming()} {
			opts := core.DefaultOptions()
			opts.Timeout = compileTimeout
			opts.MaxIterations = b.MaxIterations
			opts.EmitCertificate = true
			out = append(out, cell{bench: b, profile: p, opts: opts})
		}
	}
	return out
}

// shuffled returns a seeded permutation of cells: the seed picks the order
// in which one caller issues the compiles, never which compiles run.
func shuffled(cells []cell, seed int64) []cell {
	out := append([]cell(nil), cells...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// outcome is what a compile of one cell must produce.
type outcome struct {
	Verdict string `json:"verdict"`
	Entries int    `json:"entries"`
	Stages  int    `json:"stages"`
}

//go:embed expected.json
var expectedJSON []byte

// loadExpected parses the recorded outcome of every cell.
func loadExpected() (map[string]outcome, error) {
	var exp map[string]outcome
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return exp, nil
}

// verdictOf classifies a compile result the way hawkd does.
func verdictOf(err error) string {
	var lintErr *core.LintError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ErrNoSolution):
		return "no_solution"
	case errors.As(err, &lintErr):
		return "lint_error"
	case errors.Is(err, core.ErrTimeout):
		return "unknown"
	}
	return "error"
}

// compare reports how got departs from want. Fewer entries or stages than
// recorded is an improvement, not a failure: it shows in the tcam_entries
// and pipeline_stages metrics instead.
func compare(want, got outcome) error {
	if got.Verdict != want.Verdict {
		return fmt.Errorf("verdict %s, expected %s", got.Verdict, want.Verdict)
	}
	if got.Entries > want.Entries || got.Stages > want.Stages {
		return fmt.Errorf("%d entries / %d stages, expected at most %d / %d",
			got.Entries, got.Stages, want.Entries, want.Stages)
	}
	return nil
}
