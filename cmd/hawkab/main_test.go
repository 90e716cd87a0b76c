package main

import (
	"testing"

	"parserhawk/internal/tables"
)

func record(clauses, conflicts int64, workers int) *tables.RunStats {
	r := &tables.RunStats{OK: true}
	r.Stats.Solver.Clauses = clauses
	r.Stats.Solver.Conflicts = conflicts
	r.Stats.Portfolio.Workers = workers
	return r
}

func TestCounterGrowth(t *testing.T) {
	ref := record(1000, 20, 0)
	for _, tc := range []struct {
		name string
		cand *tables.RunStats
		ref  *tables.RunStats
		grew bool
	}{
		{"identical", record(1000, 20, 0), ref, false},
		{"fewer", record(900, 19, 0), ref, false},
		{"more clauses", record(1001, 20, 0), ref, true},
		{"more conflicts", record(1000, 21, 0), ref, true},
		{"candidate ran the portfolio", record(5000, 90, 4), ref, false},
		{"reference ran the portfolio", record(5000, 90, 0), record(1000, 20, 4), false},
	} {
		if got := counterGrowth(tc.cand, tc.ref) != ""; got != tc.grew {
			t.Errorf("%s: counterGrowth reported growth=%v, want %v", tc.name, got, tc.grew)
		}
	}
}
