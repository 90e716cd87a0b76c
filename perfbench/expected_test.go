package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"parserhawk/internal/core"
)

var update = flag.Bool("update", false, "rewrite expected.json from this commit's compiler")

// TestExpectedOutcomes compiles every cell of both compile workloads and
// compares the outcome with expected.json (or rewrites it with -update).
func TestExpectedOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles all 132 cells")
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]outcome{}
	for _, c := range append(table3Cells(), wireCells()...) {
		res, err := core.CompileContext(context.Background(), c.bench.Spec, c.profile, c.opts)
		o := outcome{Verdict: verdictOf(err)}
		if res != nil {
			o.Entries, o.Stages = res.Resources.Entries, res.Resources.Stages
		}
		got[c.key()] = o
		if !*update && exp[c.key()] != o {
			t.Errorf("%s: got %+v, expected.json has %+v", c.key(), o, exp[c.key()])
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(got) != len(exp) {
		t.Errorf("expected.json has %d cells, the workloads %d", len(exp), len(got))
	}
}

// TestExpectedMatchesBaseline cross-checks expected.json against the
// repository's recorded BENCH_baseline.json on every record both cover.
func TestExpectedMatchesBaseline(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base []struct {
		Program string `json:"program"`
		Target  string `json:"target"`
		Mode    string `json:"mode"`
		OK      bool   `json:"ok"`
		Entries int    `json:"entries"`
		Stages  int    `json:"stages"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range base {
		e, ok := exp[cellKey(b.Program, b.Target)]
		if !ok || b.Mode != "opt" {
			continue
		}
		n++
		if (e.Verdict == "ok") != b.OK || e.Entries != b.Entries || e.Stages != b.Stages {
			t.Errorf("%s on %s: expected.json %+v, baseline ok=%v %d/%d", b.Program, b.Target, e, b.OK, b.Entries, b.Stages)
		}
	}
	if n != 60 {
		t.Errorf("cross-checked %d records, want the baseline's 60", n)
	}
}
