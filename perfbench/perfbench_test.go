package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/cert"
	"parserhawk/internal/core"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
	"parserhawk/internal/serve"
	"parserhawk/internal/tcam"
)

// cellNamed returns the table3-seq cell for program on profile.
func cellNamed(t *testing.T, program, profile string) cell {
	t.Helper()
	for _, c := range table3Cells() {
		if c.key() == cellKey(program, profile) {
			return c
		}
	}
	t.Fatalf("no cell %s on %s", program, profile)
	return cell{}
}

// clone deep-copies a program through its deployment JSON.
func clone(t *testing.T, p *tcam.Program) *tcam.Program {
	t.Helper()
	data, err := p.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	q, err := tcam.DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSeededDefectsFailOps corrupts a correctly compiled program in two
// ways and shows that the output checks fail every op that produced it,
// so ok_frac drops below 1.
func TestSeededDefectsFailOps(t *testing.T) {
	c := cellNamed(t, "Parse Ethernet", "tofino-scaled")
	res, err := core.CompileContext(context.Background(), c.bench.Spec, c.profile, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	defects := map[string]func(*tcam.Program){
		"entry redirected to reject": func(p *tcam.Program) {
			for i := range p.States {
				for j := range p.States[i].Entries {
					if e := &p.States[i].Entries[j]; e.Next.Kind != tcam.Reject {
						e.Next = tcam.RejectTarget
						return
					}
				}
			}
		},
		"extraction dropped": func(p *tcam.Program) {
			for i := range p.States {
				for j := range p.States[i].Entries {
					if e := &p.States[i].Entries[j]; len(e.Extracts) > 0 {
						e.Extracts = e.Extracts[1:]
						return
					}
				}
			}
		},
	}
	for name, corrupt := range defects {
		bad := *res
		bad.Program = clone(t, res.Program)
		corrupt(bad.Program)
		rep := &report{}
		out := newOutputs()
		for _, r := range []*core.Result{res, &bad, &bad} {
			rep.attempted++
			out.record(rep, exp[c.key()], c, r, nil, true)
		}
		if n := out.check(rep, 1); rep.failed != 2 || n != 2 {
			t.Errorf("%s: %d of 3 ops failed (%d within the SLO), want the 2 corrupted ones; %v", name, rep.failed, n, rep.failures)
		}
	}

	// A result with more entries than recorded fails on its own.
	rep := &report{}
	worse := *res
	worse.Resources.Entries++
	if newOutputs().record(rep, exp[c.key()], c, &worse, nil, true) || rep.failed != 1 {
		t.Errorf("an extra entry was not a failure: %v", rep.failures)
	}
}

// hawkdCompile compiles a corpus program the way hawkd does: from its P4
// text, with a certificate.
func hawkdCompile(t *testing.T, program, profile string) (*core.Result, *pir.Spec) {
	t.Helper()
	c := cellNamed(t, program, profile)
	src, err := p4.Print(c.bench.Spec)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := p4.ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := c.opts
	opts.EmitCertificate = true
	res, err := core.CompileContext(context.Background(), spec, c.profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, spec
}

// okResponse is a hawkd response for a compiled target claiming the
// requested cell's expected size.
func okResponse(t *testing.T, want outcome, program *tcam.Program, c *cert.Certificate) []byte {
	t.Helper()
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := program.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(serve.CompileResponse{
		Verdict: serve.VerdictOK, Entries: want.Entries, Stages: want.Stages,
		ProgramJSON: prog, Certificate: data, Cache: serve.CacheMiss,
	})
	return body
}

// TestBadCertificateFailsResponse feeds the response check hawkd-style
// responses for one cell: a correct one, ones whose certificate
// cert.FailingMutations corrupted, one carrying another hot program's
// valid program and certificate, and one whose program is not its
// certificate's. Only the correct one passes.
func TestBadCertificateFailsResponse(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newRespChecker(exp)
	if err != nil {
		t.Fatal(err)
	}
	key := cellKey("Parse icmp", "ipu-scaled")
	res, _ := hawkdCompile(t, "Parse icmp", "ipu-scaled")
	other, _ := hawkdCompile(t, "Parse Ethernet", "ipu-scaled")
	mutants, err := cert.FailingMutations(res.Certificate, 1)
	if err != nil || len(mutants) == 0 {
		t.Fatalf("no mutants: %v", err)
	}
	bodies := [][]byte{okResponse(t, exp[key], res.Program, res.Certificate)}
	for _, m := range mutants {
		bodies = append(bodies, okResponse(t, exp[key], res.Program, m.Cert))
	}
	bodies = append(bodies,
		okResponse(t, exp[key], other.Program, other.Certificate),
		okResponse(t, exp[key], other.Program, res.Certificate))
	rep := &report{}
	for i, body := range bodies {
		s := &served{req: request{kind: "repeat", cells: []string{key}}, status: 200, body: body}
		if ok := chk.check(rep, s); ok != (i == 0) {
			t.Errorf("response %d: check passed=%v", i, ok)
		}
	}
	if rep.failed != len(bodies)-1 {
		t.Errorf("%d failures for %d bad responses: %v", rep.failed, len(bodies)-1, rep.failures)
	}
}

// TestAliasCertificatePasses checks that a response for one cell carrying
// the certificate of another corpus program with the same cache key, as a
// hawkd cache hit does, passes the check.
func TestAliasCertificatePasses(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newRespChecker(exp)
	if err != nil {
		t.Fatal(err)
	}
	var a, b string
	seen := map[string]string{}
	for _, bench := range benchdata.All() {
		p := chk.programs[bench.Name()]
		if first, ok := seen[p.key]; ok && exp[cellKey(first, "tofino-scaled")].Verdict == serve.VerdictOK {
			a, b = first, bench.Name()
			break
		}
		seen[p.key] = bench.Name()
	}
	if a == "" {
		t.Skip("no two corpus programs share a cache key")
	}
	res, _ := hawkdCompile(t, a, "tofino-scaled")
	key := cellKey(b, "tofino-scaled")
	s := &served{req: request{kind: "cold", cells: []string{key}}, status: 200, body: okResponse(t, exp[key], res.Program, res.Certificate)}
	if rep := (&report{}); !chk.check(rep, s) {
		t.Errorf("%s answered with %s's certificate: %v", b, a, rep.failures)
	}
}

// TestGenerateIsSeeded checks that a seed fixes the request sequence, that
// another seed changes it, and that every cold program arrives once.
func TestGenerateIsSeeded(t *testing.T) {
	a, err := generate(7, 5e9)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(7, 5e9)
	c, _ := generate(8, 5e9)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same sequence")
	}
	if len(a) != hawkdRate*5 {
		t.Errorf("%d requests, want %d", len(a), hawkdRate*5)
	}
	_, cold, _ := corpus()
	seen := map[string]int{}
	kinds := map[string]int{}
	for i, r := range a {
		kinds[r.kind]++
		if r.kind == "cold" {
			seen[r.cells[0]]++
		}
		if i > 0 && r.due < a[i-1].due {
			t.Fatal("requests out of order")
		}
	}
	if len(seen) != 3*len(cold) {
		t.Errorf("%d distinct cold cells, want %d", len(seen), 3*len(cold))
	}
	for cellName, n := range seen {
		if n != 1 {
			t.Errorf("cold cell %s sent %d times", cellName, n)
		}
	}
	for _, k := range []string{"repeat", "variant", "multi"} {
		if kinds[k] == 0 {
			t.Errorf("no %s requests", k)
		}
	}
}

// TestEveryHotKeyGetsVariants checks the mix's sizing: in an epoch of a
// 30-second run, every hot cache key receives textual variants and every
// hot program a multi-target request.
func TestEveryHotKeyGetsVariants(t *testing.T) {
	hot, _, err := corpus()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 10; seed++ {
		reqs, err := generate(seed, 15e9)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, r := range reqs {
			switch r.kind {
			case "variant":
				got[r.cells[0]]++
			case "multi":
				got[r.cells[0]+" multi"]++
			}
		}
		for _, s := range hot {
			for _, p := range profileNames() {
				if got[cellKey(s.name, p)] == 0 {
					t.Errorf("seed %d: no variant of %s on %s", seed, s.name, p)
				}
			}
			if got[cellKey(s.name, profileNames()[0])+" multi"] == 0 {
				t.Errorf("seed %d: no multi-target request for %s", seed, s.name)
			}
		}
	}
}

// TestVariantsShareCacheKey checks that textual variants of every hot spec
// canonicalize to the hot spec's form, and that a live hawkd answers them
// from the entry the plain spec filled.
func TestVariantsShareCacheKey(t *testing.T) {
	hot, _, err := corpus()
	if err != nil {
		t.Fatal(err)
	}
	canon := func(src string) string {
		spec, err := p4.ParseSpec(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		cs, _, err := pir.Canonicalize(spec)
		if err != nil {
			t.Fatal(err)
		}
		return cs.String()
	}
	rng := rand.New(rand.NewSource(1))
	for _, s := range hot {
		want := canon(s.src)
		for i := 0; i < 50; i++ {
			v := variant(s.src, rng)
			if v == s.src {
				t.Errorf("%s: variant identical to the source", s.name)
			}
			if canon(v) != want {
				t.Fatalf("%s: variant has another canonical form:\n%s", s.name, v)
			}
		}
	}

	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newRespChecker(exp)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	for _, s := range hot {
		for _, p := range scaledProfiles() {
			r := newRequest("variant", s, variant(s.src, rng), p.Name)
			out := srv.send(r)
			rep := &report{}
			if !chk.check(rep, out) {
				t.Fatalf("%s on %s: %v", s.name, p.Name, rep.failures)
			}
			if out.resp.Cache != serve.CacheHit {
				t.Errorf("%s on %s: variant was a cache %s, want a hit", s.name, p.Name, out.resp.Cache)
			}
		}
	}
}

// TestTracedCountersRepeat runs the traced pass twice over a few
// table3-seq cells, in two seeded orders, and requires the program-reported
// deterministic counters to repeat exactly.
func TestTracedCountersRepeat(t *testing.T) {
	var cells []cell
	for _, name := range []string{"Parse Ethernet", "Parse icmp -R3", "Parse MPLS", "Deep QUIC"} {
		for _, p := range scaledProfiles() {
			cells = append(cells, cellNamed(t, name, p.Name))
		}
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	counters := func(seed int64) map[string]float64 {
		st := &compileState{name: "table3-seq", cells: shuffled(cells, seed), expect: exp}
		rep, err := st.traced(&env{seed: seed, seconds: 1e9, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 {
			t.Fatalf("seed %d: %v", seed, rep.failures)
		}
		out := map[string]float64{}
		for _, m := range rep.metrics {
			out[m.name] = m.value
		}
		return out
	}
	a, b := counters(1), counters(2)
	for _, name := range []string{"sat.conflicts", "bv.clauses", "core.test_cases", "sat.decisions", "core.cegis_iterations"} {
		if a[name] == 0 || a[name] != b[name] {
			t.Errorf("%s: %v then %v", name, a[name], b[name])
		}
	}
}

// TestBenchmarkJSONMatchesReports keeps BENCHMARK.json's metric lists
// identical to what the runs report.
func TestBenchmarkJSONMatchesReports(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	list := func(ms []struct{ Name, Unit string }) []metricDef {
		var out []metricDef
		for _, m := range ms {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	if got := list(doc.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, runs report %v", got, endToEnd)
	}
	if got := list(doc.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, traced runs report %v", got, perLayer)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, perfbench runs %v", names, want)
	}
}
