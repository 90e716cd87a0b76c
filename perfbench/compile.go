package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"parserhawk/internal/bitstream"
	"parserhawk/internal/cert"
	"parserhawk/internal/core"
	"parserhawk/internal/lint"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
	"parserhawk/internal/sat"
	"parserhawk/internal/sim"
	"parserhawk/internal/tcam"
)

// compileState is a compile workload after set-up: its cells in the
// seed's order and the outcome each must produce. One caller issues the
// compiles back to back (a closed loop).
type compileState struct {
	name   string
	cells  []cell
	expect map[string]outcome
}

func setupTable3(e *env) (state, error) { return setupCompile(e, "table3-seq", table3Cells()) }
func setupWire(e *env) (state, error)   { return setupCompile(e, "wire-portfolio", wireCells()) }

// setupCompile builds the corpus, loads the expected outcomes, orders the
// cells by the seed, and compiles one fixed cell so that lazy
// initialisation and heap growth are paid before timing.
func setupCompile(e *env, name string, cells []cell) (state, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		if _, ok := exp[c.key()]; !ok {
			return nil, fmt.Errorf("expected.json has no outcome for %s", c.key())
		}
	}
	if _, err := core.CompileContext(context.Background(), cells[0].bench.Spec, cells[0].profile, cells[0].opts); err != nil {
		return nil, fmt.Errorf("warm-up compile %s: %w", cells[0].key(), err)
	}
	return &compileState{name: name, cells: shuffled(cells, e.seed), expect: exp}, nil
}

func (s *compileState) close() error { return nil }

// produced is one distinct program a cell compiled to, with the number of
// ops that produced it; every distinct program is checked once.
type produced struct {
	c          cell
	prog       *tcam.Program
	cert       *cert.Certificate
	ops, inSLO int
}

// outputs collects, outside the timed region, what each op produced.
type outputs struct {
	first    map[string]outcome // cell key -> first outcome seen
	programs map[string]*produced
}

func newOutputs() *outputs {
	return &outputs{first: map[string]outcome{}, programs: map[string]*produced{}}
}

// record compares one op's result with the expected outcome and files its
// program for checking. fast says the op ended within the SLO limit; record
// returns whether the op so far counts as within the SLO.
func (o *outputs) record(rep *report, exp outcome, c cell, res *core.Result, err error, fast bool) bool {
	got := outcome{Verdict: verdictOf(err)}
	if res != nil {
		got.Entries, got.Stages = res.Resources.Entries, res.Resources.Stages
	}
	if _, ok := o.first[c.key()]; !ok {
		o.first[c.key()] = got
	}
	if cerr := compare(exp, got); cerr != nil {
		rep.fail("%s: %v (compile error: %v)", c.key(), cerr, err)
		return false
	}
	if res == nil {
		return fast
	}
	k := c.key() + "\n" + res.Program.String()
	p := o.programs[k]
	if p == nil {
		p = &produced{c: c, prog: res.Program, cert: res.Certificate}
		o.programs[k] = p
	}
	p.ops++
	if fast {
		p.inSLO++
	}
	return fast
}

// check runs the independent output checks on every distinct program and
// fails every op that produced a program the checks reject. It returns
// how many of the failed ops had ended within the SLO limit.
func (o *outputs) check(rep *report, seed int64) (inSLO int) {
	for _, p := range o.programs {
		if err := checkProgram(p.c, p.prog, p.cert, seed); err != nil {
			for i := 0; i < p.ops; i++ {
				rep.fail("%s: %v", p.c.key(), err)
			}
			inSLO += p.inSLO
		}
	}
	return inSLO
}

// sizes sums entries and stages over the distinct cells that compiled.
func (o *outputs) sizes() (entries, stages int) {
	for _, got := range o.first {
		entries += got.Entries
		stages += got.Stages
	}
	return entries, stages
}

// measure runs whole passes over the cells until the next pass would end
// well past env.seconds. Whole passes keep every cell's share of the
// samples equal, so the seed changes the order and nothing else.
func (s *compileState) measure(e *env) (*report, error) {
	rep := &report{}
	out := newOutputs()
	var lat []float64
	var busy time.Duration
	inSLO := 0
	start := time.Now()
	var lastPass time.Duration
	for pass := 0; pass == 0 || time.Since(start)+lastPass/2 < e.seconds; pass++ {
		p0 := time.Now()
		for _, c := range s.cells {
			t0 := time.Now()
			res, err := core.CompileContext(context.Background(), c.bench.Spec, c.profile, c.opts)
			d := time.Since(t0)
			busy += d
			lat = append(lat, ms(d))
			rep.attempted++
			if out.record(rep, s.expect[c.key()], c, res, err, d <= e.slo) {
				inSLO++
			}
		}
		lastPass = time.Since(p0)
	}
	inSLO -= out.check(rep, e.seed)
	perS := float64(len(lat)) / busy.Seconds()
	entries, stages := out.sizes()
	rep.add("compiles_per_s", "1/s", perS, len(lat))
	rep.quantile("compile_p50_ms", lat, 0.50)
	rep.quantile("compile_p90_ms", lat, 0.90)
	rep.add("req_per_s", "1/s", perS, len(lat))
	rep.quantile("req_p50_ms", lat, 0.50)
	rep.quantile("req_p99_ms", lat, 0.99)
	rep.add("tcam_entries", "count", float64(entries), len(out.first))
	rep.add("pipeline_stages", "count", float64(stages), len(out.first))
	rep.add("ok_frac", "ratio", 1-float64(rep.failed)/float64(rep.attempted), rep.attempted)
	rep.add("slo_met_frac", "ratio", float64(inSLO)/float64(rep.attempted), rep.attempted)
	return rep, nil
}

// interpPackets is the size of the seeded packet set each compiled cell's
// spec and program interpreters are timed over.
const interpPackets = 512

// traced runs one untraced pass, then one traced pass that wraps every
// call into a layer in a span and adds the per-layer calls the compile
// itself does not expose: parse, lint, canonicalize, a replay of the
// hardest SAT query, the certificate steps, the simulator, and both
// interpreters.
func (s *compileState) traced(e *env) (*report, error) {
	rep := &report{}
	out := newOutputs()
	var untraced time.Duration
	for _, c := range s.cells {
		t0 := time.Now()
		res, err := core.CompileContext(context.Background(), c.bench.Spec, c.profile, c.opts)
		untraced += time.Since(t0)
		rep.attempted++
		out.record(rep, s.expect[c.key()], c, res, err, false)
	}
	out.check(rep, e.seed)

	tr := newTracer()
	lay := newLayerStats()
	var tracedCompile time.Duration
	for op, c := range s.cells {
		rep.attempted++
		hardest, err := hardestQuery(c)
		if err == nil {
			root := tr.begin("perfbench.op", op, -1)
			err = s.tracedOp(tr, lay, op, root, c, hardest, e.seed, &tracedCompile)
			tr.end(root)
		}
		if err != nil {
			rep.fail("%s: %v", c.key(), err)
		}
	}
	lay.overhead(untraced, tracedCompile)
	return lay.finish(rep, tr, filepath.Join(e.outDir, fmt.Sprintf("trace-%s-%d.json", s.name, e.seed)))
}

// hardestQuery compiles c with DIMACS capture on and returns the query
// with the most conflicts (nil when the compile solved none). Capture
// slows a compile by about 40%, so it runs untraced, in a compile of its
// own, and the traced compile runs without it.
func hardestQuery(c cell) (*core.QueryDump, error) {
	var mu sync.Mutex
	var hardest *core.QueryDump
	opts := c.opts
	opts.QuerySink = func(q core.QueryDump) {
		mu.Lock()
		defer mu.Unlock()
		if hardest == nil || q.Conflicts > hardest.Conflicts {
			hardest = &q
		}
	}
	if _, err := core.CompileContext(context.Background(), c.bench.Spec, c.profile, opts); err != nil {
		return nil, fmt.Errorf("capture compile: %w", err)
	}
	return hardest, nil
}

// tracedOp is one traced compile with its per-layer calls.
func (s *compileState) tracedOp(tr *tracer, lay *layerStats, op, root int, c cell, hardest *core.QueryDump, seed int64, compileTotal *time.Duration) error {
	src, err := p4.Print(c.bench.Spec)
	if err != nil {
		return fmt.Errorf("print: %w", err)
	}
	lay.time("p4.parse_ms", tr.do("p4.parse", op, root, func() { _, err = p4.ParseSpec(src) }))
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	lay.time("lint.run_ms", tr.do("lint.run", op, root, func() { lint.Run(c.bench.Spec, &c.profile) }))
	lay.time("pir.canonicalize_ms", tr.do("pir.canonicalize", op, root, func() { _, _, err = pir.Canonicalize(c.bench.Spec) }))
	if err != nil {
		return fmt.Errorf("canonicalize: %w", err)
	}

	var res *core.Result
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := tr.do("core.compile", op, root, func() {
		res, err = core.CompileContext(context.Background(), c.bench.Spec, c.profile, c.opts)
	})
	runtime.ReadMemStats(&m1)
	*compileTotal += d
	lay.compile(d, &m0, &m1)
	got := outcome{Verdict: verdictOf(err)}
	if res != nil {
		got.Entries, got.Stages = res.Resources.Entries, res.Resources.Stages
		lay.coreStats(res.Stats)
	}
	if cerr := compare(s.expect[c.key()], got); cerr != nil || res == nil {
		return fmt.Errorf("compile: %v %v", cerr, err)
	}

	if hardest != nil {
		var st sat.Status
		lay.time("sat.replay_ms", tr.do("sat.replay", op, root, func() {
			var solver *sat.Solver
			if solver, err = sat.ReadDIMACS(bytes.NewReader(hardest.DIMACS)); err == nil {
				st = solver.Solve()
			}
		}))
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if st.String() != hardest.Status {
			return fmt.Errorf("replay: %s, compile saw %s", st, hardest.Status)
		}
	}

	var eff *pir.Spec
	lay.time("cert.effective_spec_ms", tr.do("cert.effective_spec", op, root, func() {
		eff, err = core.EffectiveSpec(c.bench.Spec, c.profile, c.opts)
	}))
	if err != nil {
		return fmt.Errorf("effective spec: %w", err)
	}
	var w *cert.Witness
	lay.time("cert.witness_build_ms", tr.do("cert.witness_build", op, root, func() { w, err = cert.BuildWitness(eff, res.Program) }))
	if err != nil {
		return fmt.Errorf("witness build: %w", err)
	}
	lay.time("cert.witness_check_ms", tr.do("cert.witness_check", op, root, func() { err = cert.CheckWitness(eff, res.Program, w) }))
	if err != nil {
		return fmt.Errorf("witness check: %w", err)
	}
	var simRep sim.Report
	lay.time("sim.check_ms", tr.do("sim.check", op, root, func() { simRep = sim.Check(eff, res.Program, simSamples, simExBits, 0, seed) }))
	lay.count("sim.packets", int64(simRep.Checked))
	if !simRep.OK() {
		return fmt.Errorf("simulator: %s", simRep)
	}
	lay.interpreters(tr, op, root, eff, res.Program, seed+int64(op))
	return nil
}

// interpreters times the spec interpreter and the device interpreter over
// one seeded packet set, counting allocations per packet.
func (l *layerStats) interpreters(tr *tracer, op, root int, spec *pir.Spec, prog *tcam.Program, seed int64) {
	n := spec.MaxConsumedBits(pir.DefaultMaxIterations) + spec.LookaheadUse()
	if n == 0 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]bitstream.Bits, interpPackets)
	for i := range pkts {
		pkts[i] = bitstream.Random(rng, n)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := tr.do("pir.run", op, root, func() {
		for _, p := range pkts {
			spec.Run(p, 0)
		}
	})
	runtime.ReadMemStats(&m1)
	l.perPacket("pir", d, m1.Mallocs-m0.Mallocs, len(pkts))
	runtime.ReadMemStats(&m0)
	d = tr.do("tcam.run", op, root, func() {
		for _, p := range pkts {
			prog.Run(p, 0)
		}
	})
	runtime.ReadMemStats(&m1)
	l.perPacket("tcam", d, m1.Mallocs-m0.Mallocs, len(pkts))
}
