package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"parserhawk/internal/core"
)

// perLayer lists every metric the traced run reports, in BENCHMARK.json's
// order. Timings are means per call over the traced operations; counts
// are totals over them. A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"pir.run_ns_per_pkt", "ns"}, {"pir.run_allocs_per_pkt", "count"},
	{"tcam.run_ns_per_pkt", "ns"}, {"tcam.run_allocs_per_pkt", "count"},
	{"core.compile_ms", "ms"}, {"core.verify_ms", "ms"}, {"core.synthesis_ms", "ms"}, {"core.unattributed_frac", "ratio"},
	{"core.alloc_mb", "MB"}, {"core.mallocs", "count"}, {"core.gc_cycles", "count"},
	{"core.cegis_iterations", "count"}, {"core.test_cases", "count"}, {"core.budgets_tried", "count"}, {"core.skeletons_tried", "count"},
	{"bv.clauses", "count"}, {"bv.vars", "count"}, {"bv.gates", "count"}, {"bv.cons_hits", "count"},
	{"sat.solves", "count"}, {"sat.conflicts", "count"}, {"sat.propagations", "count"}, {"sat.decisions", "count"}, {"sat.replay_ms", "ms"},
	{"core.ladders_run", "count"}, {"core.refuters_run", "count"}, {"core.skeletons_refuted", "count"}, {"core.exchange_published", "count"},
	{"cert.effective_spec_ms", "ms"}, {"cert.witness_build_ms", "ms"}, {"cert.witness_check_ms", "ms"},
	{"p4.parse_ms", "ms"}, {"pir.canonicalize_ms", "ms"}, {"lint.run_ms", "ms"},
	{"sim.check_ms", "ms"}, {"sim.packets", "count"},
	{"memo.t1_hits", "count"}, {"memo.t1_misses", "count"}, {"memo.stores", "count"}, {"memo.bytes_written", "B"},
	{"serve.hit_p50_ms", "ms"}, {"serve.miss_p50_ms", "ms"}, {"serve.cache_hits", "count"}, {"serve.cache_misses", "count"},
	{"serve.coalesced", "count"}, {"serve.compiles", "count"}, {"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ms", "ms"}, {"trace.overhead_frac", "ratio"}, {"trace.spans", "count"},
	{"perfbench.self_ms", "ms"}, {"p4.self_ms", "ms"}, {"lint.self_ms", "ms"}, {"pir.self_ms", "ms"}, {"core.self_ms", "ms"},
	{"sat.self_ms", "ms"}, {"cert.self_ms", "ms"}, {"sim.self_ms", "ms"}, {"tcam.self_ms", "ms"}, {"serve.self_ms", "ms"},
}

// layerStats accumulates the traced run's per-layer numbers.
type layerStats struct {
	times        map[string][]float64 // per-call ms
	counts       map[string]int64
	values       map[string]float64
	unattributed []float64
	pktNanos     map[string]time.Duration
	pktAllocs    map[string]uint64
	pkts         map[string]int
}

func newLayerStats() *layerStats {
	return &layerStats{
		times: map[string][]float64{}, counts: map[string]int64{}, values: map[string]float64{},
		pktNanos: map[string]time.Duration{}, pktAllocs: map[string]uint64{}, pkts: map[string]int{},
	}
}

func (l *layerStats) time(name string, d time.Duration) { l.times[name] = append(l.times[name], ms(d)) }
func (l *layerStats) count(name string, n int64)        { l.counts[name] += n }

// compile records one compile call's wall time and the allocation it
// caused, from runtime.MemStats taken around it.
func (l *layerStats) compile(d time.Duration, m0, m1 *runtime.MemStats) {
	l.time("core.compile_ms", d)
	l.count("core.alloc_bytes", int64(m1.TotalAlloc-m0.TotalAlloc))
	l.count("core.mallocs", int64(m1.Mallocs-m0.Mallocs))
	l.count("core.gc_cycles", int64(m1.NumGC-m0.NumGC))
}

// coreStats folds in the counters a compile reports about itself.
func (l *layerStats) coreStats(s core.Stats) {
	l.time("core.verify_ms", s.VerifyTime)
	l.time("core.synthesis_ms", s.SynthesisTime)
	if s.Elapsed > 0 {
		l.unattributed = append(l.unattributed, 1-float64(s.SynthesisTime+s.VerifyTime)/float64(s.Elapsed))
	}
	for name, v := range map[string]int64{
		"core.cegis_iterations": int64(s.CEGISIterations), "core.test_cases": int64(s.TestCases),
		"core.budgets_tried": int64(s.BudgetsTried), "core.skeletons_tried": int64(s.SkeletonsTried),
		"bv.clauses": s.Solver.Clauses, "bv.vars": s.Solver.Vars, "bv.gates": s.Solver.Gates, "bv.cons_hits": s.Solver.ConsHits,
		"sat.solves": s.Solver.Solves, "sat.conflicts": s.Solver.Conflicts,
		"sat.propagations": s.Solver.Propagations, "sat.decisions": s.Solver.Decisions,
		"core.ladders_run": int64(s.Portfolio.LaddersRun), "core.refuters_run": int64(s.Portfolio.RefutersRun),
		"core.skeletons_refuted": int64(s.Portfolio.SkeletonsRefuted), "core.exchange_published": s.Portfolio.ExchangePublished,
	} {
		l.count(name, v)
	}
}

func (l *layerStats) perPacket(layer string, d time.Duration, allocs uint64, n int) {
	l.pktNanos[layer] += d
	l.pktAllocs[layer] += allocs
	l.pkts[layer] += n
}

// overhead records the tracing overhead: the traced run's time for the
// timed calls minus the untraced run's time for the same calls.
func (l *layerStats) overhead(untraced, traced time.Duration) {
	l.values["trace.overhead_ms"] = ms(traced - untraced)
	if untraced > 0 {
		l.values["trace.overhead_frac"] = float64(traced-untraced) / float64(untraced)
	}
}

// finish turns the accumulated numbers and the spans' self times into the
// report's metrics, writes the spans and metrics to tracePath in Chrome
// trace-event format, and prints the per-layer self times.
func (l *layerStats) finish(rep *report, tr *tracer, tracePath string) (*report, error) {
	vals := map[string]float64{}
	for name, xs := range l.times {
		vals[name] = mean(xs)
	}
	for name, n := range l.counts {
		vals[name] = float64(n)
	}
	vals["core.alloc_mb"] = float64(l.counts["core.alloc_bytes"]) / (1 << 20)
	vals["core.unattributed_frac"] = median(l.unattributed)
	for layer, n := range l.pkts {
		vals[layer+".run_ns_per_pkt"] = float64(l.pktNanos[layer]) / float64(n)
		vals[layer+".run_allocs_per_pkt"] = float64(l.pktAllocs[layer]) / float64(n)
	}
	for name, v := range l.values {
		vals[name] = v
	}
	self := tr.selfTimes()
	for layer, d := range self {
		vals[layer+".self_ms"] = ms(d)
	}
	vals["trace.spans"] = float64(len(tr.spans))

	samples := func(name string) int {
		if xs, ok := l.times[name]; ok {
			return len(xs)
		}
		return 1
	}
	for _, m := range perLayer {
		rep.add(m.name, m.unit, vals[m.name], samples(m.name))
	}
	layers := make([]string, 0, len(self))
	for layer := range self {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	fmt.Fprintln(os.Stderr, "self time by layer:")
	for _, layer := range layers {
		fmt.Fprintf(os.Stderr, "  %-10s %10.1f ms\n", layer, ms(self[layer]))
	}
	if err := tr.writeChrome(tracePath, rep.metrics); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(tr.spans), tracePath)
	return rep, nil
}
