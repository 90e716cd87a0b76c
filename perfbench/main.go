// Command perfbench is ParserHawk's benchmark: one command that runs a
// named workload against the repository's public layer functions, checks
// every output without trusting the compiler, and prints every end-to-end
// metric by name and unit (or, with --trace 1, every per-layer metric from
// a traced run). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload table3-seq --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, the metrics, and which layer
// metric is expected to move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir, under the directory the benchmark runs from, receives the trace
// files and the hawkd memo directories.
const outDir = ".bench_build"

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 7

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json's
// order. Every workload reports all of them; perfbench/README.md gives
// each one's definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"compiles_per_s", "1/s"}, {"compile_p50_ms", "ms"}, {"compile_p90_ms", "ms"},
	{"tcam_entries", "count"}, {"pipeline_stages", "count"}, {"peak_rss_mb", "MB"}, {"ok_frac", "ratio"},
	{"req_p50_ms", "ms"}, {"req_p99_ms", "ms"}, {"req_per_s", "1/s"}, {"slo_met_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// workload is one named input set, the set-up that prepares it, and the
// latency limit behind its slo_met_frac: 1 s, an interactive compile, on
// the compile workloads, whose slowest cells take 0.5-1.1 s on the 2-core
// reference machine as its load varies; 100 ms on hawkd-mix, whose
// first-seen compiles take 10-90 ms there.
type workload struct {
	name  string
	slo   time.Duration
	setup func(env *env) (state, error)
}

// state is a workload after set-up.
type state interface {
	// measure runs the untraced timed region for about env.seconds.
	measure(env *env) (*report, error)
	// traced runs the per-layer run: the same operations untraced and
	// then traced, and returns the layer metrics.
	traced(env *env) (*report, error)
	// close stops what set-up started; calling it again does nothing.
	close() error
}

// env carries the command-line settings and the workload's SLO limit.
type env struct {
	seed    int64
	seconds time.Duration
	slo     time.Duration
	outDir  string
}

var workloads = []workload{
	{name: "table3-seq", slo: time.Second, setup: setupTable3},
	{name: "wire-portfolio", slo: time.Second, setup: setupWire},
	{name: "hawkd-mix", slo: 100 * time.Millisecond, setup: setupHawkd},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: table3-seq, wire-portfolio, or hawkd-mix")
		seed    = flag.Int64("seed", 1, "seed for the workload's generated inputs")
		seconds = flag.Int("seconds", 20, "length of the timed region in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		capac   = flag.Bool("capacity", false, "measure hawkd's closed-loop hit-path capacity instead of running a workload")
	)
	flag.Parse()
	var err error
	if *capac {
		err = measureCapacity(&env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, outDir: outDir}, os.Stdout)
	} else {
		err = run(*name, *seed, *seconds, *trace, outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, outDir string) error {
	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, slo: w.slo, outDir: outDir}

	var st state
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = w.setup(e); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	// Start the timed region from a collected heap, so garbage left by the
	// set-up repetitions neither costs GC work nor counts as peak memory.
	debug.FreeOSMemory()
	resetPeakRSS()
	var rep *report
	var err error
	want := endToEnd
	if trace == 1 {
		want = perLayer
		rep, err = st.traced(e)
	} else {
		rep, err = st.measure(e)
		if err == nil {
			rep.add("setup_s", "s", median(setups), len(setups))
			rep.add("peak_rss_mb", "MB", peakRSSMB(), 1)
		}
	}
	if err != nil {
		return err
	}
	if err := st.close(); err != nil {
		return err
	}
	return rep.print(os.Stdout, want)
}

// report is one run's result: the op accounting and the metrics.
type report struct {
	attempted, failed int
	failures          []string
	metrics           []metric
}

type metric struct {
	name, unit string
	value      float64
	samples    int
	rank       float64 // a quantile's nearest-rank value, printed beside it
}

func (r *report) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, samples: samples})
}

// quantile adds the q-quantile of the latencies xs in ms.
func (r *report) quantile(name string, xs []float64, q float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: "ms", value: percentile(xs, q), samples: len(xs), rank: nearestRank(xs, q)})
}

// fail records a failed op; only the first few reasons are kept.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// print writes the human-readable table, then the JSON result line. It
// refuses a report whose metrics are not exactly want.
func (r *report) print(f *os.File, want []metricDef) error {
	got := map[metricDef]bool{}
	for _, m := range r.metrics {
		got[metricDef{m.name, m.unit}] = true
	}
	for _, d := range want {
		if !got[d] {
			return fmt.Errorf("report lacks metric %s (%s)", d.name, d.unit)
		}
	}
	if len(got) != len(want) || len(r.metrics) != len(want) {
		return fmt.Errorf("report has %d metrics, want %d", len(r.metrics), len(want))
	}
	for _, why := range r.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", why)
	}
	sort.SliceStable(r.metrics, func(i, j int) bool { return r.metrics[i].name < r.metrics[j].name })
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	fmt.Fprintf(f, "ops attempted %d, failed %d\n", r.attempted, r.failed)
	for _, m := range r.metrics {
		if m.rank != 0 {
			fmt.Fprintf(f, "%-28s %14.4f %-6s (n=%d, nearest-rank %.4f)\n", m.name, m.value, m.unit, m.samples, m.rank)
		} else {
			fmt.Fprintf(f, "%-28s %14.4f %-6s (n=%d)\n", m.name, m.value, m.unit, m.samples)
		}
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(data))
	return err
}

// resetPeakRSS restarts the kernel's peak-RSS counter (Linux 4.0+), so
// that peak_rss_mb covers the timed region and not the set-up repetitions.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset, it includes set-up:", err)
	}
}

// peakRSSMB is the process's peak resident set size since resetPeakRSS,
// read from /proc/self/status, or over the whole process from getrusage
// where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
