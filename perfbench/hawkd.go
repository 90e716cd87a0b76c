package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/cert"
	"parserhawk/internal/core"
	"parserhawk/internal/hw"
	"parserhawk/internal/lint"
	"parserhawk/internal/memo"
	"parserhawk/internal/p4"
	"parserhawk/internal/pir"
	"parserhawk/internal/serve"
	"parserhawk/internal/tables"
)

// hawkdConns bounds the load generator's sender goroutines and
// connections: the core count of the 2-core reference machine, so that
// client and server share the CPUs as they would on one host.
const hawkdConns = 2

// hawkdServer is one in-process hawkd: serve.New behind a loopback HTTP
// listener, with its memo in a temporary directory under the output dir.
type hawkdServer struct {
	memo    *memo.Cache
	memoDir string
	http    *http.Server
	served  chan error
	url     string
	client  *http.Client
	prefill []*served
}

// hawkdEpochs is how many server lifetimes a run spans. Each epoch replays
// its own seeded sequence on a fresh server, so every cold cell is
// compiled once per epoch: two epochs give the compile percentiles twice
// the samples one server lifetime can, at the same spacing between cold
// compiles relative to their length.
const hawkdEpochs = 2

type hawkdState struct {
	srv    *hawkdServer // the server set-up started, for the first epoch
	epochs [][]request
	expect map[string]outcome
	check  *respChecker // built on first use, outside set-up
	outDir string
}

// setupHawkd generates the seed's request sequences and starts a server
// whose cache holds the hot set.
func setupHawkd(e *env) (state, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	st := &hawkdState{expect: exp, outDir: e.outDir}
	for k := 0; k < hawkdEpochs; k++ {
		reqs, err := generate(e.seed*hawkdEpochs+int64(k), e.seconds/hawkdEpochs)
		if err != nil {
			return nil, err
		}
		for _, r := range reqs {
			for _, c := range r.cells {
				if _, ok := exp[c]; !ok {
					return nil, fmt.Errorf("expected.json has no outcome for %s", c)
				}
			}
		}
		st.epochs = append(st.epochs, reqs)
	}
	if st.srv, err = startServer(e.outDir); err != nil {
		return nil, err
	}
	return st, nil
}

// startServer starts a fresh hawkd and prefills its cache with the hot set
// by sending each hot program to all three profiles.
func startServer(outDir string) (*hawkdServer, error) {
	dir, err := os.MkdirTemp(outDir, "hawkd-memo-")
	if err != nil {
		return nil, err
	}
	mc, err := memo.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	profiles := scaledProfiles()
	srv := serve.New(serve.Config{Profiles: profiles, DefaultProfile: profiles[0].Name, Memo: mc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h := &hawkdServer{
		memo: mc, memoDir: dir,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: hawkdConns, MaxIdleConnsPerHost: hawkdConns}},
	}
	go func() { h.served <- h.http.Serve(ln) }()

	hot, _, err := corpus()
	if err != nil {
		h.close()
		return nil, err
	}
	// The responses are checked with the first epoch's, outside set-up.
	for _, s := range hot {
		out := h.send(newRequest("prefill", s, s.src, profileNames()...))
		if out.err != nil || out.status != http.StatusOK {
			h.close()
			return nil, fmt.Errorf("prefill %s: HTTP %d %v: %s", s.name, out.status, out.err, out.body)
		}
		h.prefill = append(h.prefill, out)
	}
	return h, nil
}

func (h *hawkdServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.http.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.client.CloseIdleConnections()
	if rerr := os.RemoveAll(h.memoDir); err == nil {
		err = rerr
	}
	return err
}

func (s *hawkdState) close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.close()
	s.srv = nil
	return err
}

// served is one request's outcome as the client saw it.
type served struct {
	req     request
	status  int
	body    []byte
	err     error
	latency time.Duration // from due time to the last byte of the response
	late    time.Duration // from due time to send
	resp    serve.CompileResponse
}

// send posts one request and reads the whole response.
func (h *hawkdServer) send(r request) *served {
	out := &served{req: r}
	resp, err := h.client.Post(h.url+"/v1/compile", "application/json", bytes.NewReader(r.body))
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	out.body, out.err = io.ReadAll(resp.Body)
	return out
}

// load replays reqs as an open loop: each request is sent at its due time
// by whichever of the hawkdConns senders is free, and is timed from its
// due time, so a stalled sender delays and charges the requests behind it.
func (h *hawkdServer) load(reqs []request, tr *tracer, firstOp int) []*served {
	out := make([]*served, len(reqs))
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < hawkdConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				root := tr.beginAt("perfbench.op", firstOp+i, -1, due)
				id := tr.begin("serve.request", firstOp+i, root)
				s := h.send(reqs[i])
				tr.end(id)
				tr.end(root)
				s.latency, s.late = time.Since(due), sent.Sub(due)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// respChecker validates hawkd responses outside the timed region: HTTP
// 200, a verdict and size matching the expected outcome of every target,
// and for every compiled target a program and certificate that belong to
// the requested cell. hawkd answers a cache hit with what the key's first
// producer compiled, under the producer's names, so the certificate may be
// for another corpus program than the one requested, but only for one
// that canonicalizes to the same cache key. Each distinct (cell,
// certificate, program) is checked once.
type respChecker struct {
	expect   map[string]outcome
	programs map[string]corpusProgram // by benchdata name
	bySHA    map[string]corpusProgram // by core.SpecSHA of the parsed spec
	profiles map[string]hw.Profile
	verdicts map[certCheck]error
}

// corpusProgram is a benchdata program as hawkd sees it: its spec parsed
// from the P4 text a client sends, and the part of hawkd's cache key that
// the spec and the request's unroll bound determine.
type corpusProgram struct {
	spec *pir.Spec
	key  string
}

type certCheck struct {
	cell          string
	cert, program [32]byte
}

func newRespChecker(exp map[string]outcome) (*respChecker, error) {
	c := &respChecker{
		expect: exp, programs: map[string]corpusProgram{}, bySHA: map[string]corpusProgram{},
		profiles: map[string]hw.Profile{}, verdicts: map[certCheck]error{},
	}
	for _, p := range scaledProfiles() {
		c.profiles[p.Name] = p
	}
	for _, b := range benchdata.All() {
		src, err := p4.Print(b.Spec)
		if err != nil {
			return nil, fmt.Errorf("printing %s: %w", b.Name(), err)
		}
		spec, err := p4.ParseSpec(src)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", b.Name(), err)
		}
		canon, _, err := pir.Canonicalize(spec)
		if err != nil {
			return nil, fmt.Errorf("canonicalizing %s: %w", b.Name(), err)
		}
		p := corpusProgram{spec: spec, key: fmt.Sprintf("%s\x00unroll %d", canon, b.MaxIterations)}
		c.programs[b.Name()] = p
		c.bySHA[core.SpecSHA(spec)] = p
	}
	return c, nil
}

// check validates one response and records a failed op in rep.
func (c *respChecker) check(rep *report, s *served) bool {
	bad := func(format string, args ...any) bool {
		rep.fail("%s request (%s): %s", s.req.kind, strings.Join(s.req.cells, ", "), fmt.Sprintf(format, args...))
		return false
	}
	if s.err != nil {
		return bad("%v", s.err)
	}
	if s.status != http.StatusOK {
		return bad("HTTP %d: %s", s.status, s.body)
	}
	if err := json.Unmarshal(s.body, &s.resp); err != nil {
		return bad("decoding response: %v", err)
	}
	targets := []serve.CompileResponse{s.resp}
	if len(s.req.cells) > 1 {
		targets = s.resp.Targets
	}
	if len(targets) != len(s.req.cells) {
		return bad("%d target responses for %d targets", len(targets), len(s.req.cells))
	}
	for i, t := range targets {
		cellName := s.req.cells[i]
		got := outcome{Verdict: t.Verdict, Entries: t.Entries, Stages: t.Stages}
		if err := compare(c.expect[cellName], got); err != nil {
			return bad("%s: %v %s", cellName, err, t.Reason)
		}
		if t.Verdict != serve.VerdictOK {
			continue
		}
		if t.CertificateError != "" {
			return bad("%s: certificate: %s", cellName, t.CertificateError)
		}
		k := certCheck{cell: cellName, cert: sha256.Sum256(t.Certificate), program: sha256.Sum256(t.ProgramJSON)}
		err, seen := c.verdicts[k]
		if !seen {
			err = c.checkCertificate(cellName, t)
			c.verdicts[k] = err
		}
		if err != nil {
			return bad("%s: %v", cellName, err)
		}
	}
	return true
}

// checkCertificate ties a compiled target to the requested cell: the
// response's program is the certificate's, the certificate is for a corpus
// program that shares the cell's cache key, and tables.CheckCertificate
// accepts it against that program's spec, re-deriving the effective spec
// and checking the witness and the device limits.
func (c *respChecker) checkCertificate(cellName string, t serve.CompileResponse) error {
	name, profile, _ := strings.Cut(cellName, " | ")
	want, ok := c.programs[name]
	if !ok {
		return fmt.Errorf("no corpus program %q", name)
	}
	p, ok := c.profiles[profile]
	if !ok {
		return fmt.Errorf("no profile %q", profile)
	}
	cc, err := cert.Decode(t.Certificate)
	if err != nil {
		return err
	}
	var prog, certProg bytes.Buffer
	if err := json.Compact(&prog, t.ProgramJSON); err != nil {
		return fmt.Errorf("program: %w", err)
	}
	if err := json.Compact(&certProg, cc.Program); err != nil {
		return fmt.Errorf("certificate program: %w", err)
	}
	if !bytes.Equal(prog.Bytes(), certProg.Bytes()) {
		return errors.New("the response's program is not the certificate's")
	}
	if cc.Profile != profile {
		return fmt.Errorf("certificate is for profile %s", cc.Profile)
	}
	producer, ok := c.bySHA[cc.SpecSHA]
	if !ok {
		return fmt.Errorf("certificate is for spec %s (%s), which is no corpus program", cc.Spec, cc.SpecSHA)
	}
	if producer.key != want.key {
		return fmt.Errorf("certificate is for spec %s, which does not share the cell's cache key", cc.Spec)
	}
	return tables.CheckCertificate(producer.spec, p, cc)
}

// selfCheck decodes a certificate and checks its witness and proof.
func selfCheck(data []byte) error {
	c, err := cert.Decode(data)
	if err != nil {
		return err
	}
	return c.SelfCheck()
}

// scrape reads the unlabelled samples of hawkd's /stats.
func (h *hawkdServer) scrape() (map[string]float64, error) {
	resp, err := h.client.Get(h.url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// hawkdRun is one epoch: what each request got and the server counters
// around it.
type hawkdRun struct {
	prefill        []*served
	out            []*served
	okFast         int // requests that passed the checks within the SLO limit
	latSum         time.Duration
	stats0, stats1 map[string]float64
	memo0, memo1   memo.Stats
}

// runEpochs replays every epoch, each on a fresh server except that the first
// uses the one set-up started unless fresh is set, and checks every
// response.
func (s *hawkdState) runEpochs(rep *report, tr *tracer, slo time.Duration, fresh bool) (hawkdRuns, error) {
	var runs hawkdRuns
	for k, reqs := range s.epochs {
		if k > 0 || fresh {
			if err := s.close(); err != nil {
				return nil, err
			}
			var err error
			if s.srv, err = startServer(s.outDir); err != nil {
				return nil, err
			}
		}
		srv := s.srv
		r := &hawkdRun{prefill: srv.prefill, memo0: srv.memo.Stats()}
		var err error
		if r.stats0, err = srv.scrape(); err != nil {
			return nil, err
		}
		r.out = srv.load(reqs, tr, len(runs)*len(reqs))
		if r.stats1, err = srv.scrape(); err != nil {
			return nil, err
		}
		r.memo1 = srv.memo.Stats()
		if s.check == nil {
			if s.check, err = newRespChecker(s.expect); err != nil {
				return nil, err
			}
		}
		// A bad prefill response fails a run, though it is no timed op.
		for _, o := range r.prefill {
			s.check.check(rep, o)
		}
		for _, o := range r.out {
			rep.attempted++
			r.latSum += o.latency
			if s.check.check(rep, o) && o.latency <= slo {
				r.okFast++
			}
		}
		runs = append(runs, r)
	}
	return runs, nil
}

type hawkdRuns []*hawkdRun

// latencies returns the latency in ms of the requests that pass keep.
func (rs hawkdRuns) latencies(keep func(*served) bool) []float64 {
	var xs []float64
	for _, r := range rs {
		for _, o := range r.out {
			if keep(o) {
				xs = append(xs, ms(o.latency))
			}
		}
	}
	return xs
}

// delta sums a /stats counter's movement over the epochs.
func (rs hawkdRuns) delta(name string) float64 {
	var d float64
	for _, r := range rs {
		d += r.stats1[name] - r.stats0[name]
	}
	return d
}

func (rs hawkdRuns) total() (latSum time.Duration, okFast int) {
	for _, r := range rs {
		latSum += r.latSum
		okFast += r.okFast
	}
	return latSum, okFast
}

// sizes sums entries and stages over the distinct cells that compiled.
func (rs hawkdRuns) sizes() (entries, stages, cells int) {
	seen := map[string]bool{}
	for _, r := range rs {
		for _, s := range append(append([]*served(nil), r.prefill...), r.out...) {
			targets := []serve.CompileResponse{s.resp}
			if len(s.req.cells) > 1 {
				targets = s.resp.Targets
			}
			for i, t := range targets {
				if i >= len(s.req.cells) || seen[s.req.cells[i]] || t.Verdict != serve.VerdictOK {
					continue
				}
				seen[s.req.cells[i]] = true
				entries += t.Entries
				stages += t.Stages
			}
		}
	}
	return entries, stages, len(seen)
}

func single(cache string) func(*served) bool {
	return func(o *served) bool { return len(o.req.cells) == 1 && o.resp.Cache == cache }
}

func (s *hawkdState) measure(e *env) (*report, error) {
	rep := &report{}
	runs, err := s.runEpochs(rep, nil, e.slo, false)
	if err != nil {
		return nil, err
	}
	_, okFast := runs.total()
	all := runs.latencies(func(*served) bool { return true })
	miss := runs.latencies(single(serve.CacheMiss))
	// Under open-loop load the requests and compiles per second of the run
	// would only echo the offered rate. The throughputs divide by the time
	// spent serving instead: each request's time from send to last byte,
	// and each compile's own elapsed time as the program reports it.
	var service, compiling time.Duration
	compiles := 0
	for _, r := range runs {
		for _, o := range r.out {
			service += o.latency - o.late
			if len(o.req.cells) == 1 && o.resp.Cache == serve.CacheMiss && o.resp.Stats != nil {
				compiling += o.resp.Stats.Elapsed
				compiles++
			}
		}
	}
	entries, stages, cells := runs.sizes()
	rep.quantile("req_p50_ms", all, 0.50)
	rep.quantile("req_p99_ms", all, 0.99)
	rep.add("req_per_s", "1/s", float64(len(all))/service.Seconds(), len(all))
	rep.add("compiles_per_s", "1/s", float64(compiles)/compiling.Seconds(), compiles)
	rep.quantile("compile_p50_ms", miss, 0.50)
	rep.quantile("compile_p90_ms", miss, 0.90)
	rep.add("tcam_entries", "count", float64(entries), cells)
	rep.add("pipeline_stages", "count", float64(stages), cells)
	rep.add("ok_frac", "ratio", 1-float64(rep.failed)/float64(rep.attempted), rep.attempted)
	rep.add("slo_met_frac", "ratio", float64(okFast)/float64(rep.attempted), rep.attempted)
	return rep, nil
}

// traced replays the epochs untraced, then again on fresh servers with
// spans around every request, and afterwards times the request path's
// front-end layers on every request's source.
func (s *hawkdState) traced(e *env) (*report, error) {
	rep := &report{}
	a, err := s.runEpochs(rep, nil, e.slo, false)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	b, err := s.runEpochs(rep, tr, e.slo, true)
	if err != nil {
		return nil, err
	}

	lay := newLayerStats()
	untraced, _ := a.total()
	traced, _ := b.total()
	lay.overhead(untraced, traced)
	hits, misses := b.latencies(single(serve.CacheHit)), b.latencies(single(serve.CacheMiss))
	var late []float64
	var m memo.Stats
	for _, r := range b {
		for _, o := range r.out {
			late = append(late, ms(o.late))
			if o.resp.Cache == serve.CacheMiss && o.resp.Stats != nil {
				lay.time("core.compile_ms", o.resp.Stats.Elapsed)
				lay.coreStats(*o.resp.Stats)
			}
		}
		d := r.memo1.Sub(r.memo0)
		m.T1Hits += d.T1Hits + d.T1AliasHits
		m.T1Misses += d.T1Misses
		m.T1Stores += d.T1Stores + d.T2Stores + d.T3Stores
		m.BytesWritten += d.BytesWritten
	}
	lay.values["serve.hit_p50_ms"] = percentile(hits, 0.5)
	lay.values["serve.miss_p50_ms"] = percentile(misses, 0.5)
	lay.values["loadgen.late_p99_ms"] = percentile(late, 0.99)
	for name, metric := range map[string]string{
		"serve.cache_hits": "hawkd_cache_hits_total", "serve.cache_misses": "hawkd_cache_misses_total",
		"serve.coalesced": "hawkd_coalesced_total", "serve.compiles": "hawkd_compiles_total",
	} {
		lay.values[name] = b.delta(metric)
	}
	lay.values["memo.t1_hits"] = float64(m.T1Hits)
	lay.values["memo.t1_misses"] = float64(m.T1Misses)
	lay.values["memo.stores"] = float64(m.T1Stores)
	lay.values["memo.bytes_written"] = float64(m.BytesWritten)

	profiles := map[string]hw.Profile{}
	for _, p := range scaledProfiles() {
		profiles[p.Name] = p
	}
	op := 0
	for _, reqs := range s.epochs {
		for _, r := range reqs {
			var spec *pir.Spec
			lay.time("p4.parse_ms", tr.do("p4.parse", op, -1, func() { spec, err = p4.ParseSpec(r.source) }))
			if err != nil {
				return nil, fmt.Errorf("parsing request %d: %w", op, err)
			}
			lay.time("pir.canonicalize_ms", tr.do("pir.canonicalize", op, -1, func() { _, _, err = pir.Canonicalize(spec) }))
			if err != nil {
				return nil, fmt.Errorf("canonicalizing request %d: %w", op, err)
			}
			_, prof, _ := strings.Cut(r.cells[0], " | ")
			p := profiles[prof]
			lay.time("lint.run_ms", tr.do("lint.run", op, -1, func() { lint.Run(spec, &p) }))
			op++
		}
	}
	seen := map[[32]byte]bool{}
	for _, r := range b {
		for _, o := range r.out {
			for _, t := range append([]serve.CompileResponse{o.resp}, o.resp.Targets...) {
				if sum := sha256.Sum256(t.Certificate); t.Certificate != nil && !seen[sum] {
					seen[sum] = true
					// The verdict was taken with the responses; this is its cost.
					lay.time("cert.witness_check_ms", tr.do("cert.witness_check", -1, -1, func() { _ = selfCheck(t.Certificate) }))
				}
			}
		}
	}
	return lay.finish(rep, tr, filepath.Join(e.outDir, fmt.Sprintf("trace-hawkd-mix-%d.json", e.seed)))
}

// measureCapacity measures the hit path's closed-loop capacity, the basis
// of hawkdRate: hawkdConns senders send the hot-set requests of the seed's
// sequence (repeats, variants, multi-target) back to back to a prefilled
// server for e.seconds, and every response is checked.
func measureCapacity(e *env, w io.Writer) error {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	reqs, err := generate(e.seed, e.seconds)
	if err != nil {
		return err
	}
	var hot []request
	for _, r := range reqs {
		if r.kind != "cold" {
			hot = append(hot, r)
		}
	}
	srv, err := startServer(e.outDir)
	if err != nil {
		return err
	}
	defer srv.close()
	out := make([][]*served, hawkdConns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(e.seconds)
	for c := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				s := srv.send(hot[int(next.Add(1)-1)%len(hot)])
				s.latency = time.Since(t0)
				out[c] = append(out[c], s)
			}
		}()
	}
	wg.Wait()
	span := time.Since(start)
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	chk, err := newRespChecker(exp)
	if err != nil {
		return err
	}
	rep := &report{}
	var lat []float64
	for _, ss := range out {
		for _, s := range ss {
			chk.check(rep, s)
			lat = append(lat, ms(s.latency))
		}
	}
	if rep.failed > 0 {
		return fmt.Errorf("%d of %d responses failed the checks: %v", rep.failed, len(lat), rep.failures)
	}
	fmt.Fprintf(w, "hit-path capacity: %.1f req/s over %d requests in %.1f s with %d senders; latency p50 %.3f ms, p99 %.3f ms\n",
		float64(len(lat))/span.Seconds(), len(lat), span.Seconds(), hawkdConns, percentile(lat, 0.5), percentile(lat, 0.99))
	return nil
}
