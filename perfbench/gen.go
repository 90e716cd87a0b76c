package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"time"

	"parserhawk/internal/benchdata"
	"parserhawk/internal/p4"
	"parserhawk/internal/serve"
)

// The hawkd-mix request mix. The hot set is six cheap loop-free programs
// on the three scaled profiles (18 cache keys), compiled during set-up.
// Every other benchdata program, slowPrograms aside, arrives once per
// sequence on each profile and is compiled on arrival. Of the remaining
// requests, 70% repeat a hot spec verbatim, 20% send a textual variant of
// one (comments, whitespace, state renames: the same canonical cache key),
// and 10% send a hot spec to all three profiles in one multi-target
// envelope. The shares are a synthetic choice, not measured traffic:
// mostly repeats, with enough variants that every hot key receives some
// in every epoch (TestEveryHotKeyGetsVariants). Every request asks for a
// sequential compile (workers 1), so a first-seen compile leaves one core
// to the requests that hit the cache.
//
// The offered rate is 1% of the hit path's closed-loop capacity as
// perfbench --capacity measures it (about 7,600 req/s on the 2-core
// reference machine; see README.md). At that load a request seldom finds
// the other sender busy with a hit, so the median is the unloaded request
// path, and queueing comes from the first-seen compiles alone.
const (
	hawkdRate     = 75 // offered requests per second
	repeatShare   = 0.70
	variantShare  = 0.20
	requestBudget = "60s" // per-request wait; never reached by a correct server
)

var hotPrograms = []string{
	"Parse Ethernet", "Parse icmp", "Multi-key (same pkt field)",
	"Multi-keys (diff pkt fields)", "Pure Extraction states", "Sai V1",
}

// slowPrograms take over 100 ms on some scaled profile; they stay in
// table3-seq and out of hawkd-mix, so that no first-seen compile outlasts
// the gap to the next one and both senders are never held at once.
var slowPrograms = []string{
	"Parse MPLS", "Parse MPLS +unroll", "Parse MPLS -R1", "Parse MPLS +R1",
	"Large tran key", "Sai V2", "Sai V2 +R1+R2", "Deep Geneve", "Deep GTP-U",
}

// corpusSpec is a benchdata program as the P4 text a client would send.
type corpusSpec struct {
	name    string
	src     string
	maxIter int
}

// request is one generated hawkd request: when it is due, its body, and
// the expected-outcome cell of each target it names, in order.
type request struct {
	kind   string // repeat, variant, multi, or cold
	due    time.Duration
	source string
	body   []byte
	cells  []string
}

// corpus splits benchdata.All() into the hot programs and the cold ones,
// each rendered to P4 text.
func corpus() (hot, cold []corpusSpec, err error) {
	isHot, isSlow := map[string]bool{}, map[string]bool{}
	for _, name := range hotPrograms {
		isHot[name] = true
	}
	for _, name := range slowPrograms {
		isSlow[name] = true
	}
	for _, b := range benchdata.All() {
		if isSlow[b.Name()] {
			continue
		}
		src, perr := p4.Print(b.Spec)
		if perr != nil {
			return nil, nil, fmt.Errorf("printing %s: %w", b.Name(), perr)
		}
		s := corpusSpec{name: b.Name(), src: src, maxIter: b.MaxIterations}
		if isHot[b.Name()] {
			hot = append(hot, s)
		} else {
			cold = append(cold, s)
		}
	}
	if len(hot) != len(hotPrograms) {
		return nil, nil, fmt.Errorf("hot set: found %d of %d programs", len(hot), len(hotPrograms))
	}
	return hot, cold, nil
}

// newRequest builds the request for spec src on the named profiles (one
// profile as a plain request, several as a multi-target envelope).
func newRequest(kind string, s corpusSpec, src string, profiles ...string) request {
	req := serve.CompileRequest{Source: src, Timeout: requestBudget, Options: &serve.CompileOptions{Workers: 1}}
	if len(profiles) == 1 {
		req.Profile = profiles[0]
	} else {
		req.Targets = profiles
	}
	req.Options.MaxIterations = s.maxIter
	body, _ := json.Marshal(req) // plain structs: cannot fail
	r := request{kind: kind, source: src, body: body}
	for _, p := range profiles {
		r.cells = append(r.cells, cellKey(s.name, p))
	}
	return r
}

// generate returns the request sequence for one run: hawkdRate requests
// per second of length with seeded Poisson arrivals (uniform arrival
// times, the Poisson process conditioned on its count), every cold cell
// once, and the rest drawn from the hot set. The same seed always gives
// the same sequence.
func generate(seed int64, length time.Duration) ([]request, error) {
	hot, coldSpecs, err := corpus()
	if err != nil {
		return nil, err
	}
	names := profileNames()
	type coldCell struct {
		corpusSpec
		profile string
	}
	var cold []coldCell
	for _, s := range coldSpecs {
		for _, p := range names {
			cold = append(cold, coldCell{s, p})
		}
	}
	n := int(hawkdRate * length.Seconds())
	if n < len(cold) {
		n = len(cold)
	}
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(length)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })

	// Cold cells arrive one per equal slice of the run, each on the
	// arrival nearest the slice's midpoint, in a seeded order: the arrival
	// process stays Poisson, and no two first-seen compiles are scheduled
	// to overlap by chance, which would make the tail latency depend more on
	// the seed than on the server.
	coldAt := map[int]int{} // request index -> cold program
	for k, c := range rng.Perm(len(cold)) {
		mid := time.Duration((float64(k) + 0.5) * float64(length) / float64(len(cold)))
		i := sort.Search(n, func(i int) bool { return due[i] >= mid })
		if i == n || (i > 0 && mid-due[i-1] < due[i]-mid) {
			i--
		}
		for _, taken := coldAt[i]; taken; _, taken = coldAt[i] {
			i = (i + 1) % n // n >= len(cold), so a free index exists
		}
		coldAt[i] = c
	}
	reqs := make([]request, n)
	for i := range reqs {
		if c, ok := coldAt[i]; ok {
			s := cold[c]
			reqs[i] = newRequest("cold", s.corpusSpec, s.src, s.profile)
		} else {
			s := hot[rng.Intn(len(hot))]
			switch u := rng.Float64(); {
			case u < repeatShare:
				reqs[i] = newRequest("repeat", s, s.src, names[rng.Intn(len(names))])
			case u < repeatShare+variantShare:
				reqs[i] = newRequest("variant", s, variant(s.src, rng), names[rng.Intn(len(names))])
			default:
				reqs[i] = newRequest("multi", s, s.src, names...)
			}
		}
		reqs[i].due = due[i]
	}
	return reqs, nil
}

var stateDecl = regexp.MustCompile(`state (\w+) \{`)

// variant rewrites P4 text without changing its meaning: some states are
// renamed, comments are inserted, and indentation and blank lines vary.
// It works on text because p4.Print cannot render every spec (renamed
// specs such as benchdata.Alias() fail its header.field check).
func variant(src string, rng *rand.Rand) string {
	for _, m := range stateDecl.FindAllStringSubmatch(src, -1) {
		name := m[1]
		if name == "start" || rng.Intn(2) == 0 {
			continue
		}
		to := fmt.Sprintf("%s_v%d", name, rng.Intn(1000))
		ref := regexp.MustCompile(`(state |: |transition )` + regexp.QuoteMeta(name) + `\b`)
		src = ref.ReplaceAllString(src, "${1}"+to)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "/* variant %d */\n", rng.Int63())
	for _, line := range strings.Split(strings.TrimRight(src, "\n"), "\n") {
		trimmed := strings.TrimLeft(line, " ")
		indent := len(line) - len(trimmed)
		switch rng.Intn(3) {
		case 0:
			sb.WriteString(strings.Repeat("\t", indent/4))
		case 1:
			sb.WriteString(strings.Repeat(" ", indent/2))
		default:
			sb.WriteString(line[:indent])
		}
		sb.WriteString(trimmed)
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, " // note %d", rng.Intn(100))
		}
		sb.WriteByte('\n')
		if rng.Intn(8) == 0 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
