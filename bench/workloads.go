package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"osdp/internal/dataset"
	"osdp/internal/server"
	"osdp/internal/tippers"
)

// Workload names, as passed to --workload.
const (
	wlMix    = "mix-1m"
	wlCount  = "count-durable"
	wlSample = "sample-release"
)

var workloadNames = []string{wlMix, wlCount, wlSample}

// datasetName is the name every workload registers its table under.
const datasetName = "bench"

// Query kinds of the §7 mix, in the order per-kind metrics are reported.
var mixKinds = []string{server.KindHistogram, server.KindCount, server.KindQuantile, server.KindWorkload}

// mixEstimators rotate across a client's workload requests.
var mixEstimators = []string{server.EstimatorFlat, server.EstimatorHier, server.EstimatorDAWA, server.EstimatorAHP, server.EstimatorAGrid}

// request is one query a client sends, with the check its answer must pass.
type request struct {
	kind  string
	eps   float64
	body  []byte
	check func(server.QueryResponse) error
}

// workload is one traffic mix: the table it registers under its policy,
// how its analysts drive it, and how each answer is checked.
type workload struct {
	name     string
	table    *dataset.Table
	policy   []byte // PolicySpec JSON, as an operator's policy file holds it
	analysts int
	warmup   time.Duration
	// newClient returns the request stream of one analyst.
	newClient func(client int, rng *rand.Rand) func() request
	// rate is the open-loop Poisson arrival rate (requests/s); 0 runs a
	// closed loop.
	rate float64
	// operator runs the /metrics and /admin/spend poller beside traffic.
	operator bool
}

// count-durable's table size and arrival rate. 1500 req/s keeps it below
// the knee even while a shared 2-CPU host runs slow; at 3000 req/s its
// tail latency followed the host's speed rather than the server's.
const (
	countRows = 10_000
	countRate = 1500
)

// scale sizes the workloads: full runs or the -quick smoke.
type scale struct {
	mixRows int
	tippers tippers.Config
	warmup  time.Duration // replaces every workload's warm-up when set
}

func fullScale() scale {
	// DefaultConfig's 800 users give 78.5k–81.9k rows; 860 leave every
	// seed enough to cut at sampleRows.
	tc := tippers.DefaultConfig()
	tc.Users = 860
	return scale{mixRows: 1_000_000, tippers: tc}
}

func quickScale() scale {
	tc := tippers.DefaultConfig()
	tc.Users, tc.Days = 40, 10
	return scale{mixRows: 5_000, tippers: tc, warmup: 200 * time.Millisecond}
}

// buildWorkload generates the named workload's inputs from seed.
func buildWorkload(name string, seed int64, sc scale) (*workload, error) {
	var w *workload
	switch name {
	case wlMix:
		w = mixWorkload(seed, sc.mixRows)
	case wlCount:
		w = countWorkload(seed)
	case wlSample:
		w = sampleWorkload(seed, sc.tippers)
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
	}
	if sc.warmup > 0 {
		w.warmup = sc.warmup
	}
	return w, nil
}

// peopleTable is the mix-1m and count-durable schema: Group (64 strings),
// Age 0..99 and a float Score.
func peopleTable(rows int, seed int64) (*dataset.Table, peopleTruth) {
	rng := rand.New(rand.NewSource(seed))
	t := dataset.NewTable(dataset.NewSchema(
		dataset.Field{Name: "Group", Kind: dataset.KindString},
		dataset.Field{Name: "Age", Kind: dataset.KindInt},
		dataset.Field{Name: "Score", Kind: dataset.KindFloat},
	))
	groups := make([]dataset.Value, 64)
	for i := range groups {
		groups[i] = dataset.Str(fmt.Sprintf("group-%02d", i))
	}
	var truth peopleTruth
	seen := make([]bool, len(groups))
	for i := 0; i < rows; i++ {
		g, age := rng.Intn(len(groups)), rng.Intn(100)
		t.AppendValues(groups[g], dataset.Int(int64(age)), dataset.Float(rng.Float64()*1000))
		if age >= adultAge {
			truth.nsByAge[age]++
			seen[g] = true
		}
	}
	for _, s := range seen {
		if s {
			truth.nsGroups++
		}
	}
	return t, truth
}

// adultAge is the policy boundary: rows with Age < adultAge are sensitive.
const adultAge = 18

// peopleTruth is what the answer checks need to know about the
// non-sensitive rows.
type peopleTruth struct {
	nsByAge  [100]int
	nsGroups int
}

// nsAtLeast is the true non-sensitive count of Age >= k.
func (t *peopleTruth) nsAtLeast(k int) int {
	n := 0
	for a := max(k, adultAge); a < len(t.nsByAge); a++ {
		n += t.nsByAge[a]
	}
	return n
}

// minorsPolicy marks Age < 18 sensitive.
func minorsPolicy() []byte {
	return policyJSON(server.PolicySpec{Name: "minors", SensitiveWhen: server.PredicateSpec{
		Op: "cmp", Attr: "Age", Cmp: "<", Value: adultAge,
	}})
}

func policyJSON(p server.PolicySpec) []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // PolicySpec holds only marshalable fields
	}
	return b
}

func mixWorkload(seed int64, rows int) *workload {
	t, truth := peopleTable(rows, seed)
	ageAtLeast := func(k int) *server.PredicateSpec {
		return &server.PredicateSpec{Op: "cmp", Attr: "Age", Cmp: ">=", Value: k}
	}
	const eps = 0.1
	newClient := func(client int, rng *rand.Rand) func() request {
		workloads := client // offsets each client's estimator rotation
		return func() request {
			k := 10 * rng.Intn(8)
			switch p := rng.Intn(100); {
			case p < 40:
				return makeRequest(server.QueryRequest{
					Kind: server.KindHistogram, Eps: eps,
					Dims:  []server.DomainSpec{{Attr: "Group"}},
					Where: ageAtLeast(k),
				}, checkHistogram(truth.nsGroups))
			case p < 70:
				return makeRequest(server.QueryRequest{
					Kind: server.KindCount, Eps: eps, Where: ageAtLeast(k),
				}, checkCount(truth.nsAtLeast(k)))
			case p < 85:
				return makeRequest(server.QueryRequest{
					Kind: server.KindQuantile, Eps: eps, Attr: "Age",
					Q: float64(1+rng.Intn(9)) / 10,
				}, checkQuantile(adultAge, 99))
			default:
				ranges := make([]server.RangeSpec, 64)
				for i := range ranges {
					lo := rng.Intn(64)
					ranges[i] = server.RangeSpec{Lo: lo, Hi: lo + rng.Intn(64-lo)}
				}
				est := mixEstimators[workloads%len(mixEstimators)]
				workloads++
				return makeRequest(server.QueryRequest{
					Kind: server.KindWorkload, Eps: eps, Estimator: est,
					Dims:   []server.DomainSpec{{Attr: "Age", Lo: 0, Width: 2, Bins: 64}},
					Ranges: ranges,
				}, checkAnswers(len(ranges)))
			}
		}
	}
	return &workload{
		name: wlMix, table: t, policy: minorsPolicy(), analysts: 2,
		warmup: 3 * time.Second, newClient: newClient,
	}
}

func countWorkload(seed int64) *workload {
	t, truth := peopleTable(countRows, seed)
	req := makeRequest(server.QueryRequest{Kind: server.KindCount, Eps: 0.01},
		checkCount(truth.nsAtLeast(0)))
	return &workload{
		name: wlCount, table: t, policy: minorsPolicy(), analysts: 32,
		warmup: 2 * time.Second, rate: countRate, operator: true,
		newClient: func(int, *rand.Rand) func() request {
			return func() request { return req }
		},
	}
}

// sample-release's table size and sensitive set. The RR keep loop's cost
// per request follows the row count and the arity of the policy's "or",
// so both are fixed rather than left to the seed: under
// PolicyForShare(0.75) DefaultConfig corpora gave 78.5k–81.9k rows and
// 17–19 sensitive APs, and one seed's requests ran 7% slower than
// another's on the same host.
const (
	sampleRows         = 80_000
	sampleSensitiveAPs = 18
)

// sampleWorkload is the TIPPERS trajectory corpus, one row per occupied
// slot, cut at sampleRows, under the policy that makes its
// sampleSensitiveAPs least-visited access points sensitive, the ones
// PolicyForShare marks first.
func sampleWorkload(seed int64, cfg tippers.Config) *workload {
	cfg.Seed = seed
	corpus := tippers.Generate(cfg)
	cov := corpus.APCoverage()
	order := make([]int, tippers.NumAPs)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cov[order[a]] < cov[order[b]] })
	var sensitive [tippers.NumAPs]bool
	for _, ap := range order[:sampleSensitiveAPs] {
		sensitive[ap] = true
	}
	var args []server.PredicateSpec
	for ap, s := range sensitive {
		if s {
			args = append(args, server.PredicateSpec{Op: "cmp", Attr: "ap", Cmp: "=", Value: ap})
		}
	}
	t := dataset.NewTable(dataset.NewSchema(
		dataset.Field{Name: "user", Kind: dataset.KindInt},
		dataset.Field{Name: "day", Kind: dataset.KindInt},
		dataset.Field{Name: "resident", Kind: dataset.KindBool},
		dataset.Field{Name: "slot", Kind: dataset.KindInt},
		dataset.Field{Name: "ap", Kind: dataset.KindInt},
	))
	nsRows := 0
rows:
	for _, tr := range corpus.Trajectories {
		for slot, ap := range tr.Slots {
			if ap < 0 {
				continue
			}
			if t.Len() == sampleRows {
				break rows
			}
			t.AppendValues(dataset.Int(int64(tr.User)), dataset.Int(int64(tr.Day)),
				dataset.Bool(tr.Resident), dataset.Int(int64(slot)), dataset.Int(int64(ap)))
			if !sensitive[ap] {
				nsRows++
			}
		}
	}
	req := makeRequest(server.QueryRequest{Kind: server.KindSample, Eps: 0.5},
		checkSample(&sensitive, nsRows))
	return &workload{
		name: wlSample, table: t, analysts: 2, warmup: 3 * time.Second,
		policy: policyJSON(server.PolicySpec{Name: "rare-aps", SensitiveWhen: server.PredicateSpec{Op: "or", Args: args}}),
		newClient: func(int, *rand.Rand) func() request {
			return func() request { return req }
		},
	}
}

func makeRequest(q server.QueryRequest, check func(server.QueryResponse) error) request {
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // QueryRequest holds only marshalable fields
	}
	return request{kind: q.Kind, eps: q.Eps, body: body, check: check}
}

// checkCount: one-sided noise never lifts a count above the true
// non-sensitive count of its predicate.
func checkCount(trueNS int) func(server.QueryResponse) error {
	return func(r server.QueryResponse) error {
		if r.Value == nil {
			return errors.New("count: no value")
		}
		if v := *r.Value; v > float64(trueNS) || v < 0 || math.IsNaN(v) {
			return fmt.Errorf("count %g outside [0, %d], the true non-sensitive count", v, trueNS)
		}
		return nil
	}
}

func checkHistogram(bins int) func(server.QueryResponse) error {
	return func(r server.QueryResponse) error {
		if len(r.Labels) != bins || len(r.Counts) != bins {
			return fmt.Errorf("histogram: %d labels and %d counts, want %d", len(r.Labels), len(r.Counts), bins)
		}
		return nil
	}
}

func checkAnswers(n int) func(server.QueryResponse) error {
	return func(r server.QueryResponse) error {
		if len(r.Answers) != n {
			return fmt.Errorf("workload: %d answers, want %d", len(r.Answers), n)
		}
		return nil
	}
}

// checkQuantile: the released quantile is an Age of a released
// non-sensitive row.
func checkQuantile(lo, hi int) func(server.QueryResponse) error {
	return func(r server.QueryResponse) error {
		if r.Value == nil {
			return errors.New("quantile: no value")
		}
		if v := *r.Value; v < float64(lo) || v > float64(hi) || v != math.Trunc(v) {
			return fmt.Errorf("quantile %g is not an Age in [%d, %d]", v, lo, hi)
		}
		return nil
	}
}

// checkSample: the truthful release holds only non-sensitive rows, so no
// row may carry a sensitive access point.
func checkSample(sensitive *[tippers.NumAPs]bool, nsRows int) func(server.QueryResponse) error {
	return func(r server.QueryResponse) error {
		csv := []byte(r.SampleCSV)
		nl := bytes.IndexByte(csv, '\n')
		if nl < 0 {
			return errors.New("sample: no CSV header")
		}
		col := -1
		for i, f := range strings.Split(strings.TrimSpace(string(csv[:nl])), ",") {
			if f == "ap:int" {
				col = i
			}
		}
		if col < 0 {
			return fmt.Errorf("sample: header %q has no ap column", csv[:nl])
		}
		rows := 0
		for rest := csv[nl+1:]; len(rest) > 0; rows++ {
			line := rest
			if i := bytes.IndexByte(rest, '\n'); i >= 0 {
				line, rest = rest[:i], rest[i+1:]
			} else {
				rest = nil
			}
			field := line
			for i := 0; i < col; i++ {
				j := bytes.IndexByte(field, ',')
				if j < 0 {
					return fmt.Errorf("sample: row %d has too few fields", rows)
				}
				field = field[j+1:]
			}
			if j := bytes.IndexByte(field, ','); j >= 0 {
				field = field[:j]
			}
			ap, err := strconv.Atoi(string(bytes.TrimSpace(field)))
			if err != nil || ap < 0 || ap >= len(sensitive) {
				return fmt.Errorf("sample: row %d has ap %q", rows, field)
			}
			if sensitive[ap] {
				return fmt.Errorf("sample: row %d released sensitive ap %d", rows, ap)
			}
		}
		if rows > nsRows {
			return fmt.Errorf("sample: %d rows released from %d non-sensitive rows", rows, nsRows)
		}
		return nil
	}
}
