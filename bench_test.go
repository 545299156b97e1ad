// Package osdp's root-level benchmark harness: one testing.B benchmark per
// table and figure of the paper (regenerating the artifact end to end on a
// reduced configuration), the ablations called out in DESIGN.md, and
// micro-benchmarks of the individual mechanisms. Run with
//
//	go test -bench=. -benchmem
//
// and use -v to see each regenerated table via b.Logf. cmd/osdp-bench runs
// the full-scale versions and prints the complete series.
package osdp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"osdp/internal/core"
	"osdp/internal/dataset"
	"osdp/internal/dawa"
	"osdp/internal/dpbench"
	"osdp/internal/experiments"
	"osdp/internal/histogram"
	"osdp/internal/mechanism"
	"osdp/internal/noise"
	"osdp/internal/server"
)

// benchConfig is the reduced configuration used by the figure benchmarks:
// one trial per measurement, small corpus, all policy points.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Trials = 1
	cfg.Tippers.Users = 250
	cfg.Tippers.Days = 12
	cfg.CVFolds = 3
	cfg.Epochs = 40
	cfg.PolicyShares = []float64{0.99, 0.75, 0.50, 0.25}
	cfg.NSRatios = []float64{0.99, 0.50, 0.25}
	return cfg
}

func logOnce(b *testing.B, i int, r *experiments.Report) {
	if i == 0 {
		b.Logf("\n%s", r.String())
	}
}

func BenchmarkTable1_OsdpRRKeepRate(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Table1(cfg, 100000))
	}
}

func BenchmarkTable2_DPBenchStats(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Table2(cfg))
	}
}

func BenchmarkFigure1_Classification(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure1(cfg, 1.0))
	}
}

func BenchmarkFigure2_4grams(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.FigureNGrams(cfg, 4, 1.0))
	}
}

func BenchmarkFigure3_5grams(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.FigureNGrams(cfg, 5, 1.0))
	}
}

func BenchmarkFigure4_Tippers2D(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure4(cfg, 1.0))
	}
}

func BenchmarkFigure5_TippersPerBin(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure5(cfg, 1.0))
	}
}

func BenchmarkFigure6_RegretBothPolicies(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure6(cfg, 1.0))
	}
}

func BenchmarkFigure7_RegretByPolicy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure78(cfg, 1.0, "MRE"))
	}
}

func BenchmarkFigure8_Rel95Regret(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure78(cfg, 1.0, "Rel95"))
	}
}

func BenchmarkFigure9_PerDataset(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure9(cfg, 1.0, 0.99))
	}
}

func BenchmarkFigure10_PDPComparison(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.Figure10(cfg, 1.0))
	}
}

func BenchmarkAblation_RRvsLaplaceCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.CrossoverReport())
	}
}

func BenchmarkAblation_ExclusionAttack(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.ExclusionExperiment(cfg, 20000))
	}
}

func BenchmarkAblation_DAWAzRho(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.DAWAzRhoSweep(cfg, 1.0, []float64{0.05, 0.1, 0.3}))
	}
}

func BenchmarkAblation_L1Postprocess(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.L1PostprocessAblation(cfg, 1.0))
	}
}

func BenchmarkAblation_ZeroSource(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.ZeroSourceAblation(cfg, 1.0))
	}
}

func BenchmarkAblation_TruncationK(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.TruncationSweep(cfg, 4, 1.0, 3))
	}
}

func BenchmarkExtension_RecipeGenerality(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.RecipeGeneralityReport(cfg, 1.0))
	}
}

func BenchmarkExtension_ConstraintClosure(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.ConstraintClosureReport(cfg))
	}
}

func BenchmarkExtension_PolicyLearning(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.PolicyLearningReport(cfg, []int{200, 1000}))
	}
}

func BenchmarkExtension_AGrid2D(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.AGrid2DReport(cfg, 1.0))
	}
}

func BenchmarkExtension_RangeWorkload(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.RangeWorkloadReport(cfg, 1.0, 100))
	}
}

func BenchmarkExtension_PrivBayes(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, experiments.PrivBayesReport(cfg, []float64{0.2}))
	}
}

// --- Data-plane benchmarks: row-oriented vs columnar execution. ---

const dataplaneRows = 1_000_000

// newDataplaneTable builds a rows-long table with a `groups`-ary string
// attribute ("Group"), an integer "Age" (0..99) for the WHERE condition,
// and a float "Score" payload. Deterministic in seed.
func newDataplaneTable(rows, groups int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	s := dataset.NewSchema(
		dataset.Field{Name: "Group", Kind: dataset.KindString},
		dataset.Field{Name: "Age", Kind: dataset.KindInt},
		dataset.Field{Name: "Score", Kind: dataset.KindFloat},
	)
	names := make([]string, groups)
	for i := range names {
		names[i] = fmt.Sprintf("group-%03d", i)
	}
	tb := dataset.NewTable(s)
	for i := 0; i < rows; i++ {
		tb.AppendValues(
			dataset.Str(names[rng.Intn(groups)]),
			dataset.Int(int64(rng.Intn(100))),
			dataset.Float(rng.Float64()*1000),
		)
	}
	return tb
}

// dataplaneWhere is the benchmark condition: 18 <= Age < 60 (~42% of
// rows), a conjunction so the row path pays two interface dispatches.
func dataplaneWhere() dataset.Predicate {
	return dataset.And(
		dataset.Cmp("Age", dataset.OpGe, dataset.Int(18)),
		dataset.Cmp("Age", dataset.OpLt, dataset.Int(60)),
	)
}

// rowReferenceGroupCount is the row-at-a-time baseline and correctness
// reference: evaluate the predicate record by record through the
// Predicate interface, group by rendering each value into a string-keyed
// map — the pre-columnar engine's algorithm. rows is the pre-built row
// slice (callers hoist t.Records() out of timed regions, mirroring the
// old engine's stored record slice). Note the baseline is not a perfect
// replica of the old engine: records now read through the columnar
// storage, reconstructing a Value per access where the old Table
// returned stored Values directly — the benchmark measures today's row
// path against today's columnar path on identical storage.
func rowReferenceGroupCount(t *dataset.Table, rows []dataset.Record, where dataset.Predicate, attr string) map[string]int {
	ci := t.Schema().ColumnIndex(attr)
	out := make(map[string]int)
	for _, r := range rows {
		if where != nil && !where.Eval(r) {
			continue
		}
		out[r.At(ci).AsString()]++
	}
	return out
}

var (
	dataplaneOnce  sync.Once
	dataplaneTable *dataset.Table
)

// dataplaneBenchTable builds the 1M-row table shared by the data-plane
// benchmarks: a 64-group string attribute, an int attribute for the WHERE
// condition, and a float payload.
func dataplaneBenchTable() *dataset.Table {
	dataplaneOnce.Do(func() {
		dataplaneTable = newDataplaneTable(dataplaneRows, 64, 1)
	})
	return dataplaneTable
}

// BenchmarkRowVsColumnar runs the same filtered group-by count — the
// server's histogram hot path — through the row-at-a-time baseline
// (interface-dispatched predicate per record, string-keyed map grouping;
// the pre-columnar engine's algorithm, with its record slice hoisted out
// of the timed region like the old stored slice — see
// rowReferenceGroupCount for the caveats) and through the
// columnar engine (compiled predicate bitset + cached bin-id vector).
// The acceptance bar for the columnar data plane is >= 5x throughput on
// this workload.
func BenchmarkRowVsColumnar(b *testing.B) {
	tb := dataplaneBenchTable()
	where := dataplaneWhere()
	b.Run("row", func(b *testing.B) {
		rows := tb.Records() // hoisted: the old engine kept this slice stored
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			counts := rowReferenceGroupCount(tb, rows, where, "Group")
			if len(counts) == 0 {
				b.Fatal("empty result")
			}
		}
	})
	b.Run("columnar", func(b *testing.B) {
		q := histogram.NewQuery(where, histogram.DomainFromTable(tb, "Group"))
		q.Eval(tb) // warm the cached bin vector, as a serving registry would
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := q.Eval(tb)
			if h.Scale() == 0 {
				b.Fatal("empty result")
			}
		}
	})
}

// BenchmarkServerHistogramQuery measures the full serving path (session
// lookup, artifact-cache hit, vectorized scan, OSDP noise) on the 1M-row
// table. Allocations must stay independent of the row count — no
// per-record map entries; see TestServerHistogramQueryAllocs for the
// enforced bound.
func BenchmarkServerHistogramQuery(b *testing.B) {
	tb := dataplaneBenchTable()
	srv := server.New(server.Config{AllowSeededSessions: true})
	if err := srv.RegisterTable("bench", tb, dataset.AllNonSensitive()); err != nil {
		b.Fatal(err)
	}
	seed := int64(7)
	si, err := srv.OpenSession("", server.OpenSessionRequest{Dataset: "bench", Budget: 0, Seed: &seed})
	if err != nil {
		b.Fatal(err)
	}
	req := server.QueryRequest{
		Kind: server.KindHistogram,
		Eps:  0.1,
		Dims: []server.DomainSpec{{Attr: "Group"}},
		Where: &server.PredicateSpec{
			Op: "cmp", Attr: "Age", Cmp: ">=", Value: float64(18),
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Query("", si.ID, req); err != nil {
			b.Fatal(err)
		}
	}
}

// minorsPolicy marks Age < 18 sensitive, the policy of bench/'s mix-1m.
func minorsPolicy() dataset.Policy {
	return dataset.NewPolicy("minors", dataset.Cmp("Age", dataset.OpLt, dataset.Int(18)))
}

// BenchmarkServerScanQueries measures the path bench/'s mix-1m serves:
// count and histogram queries through the full serving path on the
// 1M-row table registered under Age < 18, so every scan runs over the
// non-sensitive partition view (~82% of the rows), not the identity
// view BenchmarkServerHistogramQuery registers.
func BenchmarkServerScanQueries(b *testing.B) {
	tb := dataplaneBenchTable()
	srv := server.New(server.Config{AllowSeededSessions: true})
	if err := srv.RegisterTable("bench", tb, minorsPolicy()); err != nil {
		b.Fatal(err)
	}
	seed := int64(7)
	si, err := srv.OpenSession("", server.OpenSessionRequest{Dataset: "bench", Budget: 0, Seed: &seed})
	if err != nil {
		b.Fatal(err)
	}
	where := &server.PredicateSpec{Op: "cmp", Attr: "Age", Cmp: ">=", Value: float64(40)}
	for _, req := range []server.QueryRequest{
		{Kind: server.KindCount, Eps: 0.1, Where: where},
		{Kind: server.KindHistogram, Eps: 0.1, Dims: []server.DomainSpec{{Attr: "Group"}}, Where: where},
	} {
		b.Run(req.Kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Query("", si.ID, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionQuantile measures Session.Quantile the way bench/'s
// mix-1m serves it: the 1M-row table under Age < 18, ε = 0.1, and the
// crypto/rand-backed source a production session uses. The first
// quantile of each attribute, which builds the partition's sorted runs,
// runs before the timer starts; Score has ~820k distinct values, so its
// runs are as long as the partition.
func BenchmarkSessionQuantile(b *testing.B) {
	tb := dataplaneBenchTable()
	sess := core.NewSession(tb, minorsPolicy(), 0, noise.NewSecureSource())
	for _, attr := range []string{"Age", "Score"} {
		b.Run(attr, func(b *testing.B) {
			if _, err := sess.Quantile(attr, 0.5, 0.1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Quantile(attr, 0.5, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRegisterTable registers the 1M-row data-plane table (64-group
// Group, Age 0..99 and a float Score with ~1M distinct values) under an
// Age < 18 policy, the shape of bench/'s mix-1m. Each iteration registers
// a fresh Clone (which shares the columns but not the split cache), so it
// pays the policy partition, the capped distinct pass per attribute and
// the bin-id vectors of the two small domains. The Score pass stops at
// the 2^16 domain cap; its allocations stay O(cap), not O(rows).
func BenchmarkRegisterTable(b *testing.B) {
	tb := dataplaneBenchTable()
	pol := minorsPolicy()
	srv := server.New(server.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := tb.Clone()
		b.StartTimer()
		if err := srv.RegisterTable(fmt.Sprintf("d%d", i), t, pol); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServerHistogramQueryAllocs pins the "no per-record allocation"
// property of the serving path: allocations per histogram query must not
// grow with the table (a per-record map would add one entry per matching
// record). Compared across a 64x row-count spread with generous slack,
// under an identity policy (every row non-sensitive) and under the
// Age < 18 partition that bench/'s mix-1m serves.
func TestServerHistogramQueryAllocs(t *testing.T) {
	policies := []dataset.Policy{dataset.AllNonSensitive(), minorsPolicy()}
	allocsFor := func(rows int, pol dataset.Policy) float64 {
		tb := newDataplaneTable(rows, 16, 2)
		srv := server.New(server.Config{AllowSeededSessions: true})
		if err := srv.RegisterTable("d", tb, pol); err != nil {
			t.Fatal(err)
		}
		seed := int64(11)
		si, err := srv.OpenSession("", server.OpenSessionRequest{Dataset: "d", Budget: 0, Seed: &seed})
		if err != nil {
			t.Fatal(err)
		}
		req := server.QueryRequest{
			Kind: server.KindHistogram,
			Eps:  0.5,
			Dims: []server.DomainSpec{{Attr: "Group"}},
			Where: &server.PredicateSpec{
				Op: "cmp", Attr: "Age", Cmp: ">=", Value: float64(18),
			},
		}
		if _, err := srv.Query("", si.ID, req); err != nil { // warm caches
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := srv.Query("", si.ID, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, pol := range policies {
		small, large := allocsFor(1000, pol), allocsFor(64000, pol)
		if large > small+64 {
			t.Errorf("%s: allocations grew with table size: %v at 1k rows vs %v at 64k rows", pol.Name(), small, large)
		}
		if large > 1000 {
			t.Errorf("%s: histogram query allocates %v objects/op; per-record work has crept back in", pol.Name(), large)
		}
	}
}

// TestRowVsColumnarAgree guards the benchmark's two paths against
// divergence: identical counts, whatever the speed.
func TestRowVsColumnarAgree(t *testing.T) {
	tb := newDataplaneTable(20000, 32, 3)
	where := dataplaneWhere()
	ref := rowReferenceGroupCount(tb, tb.Records(), where, "Group")
	q := histogram.NewQuery(where, histogram.DomainFromTable(tb, "Group"))
	h := q.Eval(tb)
	for i := 0; i < h.Bins(); i++ {
		label := h.Label(i)
		if int(h.Count(i)) != ref[label] {
			t.Fatalf("group %q: columnar %v vs row %d", label, h.Count(i), ref[label])
		}
	}
	total := 0
	for _, n := range ref {
		total += n
	}
	if int(h.Scale()) != total {
		t.Fatalf("mass mismatch: %v vs %d", h.Scale(), total)
	}
}

// --- Mechanism micro-benchmarks over the DPBench domain (4096 bins). ---

func benchHistogram() *histogram.Histogram {
	spec, err := dpbench.SpecByName("Adult")
	if err != nil {
		panic(err)
	}
	return spec.Generate(1)
}

func BenchmarkMechanism_LaplaceHistogram4096(b *testing.B) {
	x := benchHistogram()
	src := noise.NewSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mechanism.LaplaceHistogram(x, 1.0, src)
	}
}

func BenchmarkMechanism_OsdpLaplaceL1_4096(b *testing.B) {
	x := benchHistogram()
	src := noise.NewSource(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.OsdpLaplaceL1(x, 1.0, src)
	}
}

func BenchmarkMechanism_RRSampleHistogram4096(b *testing.B) {
	x := benchHistogram()
	src := noise.NewSource(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RRSampleHistogram(x, 1.0, src)
	}
}

func BenchmarkMechanism_DAWA4096(b *testing.B) {
	x := benchHistogram()
	src := noise.NewSource(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dawa.New().Estimate(x, 1.0, src)
	}
}

func BenchmarkMechanism_DAWAz4096(b *testing.B) {
	x := benchHistogram()
	src := noise.NewSource(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dawa.DAWAz(x, x, 1.0, 0.1, src)
	}
}

func BenchmarkNoise_Laplace(b *testing.B) {
	src := noise.NewSource(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		noise.Laplace(src, 1.0)
	}
}

func BenchmarkNoise_OneSidedLaplace(b *testing.B) {
	src := noise.NewSource(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		noise.OneSidedLaplace(src, 1.0)
	}
}

// BenchmarkParallelScan runs the filtered group-by scan (the same
// workload as BenchmarkRowVsColumnar's columnar arm) serially and
// sharded across the scan worker pool. The acceptance bar for the
// parallel data plane is >= 2x on this workload at 4+ workers on a
// machine with 4+ CPUs; on fewer CPUs the parallel arm measures pool
// overhead instead (speedup is bounded by min(workers, CPUs)).
func BenchmarkParallelScan(b *testing.B) {
	tb := dataplaneBenchTable()
	where := dataplaneWhere()
	q := histogram.NewQuery(where, histogram.DomainFromTable(tb, "Group"))
	prev := dataset.ScanWorkers()
	defer dataset.SetScanWorkers(prev)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			dataset.SetScanWorkers(workers)
			q.Eval(tb) // warm the cached bin vector, as a serving registry would
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := q.Eval(tb)
				if h.Scale() == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// TestParallelScanAllocs pins the parallel path's allocation discipline:
// per-query allocations are bounded per QUERY (pool dispatch, chunk
// scratch, per-worker partial histograms), never per row. Compared
// across a 4x spread of multi-chunk row counts with generous slack.
func TestParallelScanAllocs(t *testing.T) {
	prev := dataset.ScanWorkers()
	defer dataset.SetScanWorkers(prev)
	dataset.SetScanWorkers(8)
	allocsFor := func(rows int) float64 {
		tb := newDataplaneTable(rows, 16, 2)
		where := dataplaneWhere()
		q := histogram.NewQuery(where, histogram.DomainFromTable(tb, "Group"))
		q.Eval(tb) // warm the bin vector
		return testing.AllocsPerRun(10, func() {
			if q.Eval(tb).Scale() == 0 {
				t.Fatal("empty result")
			}
		})
	}
	small, large := allocsFor(2*65536), allocsFor(8*65536)
	if large > small*2+64 {
		t.Errorf("parallel scan allocations grew with table size: %v at 128k rows vs %v at 512k rows", small, large)
	}
	if large > 2000 {
		t.Errorf("parallel scan allocates %v objects/op; per-row work has crept in", large)
	}
}

// TestParallelScanAgreesAtFullScale runs the differential guarantee at
// benchmark scale: the parallel scan must reproduce the serial scan
// bin for bin on the shared 1M-row table (the unit-level differential
// tests cover fuzzed shapes; this covers the real benchmark substrate).
func TestParallelScanAgreesAtFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row differential check is slow")
	}
	tb := dataplaneBenchTable()
	where := dataplaneWhere()
	q := histogram.NewQuery(where, histogram.DomainFromTable(tb, "Group"))
	prev := dataset.ScanWorkers()
	defer dataset.SetScanWorkers(prev)
	dataset.SetScanWorkers(1)
	serial := q.Eval(tb)
	dataset.SetScanWorkers(8)
	parallel := q.Eval(tb)
	for i := 0; i < serial.Bins(); i++ {
		if serial.Count(i) != parallel.Count(i) {
			t.Fatalf("bin %d: serial %v vs parallel %v", i, serial.Count(i), parallel.Count(i))
		}
	}
}
