package core

import (
	"math"
	"testing"
	"testing/quick"

	"osdp/internal/dataset"
	"osdp/internal/histogram"
	"osdp/internal/noise"
)

// Test fixtures: a tiny universe of "person" records where minors are
// sensitive, mirroring the paper's first policy example.

func testSchema() *dataset.Schema {
	return dataset.NewSchema(
		dataset.Field{Name: "ID", Kind: dataset.KindInt},
		dataset.Field{Name: "Age", Kind: dataset.KindInt},
	)
}

func rec(s *dataset.Schema, id, age int64) dataset.Record {
	return dataset.NewRecord(s, dataset.Int(id), dataset.Int(age))
}

func minorsPolicy() dataset.Policy {
	return dataset.NewPolicy("minors", dataset.Cmp("Age", dataset.OpLe, dataset.Int(17)))
}

func testDB(s *dataset.Schema, ages ...int64) *dataset.Table {
	db := dataset.NewTable(s)
	for i, a := range ages {
		db.Append(rec(s, int64(i), a))
	}
	return db
}

func TestRRReleasesOnlyNonSensitive(t *testing.T) {
	s := testSchema()
	db := testDB(s, 12, 30, 16, 45, 50)
	m := NewRR(minorsPolicy(), 5) // high eps: keep nearly everything
	src := noise.NewSource(1)
	for trial := 0; trial < 50; trial++ {
		out := m.Release(db, src)
		for _, r := range out.Records() {
			if r.Get("Age").AsInt() <= 17 {
				t.Fatalf("released sensitive record age %d", r.Get("Age").AsInt())
			}
		}
	}
}

func TestRROutputIsSubMultiset(t *testing.T) {
	s := testSchema()
	db := testDB(s, 20, 20, 20, 33, 41)
	m := NewRR(minorsPolicy(), 1)
	src := noise.NewSource(2)
	in := db.Multiset()
	for trial := 0; trial < 100; trial++ {
		out := m.Release(db, src).Multiset()
		for k, c := range out {
			if c > in[k] {
				t.Fatalf("output multiplicity %d exceeds input %d for %q", c, in[k], k)
			}
		}
	}
}

func TestRRKeepRateMatchesTable1(t *testing.T) {
	// Table 1: ε=1 → ~63%, ε=0.5 → ~39%, ε=0.1 → ~9.5%.
	s := testSchema()
	const n = 20000
	ages := make([]int64, n)
	for i := range ages {
		ages[i] = 30 // all non-sensitive
	}
	db := testDB(s, ages...)
	src := noise.NewSource(3)
	for _, c := range []struct{ eps, want float64 }{{1, 0.632}, {0.5, 0.393}, {0.1, 0.095}} {
		m := NewRR(minorsPolicy(), c.eps)
		out := m.Release(db, src)
		got := float64(out.Len()) / n
		if math.Abs(got-c.want) > 0.015 {
			t.Errorf("eps=%v: release rate %v, want ~%v", c.eps, got, c.want)
		}
		if want := m.ExpectedSampleSize(n); math.Abs(want-c.want*n) > 0.01*n {
			t.Errorf("eps=%v: ExpectedSampleSize %v", c.eps, want)
		}
	}
}

func TestRRPanicsOnBadEps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("eps=0 did not panic")
		}
	}()
	NewRR(minorsPolicy(), 0)
}

func TestRRGuaranteeAndName(t *testing.T) {
	m := NewRR(minorsPolicy(), 0.7)
	g := m.Guarantee()
	if g.Epsilon != 0.7 || g.Policy.Name() != "minors" {
		t.Errorf("Guarantee = %v", g)
	}
	if m.Name() != "OsdpRR" {
		t.Errorf("Name = %q", m.Name())
	}
	if got := g.String(); got != "(minors, 0.7)-OSDP" {
		t.Errorf("Guarantee.String = %q", got)
	}
}

func TestRRInverseProbabilityScale(t *testing.T) {
	m := NewRR(minorsPolicy(), 1)
	want := 1 / (1 - math.Exp(-1))
	if got := m.InverseProbabilityScale(); math.Abs(got-want) > 1e-12 {
		t.Errorf("scale = %v, want %v", got, want)
	}
}

// Empirical verification of Theorem 4.1: for a single-record database and a
// sensitive record r vs any replacement r', the probability of every output
// differs by at most e^ε.
func TestRRPrivacyRatioSingleRecord(t *testing.T) {
	s := testSchema()
	pol := minorsPolicy()
	const eps = 0.8
	const trials = 300000
	m := NewRR(pol, eps)
	src := noise.NewSource(4)

	suppressProb := func(age int64) float64 {
		db := testDB(s, age)
		suppressed := 0
		for i := 0; i < trials; i++ {
			if m.Release(db, src).Len() == 0 {
				suppressed++
			}
		}
		return float64(suppressed) / trials
	}

	// Case 2.2 of the proof: r sensitive (always suppressed), r' non-sensitive.
	pSens := suppressProb(10) // sensitive: suppression prob must be 1
	pNS := suppressProb(30)   // non-sensitive: suppression prob e^-ε
	if pSens != 1 {
		t.Fatalf("sensitive record suppressed with prob %v, want 1", pSens)
	}
	wantNS := math.Exp(-eps)
	if math.Abs(pNS-wantNS) > 0.01 {
		t.Fatalf("non-sensitive suppression prob %v, want ~%v", pNS, wantNS)
	}
	ratio := pSens / pNS
	if ratio > math.Exp(eps)*1.05 {
		t.Errorf("privacy ratio %v exceeds e^eps = %v", ratio, math.Exp(eps))
	}
	// Case 2.1: both sensitive — ratio exactly 1.
	if p2 := suppressProb(5); p2 != 1 {
		t.Errorf("second sensitive record suppression prob %v", p2)
	}
}

func TestRRExpectedL1Error(t *testing.T) {
	// With no sensitive records the error floor is n·e^-ε.
	got := RRExpectedL1Error(1000, 0, 1)
	want := 1000 * math.Exp(-1)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("RRExpectedL1Error = %v, want %v", got, want)
	}
	// Sensitive records each add 1.
	if diff := RRExpectedL1Error(1000, 100, 1) - (100 + 900*math.Exp(-1)); math.Abs(diff) > 1e-9 {
		t.Errorf("sensitive contribution off by %v", diff)
	}
}

func TestCrossoverTheorem51(t *testing.T) {
	// Paper's example: d = 10^4 bins, ε = 0.1 → RR worse when n > 2.2×10^5.
	d := 10000
	eps := 0.1
	if RRWorseThanLaplace(220000, d, eps) {
		t.Error("n=2.2e5 should sit at/below the crossover")
	}
	if !RRWorseThanLaplace(250000, d, eps) {
		t.Error("n=2.5e5 should be past the crossover")
	}
	// Exact threshold: n·ε = 2d·e^ε → n = 2d·e^ε/ε.
	threshold := 2 * float64(d) * math.Exp(eps) / eps
	if RRWorseThanLaplace(int(threshold)-1, d, eps) {
		t.Error("just below threshold misclassified")
	}
	if !RRWorseThanLaplace(int(threshold)+1, d, eps) {
		t.Error("just above threshold misclassified")
	}
}

func TestLaplaceExpectedL1Error(t *testing.T) {
	if got := LaplaceExpectedL1Error(100, 0.5); got != 400 {
		t.Errorf("LaplaceExpectedL1Error = %v", got)
	}
}

// Property: for random databases and eps, RR output size never exceeds the
// number of non-sensitive records, and sensitive records never leak.
func TestRRInvariantsQuick(t *testing.T) {
	s := testSchema()
	pol := minorsPolicy()
	src := noise.NewSource(5)
	f := func(agesRaw []uint8, epsRaw uint8) bool {
		if len(agesRaw) == 0 {
			return true
		}
		db := dataset.NewTable(s)
		nNS := 0
		for i, a := range agesRaw {
			age := int64(a % 80)
			db.Append(rec(s, int64(i), age))
			if age > 17 {
				nNS++
			}
		}
		eps := float64(epsRaw%50)/10 + 0.1
		out := NewRR(pol, eps).Release(db, src)
		if out.Len() > nNS {
			return false
		}
		for _, r := range out.Records() {
			if r.Get("Age").AsInt() <= 17 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// RRSampleHistogram is exactly OsdpRR bin by bin: each bin is the number
// of records the keep loop keeps, at every bin size, including bins whose
// variance n·p·(1−p) is far above 100.
func TestRRSampleHistogramIsKeepLoopCount(t *testing.T) {
	const eps = 1.0
	counts := []float64{0, 1, 3, 40, 5000, 100000}
	p := noise.KeepProbability(eps)
	if v := counts[len(counts)-1] * p * (1 - p); v <= 100 {
		t.Fatalf("largest bin variance %.1f, want > 100", v)
	}
	x := histogram.New(len(counts))
	for i, c := range counts {
		x.SetCount(i, c)
	}
	got := RRSampleHistogram(x, eps, noise.NewSource(11))
	src := noise.NewSource(11)
	for i, c := range counts {
		if want := float64(len(rrKeep(int(c), eps, src))); got.Count(i) != want {
			t.Errorf("bin %d (n=%v): %v, want the keep loop's %v", i, c, got.Count(i), want)
		}
	}
}
