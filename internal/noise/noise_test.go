package noise

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

const statN = 200_000 // samples per statistical test

func sampleStats(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

func TestLaplaceMeanAndVariance(t *testing.T) {
	src := NewSource(1)
	for _, b := range []float64{0.5, 1, 2, 10} {
		xs := LaplaceVec(src, b, statN)
		mean, variance := sampleStats(xs)
		if math.Abs(mean) > 4*b*math.Sqrt2/math.Sqrt(statN)*3 {
			t.Errorf("Laplace(b=%v): mean %v too far from 0", b, mean)
		}
		want := 2 * b * b
		if math.Abs(variance-want)/want > 0.05 {
			t.Errorf("Laplace(b=%v): variance %v, want ~%v", b, variance, want)
		}
	}
}

func TestLaplaceSymmetry(t *testing.T) {
	src := NewSource(2)
	pos := 0
	for i := 0; i < statN; i++ {
		if Laplace(src, 1) > 0 {
			pos++
		}
	}
	frac := float64(pos) / statN
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("Laplace positive fraction %v, want ~0.5", frac)
	}
}

func TestLaplacePanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive scale")
		}
	}()
	Laplace(NewSource(1), 0)
}

func TestOneSidedLaplaceNonPositive(t *testing.T) {
	src := NewSource(3)
	for i := 0; i < statN; i++ {
		if x := OneSidedLaplace(src, 1.7); x > 0 {
			t.Fatalf("one-sided Laplace sample %v > 0", x)
		}
	}
}

func TestOneSidedLaplaceMeanMedian(t *testing.T) {
	src := NewSource(4)
	for _, lam := range []float64{0.5, 1, 3} {
		xs := OneSidedLaplaceVec(src, lam, statN)
		mean, variance := sampleStats(xs)
		if math.Abs(mean-(-lam))/lam > 0.02 {
			t.Errorf("Lap-(%v): mean %v, want ~%v", lam, mean, -lam)
		}
		// Exponential variance is λ².
		if math.Abs(variance-lam*lam)/(lam*lam) > 0.05 {
			t.Errorf("Lap-(%v): variance %v, want ~%v", lam, variance, lam*lam)
		}
		sort.Float64s(xs)
		med := xs[len(xs)/2]
		want := OneSidedLaplaceMedian(lam)
		if math.Abs(med-want)/lam > 0.02 {
			t.Errorf("Lap-(%v): median %v, want ~%v", lam, med, want)
		}
	}
}

// The headline variance claim of §5.1: one-sided Laplace noise at OSDP
// sensitivity 1 has 1/8 the variance of DP Laplace noise at sensitivity 2.
func TestVarianceRatioOneEighth(t *testing.T) {
	const eps = 1.0
	src := NewSource(5)
	osdp := OneSidedLaplaceVec(src, 1/eps, statN)
	dp := LaplaceVec(src, 2/eps, statN)
	_, vOSDP := sampleStats(osdp)
	_, vDP := sampleStats(dp)
	ratio := vOSDP / vDP
	if math.Abs(ratio-0.125)/0.125 > 0.1 {
		t.Errorf("variance ratio %v, want ~1/8", ratio)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	src := NewSource(6)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < statN; i++ {
			if Bernoulli(src, p) {
				hits++
			}
		}
		frac := float64(hits) / statN
		if math.Abs(frac-p) > 0.01 {
			t.Errorf("Bernoulli(%v): frequency %v", p, frac)
		}
	}
}

func TestBernoulliClamps(t *testing.T) {
	src := NewSource(7)
	if Bernoulli(src, -0.5) {
		t.Error("Bernoulli(-0.5) returned true")
	}
	if !Bernoulli(src, 1.5) {
		t.Error("Bernoulli(1.5) returned false")
	}
}

func TestGeometricSymmetryAndZeroMass(t *testing.T) {
	src := NewSource(8)
	alpha := math.Exp(-1.0) // ε=1, Δ=1
	var pos, neg, zero int
	for i := 0; i < statN; i++ {
		switch k := Geometric(src, alpha); {
		case k > 0:
			pos++
		case k < 0:
			neg++
		default:
			zero++
		}
	}
	if math.Abs(float64(pos-neg))/statN > 0.01 {
		t.Errorf("geometric asymmetric: %d pos vs %d neg", pos, neg)
	}
	wantZero := (1 - alpha) / (1 + alpha)
	if got := float64(zero) / statN; math.Abs(got-wantZero) > 0.01 {
		t.Errorf("Pr[X=0] = %v, want ~%v", got, wantZero)
	}
}

func TestGeometricPanicsOnBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, 1, -1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(alpha=%v) did not panic", alpha)
				}
			}()
			Geometric(NewSource(1), alpha)
		}()
	}
}

func TestGaussianMoments(t *testing.T) {
	src := NewSource(9)
	xs := make([]float64, statN)
	for i := range xs {
		xs[i] = Gaussian(src, 2.5)
	}
	mean, variance := sampleStats(xs)
	if math.Abs(mean) > 0.05 {
		t.Errorf("Gaussian mean %v", mean)
	}
	if math.Abs(variance-6.25)/6.25 > 0.05 {
		t.Errorf("Gaussian variance %v, want ~6.25", variance)
	}
}

func TestExponentialMean(t *testing.T) {
	src := NewSource(10)
	var sum float64
	for i := 0; i < statN; i++ {
		x := Exponential(src, 0.25)
		if x < 0 {
			t.Fatalf("exponential sample %v < 0", x)
		}
		sum += x
	}
	mean := sum / statN
	if math.Abs(mean-4)/4 > 0.03 {
		t.Errorf("Exponential(0.25) mean %v, want ~4", mean)
	}
}

// Table 1 of the paper: keep probabilities at ε = 1, 0.5, 0.1.
func TestKeepProbabilityTable1(t *testing.T) {
	cases := []struct{ eps, want float64 }{
		{1.0, 0.632},
		{0.5, 0.393},
		{0.1, 0.095},
	}
	for _, c := range cases {
		if got := KeepProbability(c.eps); math.Abs(got-c.want) > 0.001 {
			t.Errorf("KeepProbability(%v) = %v, want ~%v", c.eps, got, c.want)
		}
	}
}

// KeepGap is the waiting time of Bernoulli(1−e^(−ε)) keeps: its tail
// Pr[gap ≥ k] is e^(−kε), and a tiny ε gives a huge but finite gap.
func TestKeepGapTail(t *testing.T) {
	src := NewSource(11)
	const eps = 0.5
	tail := make([]int, 5)
	for i := 0; i < statN; i++ {
		g := KeepGap(src, eps)
		if g < 0 || g != math.Floor(g) {
			t.Fatalf("KeepGap = %v, want a non-negative integer", g)
		}
		for k := range tail {
			if g >= float64(k) {
				tail[k]++
			}
		}
	}
	for k, n := range tail {
		want := math.Exp(-float64(k) * eps)
		if got := float64(n) / statN; math.Abs(got-want) > 0.01 {
			t.Errorf("Pr[gap >= %d] = %v, want ~%v", k, got, want)
		}
	}
	if g := KeepGap(constUniform(0.5), 1e-300); math.IsInf(g, 0) || g < 1e299 {
		t.Errorf("KeepGap at eps=1e-300 = %v, want finite and huge", g)
	}
	if g := KeepGap(constUniform(0.999999), 40); g != 0 {
		t.Errorf("KeepGap at eps=40 = %v, want 0 (keep every record)", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("KeepGap(eps=0) did not panic")
		}
	}()
	KeepGap(src, 0)
}

// constUniform is a Source that always returns the same uniform.
type constUniform float64

func (c constUniform) Float64() float64 { return float64(c) }

// Property: one-sided Laplace samples are never positive, for any scale.
func TestOneSidedLaplaceNeverPositiveQuick(t *testing.T) {
	src := NewSource(11)
	f := func(rawLambda float64, _ uint8) bool {
		lambda := math.Abs(rawLambda)
		if lambda == 0 || math.IsInf(lambda, 0) || math.IsNaN(lambda) {
			return true
		}
		return OneSidedLaplace(src, lambda) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Laplace inverse-CDF is finite for any positive scale.
func TestLaplaceFiniteQuick(t *testing.T) {
	src := NewSource(12)
	f := func(rawB float64) bool {
		b := math.Abs(rawB)
		if b == 0 || math.IsInf(b, 0) || math.IsNaN(b) || b > 1e300 {
			return true // ln(1-2u) can push astronomically large scales to ±Inf
		}
		x := Laplace(src, b)
		return !math.IsNaN(x) && !math.IsInf(x, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Empirical check that Laplace noise actually delivers ε-indistinguishability
// for a count query: compare densities at shifted points.
func TestLaplaceDPRatio(t *testing.T) {
	// For the Laplace mechanism the ratio of output densities between
	// neighboring counts (differing by sensitivity) is bounded by e^ε.
	// Verify via histogram of samples around two shifted means.
	const eps = 0.8
	src := NewSource(13)
	binW := 0.25
	hist := func(shift float64) map[int]int {
		h := make(map[int]int)
		for i := 0; i < statN; i++ {
			x := shift + Laplace(src, 1/eps)
			h[int(math.Floor(x/binW))]++
		}
		return h
	}
	h0, h1 := hist(0), hist(1)
	bound := math.Exp(eps)
	for bin, c0 := range h0 {
		c1 := h1[bin]
		if c0 < 500 || c1 < 500 {
			continue // too few samples for a stable ratio
		}
		ratio := float64(c0) / float64(c1)
		if ratio > bound*1.25 || ratio < 1/(bound*1.25) {
			t.Errorf("bin %d: ratio %v outside e^±ε=%v (with slack)", bin, ratio, bound)
		}
	}
}

// FillUniform on a source without a bulk fill, plain or Locked, hands
// out exactly the values of successive Float64 calls.
func TestFillUniformFallbackOrder(t *testing.T) {
	for _, src := range []Source{NewSource(5), Locked(NewSource(5))} {
		want := NewSource(5)
		dst := make([]float64, 100)
		FillUniform(src, dst)
		for i, u := range dst {
			if w := want.Float64(); u != w {
				t.Fatalf("%T: value %d = %v, want %v", src, i, u, w)
			}
		}
	}
}
