package core

import (
	"fmt"
	"math"
	"testing"

	"osdp/internal/noise"
)

// keepKernel is the shape of rrKeep, so the distribution checks below
// can run against deliberately wrong kernels too.
type keepKernel func(n int, eps float64, src noise.Source) []int32

// checkKeepDistribution runs kernel trials times over n records and
// checks what OsdpRR requires of its keep loop: positions strictly
// increasing in [0, n), a total kept count within a z-bound of
// Binomial(n·trials, 1−e^(−ε)), and per-position keep counts, each
// Binomial(trials, 1−e^(−ε)), passing a chi-square test for uniformity.
// It returns the first check that fails, or nil.
func checkKeepDistribution(kernel keepKernel, n int, eps float64, trials int, src noise.Source) error {
	const z = 5 // two-sided bound on a standard normal statistic
	p := noise.KeepProbability(eps)
	perPos := make([]int, n)
	total := 0
	for trial := 0; trial < trials; trial++ {
		prev := int32(-1)
		for _, pos := range kernel(n, eps, src) {
			if pos <= prev || int(pos) >= n {
				return fmt.Errorf("position %d after %d, want strictly increasing in [0, %d)", pos, prev, n)
			}
			prev = pos
			perPos[pos]++
			total++
		}
	}

	mean := float64(n) * float64(trials) * p
	variance := mean * (1 - p)
	if variance == 0 {
		if float64(total) != mean {
			return fmt.Errorf("kept %d records, want exactly %v", total, mean)
		}
	} else if dev := (float64(total) - mean) / math.Sqrt(variance); math.Abs(dev) > z {
		return fmt.Errorf("kept %d records, Binomial mean %.1f: z = %.2f", total, mean, dev)
	}

	// The chi-square approximation needs a handful of expected keeps and
	// suppressions per position; the extreme ε cases are settled by the
	// count check above.
	perMean := float64(trials) * p
	if perMean < 5 || float64(trials)-perMean < 5 {
		return nil
	}
	chi2 := 0.0
	for _, c := range perPos {
		d := float64(c) - perMean
		chi2 += d * d / (perMean * (1 - p))
	}
	if limit := chiSquareUpper(n, z); chi2 > limit {
		return fmt.Errorf("per-position chi-square %.1f over %d positions exceeds %.1f", chi2, n, limit)
	}
	return nil
}

// chiSquareUpper approximates the upper quantile of χ²(df) that lies z
// standard normal deviations out (Wilson–Hilferty).
func chiSquareUpper(df int, z float64) float64 {
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// keepCases span the ε range the server accepts: a tiny ε keeps nothing
// (and must not overflow the gap), ε = 40 keeps everything.
var keepCases = []struct {
	n      int
	eps    float64
	trials int
}{
	{n: 1000, eps: 0.5, trials: 2000},
	{n: 300, eps: 0.1, trials: 3000},
	{n: 50, eps: 2, trials: 4000},
	{n: 1, eps: 1, trials: 20000},
	{n: 5000, eps: 1e-9, trials: 50},
	{n: 500, eps: 40, trials: 50},
}

func TestRRKeepDistribution(t *testing.T) {
	src := noise.NewSource(31)
	for _, c := range keepCases {
		if err := checkKeepDistribution(rrKeep, c.n, c.eps, c.trials, src); err != nil {
			t.Errorf("rrKeep(n=%d, ε=%g): %v", c.n, c.eps, err)
		}
	}
	if kept := rrKeep(1<<20, 1e-9, constSource(0.5)); len(kept) != 0 {
		t.Errorf("rrKeep at ε=1e-9 kept %d of 2^20 records, want 0", len(kept))
	}
	if kept := rrKeep(100, 40, constSource(1-1e-12)); len(kept) != 100 {
		t.Errorf("rrKeep at ε=40 kept %d of 100 records, want all", len(kept))
	}
}

// The checks must reject wrong kernels, so their power is known: one
// that draws its gaps at ε/2 (the count check fails), and one that keeps
// the right number of records but always the first ones (the chi-square
// check fails).
func TestRRKeepDistributionNegativeControls(t *testing.T) {
	halfEps := func(n int, eps float64, src noise.Source) []int32 {
		return rrKeep(n, eps/2, src)
	}
	frontLoaded := func(n int, eps float64, src noise.Source) []int32 {
		kept := rrKeep(n, eps, src)
		for i := range kept {
			kept[i] = int32(i)
		}
		return kept
	}
	src := noise.NewSource(32)
	for _, c := range keepCases[:3] {
		if err := checkKeepDistribution(halfEps, c.n, c.eps, c.trials, src); err == nil {
			t.Errorf("ε/2 kernel passed at n=%d, ε=%g", c.n, c.eps)
		}
		if err := checkKeepDistribution(frontLoaded, c.n, c.eps, c.trials, src); err == nil {
			t.Errorf("front-loaded kernel passed at n=%d, ε=%g", c.n, c.eps)
		}
	}
}
