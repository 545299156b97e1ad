package core

import (
	"osdp/internal/histogram"
	"osdp/internal/noise"
)

// This file implements §5.2: the general recipe for upgrading a two-phase
// DP histogram algorithm into an OSDP algorithm that exploits non-sensitive
// records, and its instantiation DAWAz (Algorithm 3).
//
// A "two-phase" DP algorithm first learns a model of the data (for DAWA, a
// partition of the domain into near-uniform buckets) and then spends the
// remaining budget adding Laplace noise to the model's aggregate counts.
// The recipe runs an OSDP primitive on the non-sensitive histogram with a
// small slice ρ·ε of the budget to detect zero-count bins, runs the DP
// algorithm with the rest, zeroes the detected bins in the DP estimate, and
// redistributes the removed mass within each model partition. Sequential
// composition (Theorem 3.3) gives (P, ε)-OSDP for the whole pipeline.

// Partition is a contiguous, inclusive bin interval [Lo, Hi] of a
// histogram domain, as produced by DAWA's phase 1.
type Partition struct {
	Lo, Hi int
}

// Size returns the number of bins the partition spans.
func (p Partition) Size() int { return p.Hi - p.Lo + 1 }

// PartitionedEstimator is a two-phase DP histogram algorithm in the sense
// of §5.2: it returns both its private estimate and the data model —
// the partition structure — it learned. The DAWA implementation in
// internal/dawa satisfies it.
type PartitionedEstimator interface {
	// Estimate releases an eps-DP estimate of x together with the learned
	// partitioning of the domain (a disjoint cover, in order).
	Estimate(x *histogram.Histogram, eps float64, src noise.Source) (*histogram.Histogram, []Partition)
	// Name is a short display name.
	Name() string
}

// ZeroDetector estimates, under (P, eps)-OSDP, the set of zero-count bins
// of the full histogram by examining a histogram over non-sensitive records
// only. Implementations over-report zeros when sensitive records hide in
// bins with no non-sensitive ones; the recipe tolerates that (the paper
// observes over-reporting zeros beats adding high-scale noise at small ε).
type ZeroDetector func(xns *histogram.Histogram, eps float64, src noise.Source) []int

// LaplaceZeroDetector finds zero bins via OsdpLaplaceL1: after clamping,
// any bin reported 0 joins the zero set. This is the detector Algorithm 3
// line 3 suggests with Osdp = OsdpLaplaceL1.
func LaplaceZeroDetector(xns *histogram.Histogram, eps float64, src noise.Source) []int {
	return OsdpLaplaceL1(xns, eps, src).ZeroBins()
}

// RRZeroDetector finds zero bins by releasing a true OsdpRR-style sample of
// the non-sensitive bin mass: each unit of count survives independently
// with probability 1−e^(−ε), and bins with no surviving mass are reported
// zero. This is the subroutine the paper's experiments use (§6.3.3:
// "we used ρ = 0.1 fraction of the privacy budget to run OsdpRR").
func RRZeroDetector(xns *histogram.Histogram, eps float64, src noise.Source) []int {
	var zeros []int
	for i := 0; i < xns.Bins(); i++ {
		// No unit survives exactly when the first keep gap reaches past
		// all n of them: Pr = e^(−nε), as for n suppressed coin flips.
		if n := int(xns.Count(i)); n == 0 || noise.KeepGap(src, eps) >= float64(n) {
			zeros = append(zeros, i)
		}
	}
	return zeros
}

// RecipeConfig parameterises the §5.2 recipe.
type RecipeConfig struct {
	// Rho is the budget fraction spent on zero detection (paper: 0.1).
	Rho float64
	// Detect is the OSDP zero detector; nil defaults to RRZeroDetector.
	Detect ZeroDetector
}

// Recipe applies the §5.2 construction: x is the full histogram, xns the
// histogram over non-sensitive records, eps the total budget. The result
// satisfies (P, ε)-OSDP by sequential composition; the zero-set step is
// (P, ρε)-OSDP and the estimator run is (1−ρ)ε-DP (hence OSDP for any P).
func Recipe(est PartitionedEstimator, x, xns *histogram.Histogram, eps float64, cfg RecipeConfig, src noise.Source) *histogram.Histogram {
	if x.Bins() != xns.Bins() {
		panic("core: x and xns disagree on domain size")
	}
	detect := cfg.Detect
	if detect == nil {
		detect = RRZeroDetector
	}
	epsZero, epsDP := SplitBudget(eps, cfg.Rho)

	zeros := detect(xns, epsZero, src)
	estimate, parts := est.Estimate(x, epsDP, src)
	return ApplyZeroSet(estimate, parts, zeros)
}

// ApplyZeroSetGroups is the recipe's post-processing generalised to
// arbitrary bin groups (AHP's value clusters, AGrid's grid cells): bins in
// zeroSet are zeroed and each group's surviving bins are rescaled to keep
// the group's estimated total. Groups must be disjoint; bins outside every
// group are left untouched.
func ApplyZeroSetGroups(estimate *histogram.Histogram, groups [][]int, zeroSet []int) *histogram.Histogram {
	out := estimate.Clone()
	inZero := make([]bool, out.Bins())
	for _, z := range zeroSet {
		inZero[z] = true
	}
	for _, g := range groups {
		zeroed := 0
		for _, i := range g {
			if inZero[i] {
				zeroed++
			}
		}
		if zeroed == 0 {
			continue
		}
		if zeroed == len(g) {
			for _, i := range g {
				out.SetCount(i, 0)
			}
			continue
		}
		ratio := float64(len(g)) / float64(len(g)-zeroed)
		for _, i := range g {
			if inZero[i] {
				out.SetCount(i, 0)
			} else {
				out.SetCount(i, out.Count(i)*ratio)
			}
		}
	}
	return out
}

// ApplyZeroSet is the post-processing of Algorithm 3 lines 5–11: it zeroes
// the bins in zeroSet and, within each model partition, rescales the
// surviving bins so the partition keeps its estimated total mass. (The
// paper's line 9 prints the ratio as |B|/|Z∩B|, which divides by zero for
// partitions free of zeros; the accompanying text — "reallocates the mass
// … to the non replaced bins" — pins the intended ratio |B|/(|B|−|Z∩B|),
// which is what we use. Partitions entirely inside the zero set become
// zero.) Post-processing preserves the privacy guarantee.
func ApplyZeroSet(estimate *histogram.Histogram, parts []Partition, zeroSet []int) *histogram.Histogram {
	out := estimate.Clone()
	inZero := make([]bool, out.Bins())
	for _, z := range zeroSet {
		inZero[z] = true
	}
	for _, b := range parts {
		zeroed := 0
		for i := b.Lo; i <= b.Hi; i++ {
			if inZero[i] {
				zeroed++
			}
		}
		if zeroed == 0 {
			continue
		}
		size := b.Size()
		if zeroed == size {
			for i := b.Lo; i <= b.Hi; i++ {
				out.SetCount(i, 0)
			}
			continue
		}
		ratio := float64(size) / float64(size-zeroed)
		for i := b.Lo; i <= b.Hi; i++ {
			if inZero[i] {
				out.SetCount(i, 0)
			} else {
				out.SetCount(i, out.Count(i)*ratio)
			}
		}
	}
	return out
}
