package core

import (
	"math"

	"osdp/internal/dataset"
	"osdp/internal/histogram"
	"osdp/internal/noise"
)

// RR is the OsdpRR mechanism (Algorithm 1): it releases each non-sensitive
// record independently with probability 1 − e^(−ε) and suppresses every
// sensitive record. The output is a *true* sample of the non-sensitive
// data, which supports analyses that need unperturbed records
// (classification, extractive summaries, very-high-dimensional histograms)
// while still satisfying (P, ε)-OSDP (Theorem 4.1): suppression of a
// non-sensitive record happens with probability e^(−ε), exactly the
// likelihood ratio needed to hide whether a suppressed record was sensitive
// or a non-sensitive record that lost the coin flip.
type RR struct {
	policy dataset.Policy
	eps    float64
}

// NewRR builds an OsdpRR mechanism with the given policy and privacy
// parameter. It panics if eps <= 0.
func NewRR(policy dataset.Policy, eps float64) *RR {
	if eps <= 0 {
		panic("core: OsdpRR requires eps > 0")
	}
	return &RR{policy: policy, eps: eps}
}

// Release runs Algorithm 1 on db: it keeps records of db's non-sensitive
// partition (the cached db.Split) with rrKeep and returns them as a view
// sharing db's storage (copy-on-append).
func (m *RR) Release(db *dataset.Table, src noise.Source) *dataset.Table {
	_, ns := db.Split(m.policy)
	return ns.Take(rrKeep(ns.Len(), m.eps, src))
}

// rrKeep is OsdpRR's keep loop over n non-sensitive records: it returns
// the strictly increasing positions in [0, n) that are released, each
// kept independently with probability 1 − e^(−ε). It jumps from keep to
// keep by waiting times (noise.KeepGapFrom), which have exactly the
// distribution of the runs of suppressed records between Bernoulli keeps,
// so it draws one uniform per kept record instead of one per record.
func rrKeep(n int, eps float64, src noise.Source) []int32 {
	// Room for the mean keep count plus 4 standard deviations, so the
	// slice almost never grows.
	mean := float64(n) * noise.KeepProbability(eps)
	kept := make([]int32, 0, min(n, int(mean+4*math.Sqrt(mean)+1)))
	return appendKept(kept, n, eps, src, make([]float64, keepChunk))
}

// keepChunk caps how many uniforms the keep loop draws at once.
const keepChunk = 256

// appendKept runs the keep loop of rrKeep and appends the kept
// positions to kept. It draws its uniforms into buf (len(buf) ≥ 1) with
// noise.FillUniform, in chunks sized to the expected number of keeps
// still to come, plus the draw that ends the loop, capped at len(buf):
// a small n draws a few uniforms, not a whole chunk. Uniforms left over
// when the loop ends are discarded. That is exact: the stopping rule
// never looks at them, so the keeps are the same function of i.i.d.
// uniforms as with one draw per gap.
func appendKept(kept []int32, n int, eps float64, src noise.Source, buf []float64) []int32 {
	p := noise.KeepProbability(eps)
	var us []float64
	for next := 0; next < n; next++ {
		if len(us) == 0 {
			us = buf[:min(len(buf), int(math.Ceil(float64(n-next)*p))+1)]
			noise.FillUniform(src, us)
		}
		gap := noise.KeepGapFrom(us[0], eps)
		us = us[1:]
		if gap >= float64(n-next) {
			break
		}
		next += int(gap)
		kept = append(kept, int32(next))
	}
	return kept
}

// Guarantee reports (P, ε)-OSDP.
func (m *RR) Guarantee() Guarantee { return Guarantee{Policy: m.policy, Epsilon: m.eps} }

// Name implements Mechanism.
func (m *RR) Name() string { return "OsdpRR" }

// KeepProbability returns the per-record release probability 1 − e^(−ε).
func (m *RR) KeepProbability() float64 { return noise.KeepProbability(m.eps) }

// ExpectedSampleSize returns the expected number of released records when
// db has nNonSensitive non-sensitive records: nNonSensitive · (1 − e^(−ε)).
// The released size is Binomial(nNonSensitive, 1 − e^(−ε)) (Table 1).
func (m *RR) ExpectedSampleSize(nNonSensitive int) float64 {
	return float64(nNonSensitive) * m.KeepProbability()
}

// InverseProbabilityScale is the Horvitz–Thompson reweighting factor
// 1/(1 − e^(−ε)) that turns counts over the released sample into unbiased
// estimates of counts over the non-sensitive data.
func (m *RR) InverseProbabilityScale() float64 {
	return 1 / m.KeepProbability()
}

// RRSampleHistogram releases a histogram by applying OsdpRR to the records
// behind the non-sensitive histogram xns: every unit of count survives
// independently with probability 1 − e^(−ε), i.e. each bin becomes
// Binomial(xns_i, 1 − e^(−ε)). This is "running the query on the sample of
// non-sensitive records output by OsdpRR" (§5.1) and satisfies (P, ε)-OSDP
// because it is post-processing of the OsdpRR release. Each bin is the
// number of records rrKeep's loop keeps out of xns_i, so the draw is
// exact at every bin size; the bins share one uniform buffer and one
// scratch slice of kept positions.
func RRSampleHistogram(xns *histogram.Histogram, eps float64, src noise.Source) *histogram.Histogram {
	if eps <= 0 {
		panic("core: RRSampleHistogram requires eps > 0")
	}
	out := histogram.New(xns.Bins())
	buf := make([]float64, keepChunk)
	var kept []int32
	for i := 0; i < xns.Bins(); i++ {
		kept = appendKept(kept[:0], int(xns.Count(i)), eps, src, buf)
		out.SetCount(i, float64(len(kept)))
	}
	return out
}

// RRExpectedL1Error lower-bounds the expected L1 error of answering a
// histogram from the OsdpRR sample (proof of Theorem 5.1): even with no
// sensitive records, n·e^(−ε) non-sensitive records are suppressed, each
// contributing 1 to L1 error, plus every sensitive record is suppressed.
func RRExpectedL1Error(nTotal, nSensitive int, eps float64) float64 {
	ns := float64(nTotal - nSensitive)
	return float64(nSensitive) + ns*math.Exp(-eps)
}

// LaplaceExpectedL1Error is the expected L1 error of the ε-DP Laplace
// mechanism on a d-bin histogram of sensitivity 2: each bin's |Lap(2/ε)|
// has mean 2/ε, so the total is 2d/ε (as used in Theorem 5.1).
func LaplaceExpectedL1Error(d int, eps float64) float64 {
	return 2 * float64(d) / eps
}

// RRWorseThanLaplace evaluates the crossover condition of Theorem 5.1:
// OsdpRR's expected L1 error exceeds the Laplace mechanism's whenever
// n·ε > 2d·e^ε. (The theorem states the condition in the limit of no
// sensitive records.)
func RRWorseThanLaplace(n, d int, eps float64) bool {
	return float64(n)*eps > 2*float64(d)*math.Exp(eps)
}
