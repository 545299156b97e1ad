// Package noise provides the random samplers used by the differentially
// private and one-sided differentially private mechanisms in this
// repository: Laplace, one-sided (negative) Laplace, Bernoulli, geometric,
// and Gaussian distributions.
//
// All samplers draw from a Source, a thin interface over math/rand, so that
// experiments are reproducible under a fixed seed and tests can substitute
// deterministic sequences. Samplers are implemented by inverse-CDF
// transforms of uniform variates, which keeps them branch-light and easy to
// verify statistically.
package noise

import (
	"math"
	"math/rand"
)

// Source is the uniform randomness a sampler consumes. *rand.Rand satisfies
// it. Implementations must return values in [0, 1).
//
// *rand.Rand (and therefore NewSource) is NOT safe for concurrent use:
// simultaneous Float64 calls race on the generator state. Wrap a shared
// source with Locked before handing it to multiple goroutines, or use
// NewSecureSource, which is safe as-is.
type Source interface {
	Float64() float64
}

// bulkSource is a Source that can also fill a whole slice with
// uniforms in one call, each value with the law of one Float64 call,
// as NewSecureSource's does.
type bulkSource interface {
	Source
	FillFloat64s(dst []float64)
}

// FillUniform fills dst with independent uniforms in [0, 1) from src:
// in one call when src has a bulk fill (NewSecureSource), otherwise by
// one Float64 call per value, in order.
func FillUniform(src Source, dst []float64) {
	if b, ok := src.(bulkSource); ok {
		b.FillFloat64s(dst)
		return
	}
	for i := range dst {
		dst[i] = src.Float64()
	}
}

// NewSource returns a deterministic Source seeded with seed.
func NewSource(seed int64) Source {
	return rand.New(rand.NewSource(seed))
}

// Laplace draws one sample from the Laplace distribution with mean 0 and
// scale b (Definition 2.3 of the paper). The density is
// f(x) = exp(-|x|/b) / (2b).
//
// Laplace panics if b <= 0.
func Laplace(src Source, b float64) float64 {
	if b <= 0 {
		panic("noise: Laplace scale must be positive")
	}
	// Inverse CDF: u ~ Uniform(-1/2, 1/2); x = -b * sign(u) * ln(1 - 2|u|).
	u := src.Float64() - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}

// LaplaceVec fills a fresh slice of length d with i.i.d. Laplace(b) samples.
func LaplaceVec(src Source, b float64, d int) []float64 {
	z := make([]float64, d)
	for i := range z {
		z[i] = Laplace(src, b)
	}
	return z
}

// OneSidedLaplace draws one sample from the one-sided Laplace distribution
// Lap⁻(λ) of Definition 5.1: the mirror of the exponential distribution,
// with all probability mass on (-inf, 0]. The density is
// f(x) = exp(x/λ)/λ for x <= 0 and 0 otherwise.
//
// Its mean is -λ and its median is -λ·ln2; OsdpLaplaceL1 adds the median
// back to debias surviving counts.
//
// OneSidedLaplace panics if lambda <= 0.
func OneSidedLaplace(src Source, lambda float64) float64 {
	if lambda <= 0 {
		panic("noise: one-sided Laplace scale must be positive")
	}
	// If E ~ Exp(1/λ) then -E ~ Lap⁻(λ). Inverse CDF of Exp: -λ ln(1-u).
	u := src.Float64()
	return lambda * math.Log1p(-u) // = -λ·(-ln(1-u)) <= 0
}

// OneSidedLaplaceVec fills a fresh slice of length d with i.i.d. Lap⁻(λ)
// samples.
func OneSidedLaplaceVec(src Source, lambda float64, d int) []float64 {
	z := make([]float64, d)
	for i := range z {
		z[i] = OneSidedLaplace(src, lambda)
	}
	return z
}

// Bernoulli returns true with probability p. Values of p outside [0, 1] are
// clamped. OsdpRR keeps each non-sensitive record with p = 1 - e^(-ε).
func Bernoulli(src Source, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return src.Float64() < p
}

// Geometric draws from the two-sided geometric distribution with parameter
// alpha in (0, 1): Pr[X = k] ∝ alpha^|k|. It is the discrete analogue of the
// Laplace distribution, with alpha = exp(-ε/Δ) giving ε-DP for integer
// counts of sensitivity Δ.
//
// Geometric panics if alpha is outside (0, 1).
func Geometric(src Source, alpha float64) int64 {
	if alpha <= 0 || alpha >= 1 {
		panic("noise: geometric parameter must be in (0, 1)")
	}
	// Sample magnitude from a one-sided geometric and an independent sign;
	// reject (0, -) so zero is not double-counted. This yields
	// Pr[X=0] = (1-α)/(1+α) and Pr[X=±k] = (1-α)·α^k/(1+α).
	for {
		u := src.Float64()
		// One-sided geometric with support {0, 1, ...}: k = floor(ln(u)/ln(alpha)).
		k := int64(math.Floor(math.Log(u) / math.Log(alpha)))
		if k < 0 { // u == 0 edge; retry
			continue
		}
		negative := src.Float64() < 0.5
		if k == 0 {
			if negative {
				continue
			}
			return 0
		}
		if negative {
			return -k
		}
		return k
	}
}

// Binomial draws from Binomial(n, p), approximately: once n·p·(1−p)
// exceeds 100 it switches to a rounded, clamped Gaussian. It is for the
// synthetic data generators only; a privacy mechanism must not use it
// (OsdpRR counts come from core's exact keep loop).
func Binomial(src Source, n int, p float64) int {
	if n < 0 {
		panic("noise: negative binomial count")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	variance := float64(n) * p * (1 - p)
	if variance > 100 {
		k := int(math.Round(float64(n)*p + Gaussian(src, 1)*math.Sqrt(variance)))
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
	k := 0
	for i := 0; i < n; i++ {
		if src.Float64() < p {
			k++
		}
	}
	return k
}

// Gaussian draws one sample from N(0, sigma²) via Box–Muller. It is used by
// the synthetic data generators, not by any privacy mechanism.
func Gaussian(src Source, sigma float64) float64 {
	// Box–Muller; guard u1 against 0 to keep Log finite.
	u1 := src.Float64()
	for u1 == 0 {
		u1 = src.Float64()
	}
	u2 := src.Float64()
	return sigma * math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Exponential draws from Exp(rate): density rate·exp(-rate·x) on x >= 0.
// Used by the trace simulator for dwell times.
func Exponential(src Source, rate float64) float64 {
	if rate <= 0 {
		panic("noise: exponential rate must be positive")
	}
	u := src.Float64()
	return -math.Log1p(-u) / rate
}

// KeepGap draws how many records OsdpRR skips before its next keep at
// privacy level eps: ⌊E/ε⌋ with E = −ln(1−U) ~ Exp(1). Then
// Pr[gap ≥ k] = Pr[E ≥ kε] = e^(−kε) = (1−p)^k for p = 1 − e^(−ε), the
// waiting time of i.i.d. Bernoulli(p) keeps, so a keep loop that jumps
// by gaps keeps each record independently with probability p while
// drawing one uniform per KEPT record instead of one per record. The gap
// is a float64 because at tiny eps it exceeds every int; callers compare
// it with the records left before converting.
//
// KeepGap panics if eps <= 0.
func KeepGap(src Source, eps float64) float64 {
	return KeepGapFrom(src.Float64(), eps)
}

// KeepGapFrom is KeepGap with its uniform u in [0, 1) already drawn,
// for keep loops that draw their uniforms in bulk (FillUniform).
//
// KeepGapFrom panics if eps <= 0.
func KeepGapFrom(u, eps float64) float64 {
	if eps <= 0 {
		panic("noise: keep gap needs eps > 0")
	}
	return math.Floor(-math.Log1p(-u) / eps)
}

// KeepProbability is the per-record release probability of OsdpRR at
// privacy level eps: 1 - e^(-ε) (Algorithm 1). It is exported so harnesses
// and tests can reason about expected sample sizes (Table 1).
func KeepProbability(eps float64) float64 {
	return 1 - math.Exp(-eps)
}

// OneSidedLaplaceMedian is the median of Lap⁻(λ): -λ·ln2. OsdpLaplaceL1
// subtracts it (adds |median|) to debias positive counts (Algorithm 2,
// step 4 uses µ = -ln(2)/ε with λ = 1/ε).
func OneSidedLaplaceMedian(lambda float64) float64 {
	return -lambda * math.Ln2
}
