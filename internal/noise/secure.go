package noise

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// This file provides the production-hardening pieces a deployed privacy
// mechanism needs beyond textbook sampling: a cryptographically secure
// uniform Source (math/rand's PRNG state can be reconstructed from
// outputs, which would let an observer subtract the noise), and the
// snapping mechanism that defends Laplace noise against the Mironov
// floating-point attack (CCS 2012), where the low-order bits of naïve
// double-precision Laplace samples leak the true value.

// secureSource draws uniform variates from crypto/rand, buffered to keep
// the syscall overhead off the per-sample path. The mutex makes it safe
// for concurrent use: the buffer is shared mutable state, and racing
// reads could hand two goroutines overlapping random bytes — correlated
// noise that would silently weaken the privacy guarantee.
type secureSource struct {
	mu  sync.Mutex
	r   *bufio.Reader
	buf [8]byte // one variate's bytes; a local array would escape to the heap through io.ReadFull
}

// NewSecureSource returns a Source backed by crypto/rand. Sampling is a
// few times slower than the seeded PRNG source; use it for actual
// releases and the seeded source for experiments that must be
// reproducible. Unlike seeded sources, it is safe for concurrent use
// without wrapping in Locked.
func NewSecureSource() Source {
	return &secureSource{r: bufio.NewReaderSize(crand.Reader, 4096)}
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (s *secureSource) Float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := io.ReadFull(s.r, s.buf[:]); err != nil {
		// crypto/rand failure means the platform's entropy source is
		// broken; producing deterministic "noise" would silently void the
		// privacy guarantee, so fail loudly.
		panic(fmt.Sprintf("noise: reading crypto/rand: %v", err))
	}
	return float64(binary.LittleEndian.Uint64(s.buf[:])>>11) / (1 << 53)
}

// Snap post-processes a noisy value with the snapping mechanism: clamp to
// [-bound, bound], then round to the nearest multiple of lambda, where
// lambda must be at least the Laplace scale used to generate the noise.
// Rounding quantises away the low-order mantissa bits whose exact pattern
// depends on the unperturbed value; the cost is a small additive increase
// in error (≤ lambda/2) and a slight ε inflation absorbed by choosing
// lambda ≥ scale. Snapping is post-processing, so it never weakens the
// OSDP/DP guarantee.
func Snap(value, lambda, bound float64) float64 {
	if lambda <= 0 || bound <= 0 {
		panic("noise: Snap needs positive lambda and bound")
	}
	if value > bound {
		value = bound
	}
	if value < -bound {
		value = -bound
	}
	return math.Round(value/lambda) * lambda
}

// SnapVec applies Snap to every element in place and returns xs.
func SnapVec(xs []float64, lambda, bound float64) []float64 {
	for i, v := range xs {
		xs[i] = Snap(v, lambda, bound)
	}
	return xs
}
