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

// secureBufSize is the crypto/rand read size behind a secure source.
const secureBufSize = 4096

// NewSecureSource returns a Source backed by crypto/rand. Sampling is a
// few times slower than the seeded PRNG source; use it for actual
// releases and the seeded source for experiments that must be
// reproducible. Unlike seeded sources, it is safe for concurrent use
// without wrapping in Locked. It also has a bulk fill: FillUniform
// draws a whole slice of uniforms from it under one lock, which is how
// the OsdpRR keep loop reads it.
func NewSecureSource() Source {
	return &secureSource{r: bufio.NewReaderSize(crand.Reader, secureBufSize)}
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
	return uniform53(s.buf[:])
}

// FillFloat64s fills dst with independent uniforms in [0, 1), each with
// 53 random bits, under one lock. The bytes are read in place from the
// source's buffer, which one crypto/rand read refills 4 KB at a time,
// so a keep loop that draws hundreds of uniforms pays one lock and at
// most one read for them instead of one lock per value. The values have
// exactly the law of len(dst) Float64 calls.
func (s *secureSource) FillFloat64s(dst []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(dst) > 0 {
		n := min(len(dst), secureBufSize/8)
		b, err := s.r.Peek(8 * n)
		if err != nil {
			panic(fmt.Sprintf("noise: reading crypto/rand: %v", err))
		}
		for i := range dst[:n] {
			dst[i] = uniform53(b[8*i:])
		}
		s.r.Discard(8 * n)
		dst = dst[n:]
	}
}

// uniform53 maps the first 8 bytes of b to [0, 1) on the 2^−53 grid.
func uniform53(b []byte) float64 {
	return float64(binary.LittleEndian.Uint64(b)>>11) / (1 << 53)
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
