package noise

import (
	"math"
	"sync"
	"testing"
)

func TestSecureSourceRange(t *testing.T) {
	src := NewSecureSource()
	for i := 0; i < 10000; i++ {
		u := src.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("secure uniform %v outside [0, 1)", u)
		}
	}
}

func TestSecureSourceMoments(t *testing.T) {
	src := NewSecureSource()
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		u := src.Float64()
		sum += u
		sq += u * u
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean %v", mean)
	}
	if math.Abs(variance-1.0/12) > 0.002 {
		t.Errorf("variance %v, want ~1/12", variance)
	}
}

func TestSecureSourceDrivesLaplace(t *testing.T) {
	src := NewSecureSource()
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Abs(Laplace(src, 2))
	}
	// E|Lap(2)| = 2.
	if mean := sum / n; math.Abs(mean-2) > 0.05 {
		t.Errorf("E|Lap(2)| = %v via secure source", mean)
	}
}

func TestSnapQuantises(t *testing.T) {
	if got := Snap(3.7, 0.5, 100); got != 3.5 {
		t.Errorf("Snap = %v, want 3.5", got)
	}
	if got := Snap(3.76, 0.5, 100); got != 4.0 {
		t.Errorf("Snap = %v, want 4.0", got)
	}
	// Every output is an exact multiple of lambda.
	src := NewSource(1)
	for i := 0; i < 1000; i++ {
		v := Snap(Laplace(src, 1)*50, 0.25, 1000)
		if r := math.Mod(v, 0.25); r != 0 {
			t.Fatalf("Snap output %v not on the lambda grid (rem %v)", v, r)
		}
	}
}

func TestSnapClamps(t *testing.T) {
	if got := Snap(1e9, 1, 50); got != 50 {
		t.Errorf("Snap above bound = %v", got)
	}
	if got := Snap(-1e9, 1, 50); got != -50 {
		t.Errorf("Snap below bound = %v", got)
	}
}

func TestSnapPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Snap(1, 0, 10) },
		func() { Snap(1, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSnapVecInPlace(t *testing.T) {
	xs := []float64{1.2, -3.8, 200}
	out := SnapVec(xs, 1, 100)
	want := []float64{1, -4, 100}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("SnapVec = %v, want %v", out, want)
		}
	}
	if &out[0] != &xs[0] {
		t.Error("SnapVec did not operate in place")
	}
}

func TestSnapErrorBounded(t *testing.T) {
	src := NewSource(2)
	for i := 0; i < 5000; i++ {
		v := Laplace(src, 1) * 10
		if v > 100 || v < -100 {
			continue
		}
		if d := math.Abs(Snap(v, 0.5, 100) - v); d > 0.25+1e-12 {
			t.Fatalf("snapping moved %v by %v > lambda/2", v, d)
		}
	}
}

// TestSecureSourceFloat64DoesNotAllocate pins the buffer's home in the
// source: a per-call buffer escapes through io.ReadFull and costs one
// allocation per uniform, tens of thousands per quantile query.
func TestSecureSourceFloat64DoesNotAllocate(t *testing.T) {
	src := NewSecureSource()
	if allocs := testing.AllocsPerRun(1000, func() { src.Float64() }); allocs != 0 {
		t.Errorf("secure Float64 allocates %v objects per call, want 0", allocs)
	}
}

// Bulk-filled secure values are uniforms of the same grid as Float64:
// in [0, 1) and whole multiples of 2^−53, across fills that are
// shorter than, equal to and longer than one buffered read.
func TestSecureFillRangeAndGrid(t *testing.T) {
	src := NewSecureSource()
	var sum float64
	n := 0
	for _, size := range []int{1, 7, 256, 512, 513, 1500} {
		dst := make([]float64, size)
		for rep := 0; rep < 20; rep++ {
			FillUniform(src, dst)
			for _, u := range dst {
				if u < 0 || u >= 1 {
					t.Fatalf("bulk secure uniform %v outside [0, 1)", u)
				}
				if k := u * (1 << 53); k != math.Floor(k) {
					t.Fatalf("bulk secure uniform %v is off the 2^-53 grid", u)
				}
				sum += u
				n++
			}
		}
	}
	// 45,780 uniforms: the mean's standard error is 0.0013.
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.007 {
		t.Errorf("mean of %d bulk uniforms = %v, want ~0.5", n, mean)
	}
}

// Fills and single draws racing on one secure source never hand out
// the same bytes twice: among ~100k 53-bit values a repeat has
// probability ~6e-7 unless two callers read overlapping bytes. Run
// under -race it also checks the fill's locking.
func TestSecureFillConcurrentDistinct(t *testing.T) {
	src := NewSecureSource()
	const goroutines, fills, size = 8, 180, 67
	out := make([][]float64, goroutines)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float64, size)
			for i := 0; i < fills; i++ {
				FillUniform(src, buf)
				out[g] = append(out[g], buf...)
				out[g] = append(out[g], src.Float64())
			}
		}()
	}
	wg.Wait()
	seen := make(map[float64]bool, goroutines*fills*(size+1))
	for _, vs := range out {
		for _, u := range vs {
			if seen[u] {
				t.Fatalf("value %v handed out twice", u)
			}
			seen[u] = true
		}
	}
}
