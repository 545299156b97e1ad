package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// This file checks the narrow int storage: the width Append picks, the
// re-encode bound, copy-on-append under widening, and the lane kernels
// against a per-row reference.

func intTable(vals ...int64) *Table {
	tb := NewTable(NewSchema(Field{"X", KindInt}))
	for _, v := range vals {
		tb.AppendValues(Int(v))
	}
	return tb
}

func TestIntColumnPicksNarrowestWidth(t *testing.T) {
	for _, tc := range []struct {
		lo, hi int64
		bits   int
	}{
		{0, 99, 8},
		{-3, 3, 8},
		{-200, 55, 8},
		{0, 256, 16},
		{-40000, 25535, 16},
		{0, 65536, 64},
		{math.MaxInt64 - 200, math.MaxInt64, 8},
		{math.MinInt64, math.MinInt64 + 200, 8},
		{math.MinInt64, math.MaxInt64, 64},
	} {
		tb := intTable(tc.hi, tc.lo, tc.hi, tc.lo+1)
		iv := &tb.cols[0].ints
		if iv.bits != tc.bits {
			t.Errorf("[%d, %d]: width %d, want %d", tc.lo, tc.hi, iv.bits, tc.bits)
		}
		for i, want := range []int64{tc.hi, tc.lo, tc.hi, tc.lo + 1} {
			if got := tb.Record(i).Get("X").AsInt(); got != want {
				t.Errorf("[%d, %d]: row %d reads %d, want %d", tc.lo, tc.hi, i, got, want)
			}
		}
	}
}

// TestIntColumnDescendingAppendReencodesRarely: a column appended in
// descending order must not be rewritten on every row. Each re-encode at
// one width halves the slack, so 8-bit and 16-bit lanes allow about 9
// and 17 re-encodes and the widening to 64 bits one more; with slice
// growth, building the column takes under a hundred allocations, where a
// re-encode per row would take one per row.
func TestIntColumnDescendingAppendReencodesRarely(t *testing.T) {
	const n = 200000
	var tb *Table
	allocs := testing.AllocsPerRun(1, func() {
		tb = NewTable(NewSchema(Field{"X", KindInt}))
		for i := 0; i < n; i++ {
			tb.AppendValues(Int(int64(-i)))
		}
	})
	if bits := tb.cols[0].ints.bits; bits != 64 {
		t.Fatalf("width %d after a range of %d, want 64", bits, n)
	}
	if allocs > 200 {
		t.Fatalf("%.0f allocations for %d descending appends, want at most 200", allocs, n)
	}
	for _, i := range []int{0, 1, 255, 256, 65535, 65536, n - 1} {
		if got := tb.Record(i).Get("X").AsInt(); got != int64(-i) {
			t.Fatalf("row %d reads %d, want %d", i, got, -i)
		}
	}
}

// TestIntColumnCloneWidensUnderReaders: goroutines scan a table while
// its Clone re-encodes and widens on append. The clone's re-encode
// writes fresh arrays, so the original's answers never change (run
// under -race, this also shows the two share nothing they write).
func TestIntColumnCloneWidensUnderReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	orig := NewTable(NewSchema(Field{"X", KindInt}))
	for i := 0; i < 3*chunkRows; i++ {
		orig.AppendValues(Int(int64(rng.Intn(100))))
	}
	_, ns := orig.Split(NewPolicy("low", Cmp("X", OpLt, Int(18))))
	preds := []Predicate{Cmp("X", OpGe, Int(40)), Cmp("X", OpEq, Int(7)), Cmp("X", OpNe, Float(50.5))}
	want := make([]int, len(preds))
	for i, p := range preds {
		want[i] = ns.Count(p)
	}
	clone := orig.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, p := range preds {
					if got := ns.Count(p); got != want[i] {
						t.Errorf("Count(%s) = %d while the clone widened, want %d", p, got, want[i])
						return
					}
				}
			}
		}()
	}
	// Widen the clone from 8 to 16 to 64 bits, re-encoding each time.
	for _, v := range []int64{-1000, 70000, -1 << 40, 5} {
		clone.AppendValues(Int(v))
	}
	wg.Wait()
	if got := clone.cols[0].ints.bits; got != 64 {
		t.Fatalf("clone width %d, want 64", got)
	}
	if got := orig.cols[0].ints.bits; got != 8 {
		t.Fatalf("original width %d after its clone widened, want 8", got)
	}
	if got, want := clone.Count(Cmp("X", OpLt, Int(0))), 2; got != want {
		t.Fatalf("clone counts %d negative rows, want %d", got, want)
	}
}

// refLaneBits is the per-row reference for the lane kernels.
func refLaneBits[T uint8 | uint16](xs []T, lo, k T, flip uint64) []uint64 {
	out := make([]uint64, (len(xs)+63)/64)
	for i, x := range xs {
		if (x-lo < k) != (flip != 0) {
			out[i>>6] |= 1 << (i & 63)
		}
	}
	return out
}

// TestLaneKernelsMatchPerRow checks the SWAR kernels bit for bit
// against the per-row rule, for every interval of the 8-bit lanes and a
// sample of the 16-bit ones, with and without a mask and a partial last
// word.
func TestLaneKernelsMatchPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rows = 64*5 + 37
	u8 := make([]uint8, rows)
	u16 := make([]uint16, rows)
	for i := range u8 {
		u8[i] = uint8(rng.Intn(256))
		u16[i] = uint16(rng.Intn(65536))
	}
	// Hit the edges of every interval often.
	copy(u8, []uint8{0, 1, 127, 128, 129, 254, 255})
	copy(u16, []uint16{0, 1, 255, 256, 32767, 32768, 65534, 65535})
	mask := make([]uint64, (rows+63)/64)
	for i := range mask {
		mask[i] = rng.Uint64()
	}
	mask[len(mask)-1] &= 1<<(rows&63) - 1
	check := func(label string, got, want []uint64, m []uint64) {
		t.Helper()
		for i := range want {
			w := want[i]
			if m != nil {
				w &= m[i]
			}
			if got[i] != w {
				t.Fatalf("%s: word %d = %#x, per-row %#x", label, i, got[i], w)
			}
		}
	}
	got := make([]uint64, len(mask))
	for lo := 0; lo < 256; lo++ {
		for k := 1; k < 256; k++ {
			for _, flip := range []uint64{0, ^uint64(0)} {
				want := refLaneBits(u8, uint8(lo), uint8(k), flip)
				for _, m := range [][]uint64{nil, mask} {
					laneWords8(got, m, u8, uint8(lo), uint8(k), flip)
					check(fmt.Sprintf("8-bit lo=%d k=%d flip=%t mask=%t", lo, k, flip != 0, m != nil), got, want, m)
				}
			}
		}
	}
	edges := []int{0, 1, 2, 255, 256, 32767, 32768, 32769, 65534, 65535}
	for i := 0; i < 200; i++ {
		edges = append(edges, rng.Intn(65536))
	}
	for _, lo := range edges {
		for _, k := range edges {
			if k == 0 {
				continue
			}
			for _, flip := range []uint64{0, ^uint64(0)} {
				want := refLaneBits(u16, uint16(lo), uint16(k), flip)
				for _, m := range [][]uint64{nil, mask} {
					laneWords16(got, m, u16, uint16(lo), uint16(k), flip)
					check(fmt.Sprintf("16-bit lo=%d k=%d flip=%t mask=%t", lo, k, flip != 0, m != nil), got, want, m)
				}
			}
		}
	}
}

// TestNarrowIntVerdictsNearTwoTo62: past 2^53 float64 cannot tell
// neighbouring ints apart, and Value.Compare compares through float64,
// so "x = c" holds for every x that rounds to c's float. The lane
// interval must keep those verdicts, not round c as an integer.
func TestNarrowIntVerdictsNearTwoTo62(t *testing.T) {
	base := int64(1) << 62
	vals := make([]int64, 130)
	for i := range vals {
		vals[i] = base - 64 + int64(i)*5
	}
	tb := intTable(vals...)
	if got := tb.cols[0].ints.bits; got == 64 {
		t.Fatalf("width %d, want a narrow column", got)
	}
	consts := []Value{Int(base), Int(base + 1), Int(base - 1), Int(base + 300), Float(float64(base)), Float(float64(base) + 1024),
		Float(float64(base) - 512), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()), Float(0.5), Int(math.MaxInt64)}
	for _, c := range consts {
		for _, op := range []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
			pred := Cmp("X", op, c)
			want := 0
			for i := 0; i < tb.Len(); i++ {
				if pred.Eval(tb.Record(i)) {
					want++
				}
			}
			if got := tb.Count(pred); got != want {
				t.Errorf("Count(%s) = %d, per-row %d", pred, got, want)
			}
		}
	}
}

// BenchmarkCmpKernel times one comparison leaf over 1M rows of an int
// column stored at each width: Age-like values 0..99 on 8-bit lanes,
// the same spread over 16-bit lanes, and raw int64s.
func BenchmarkCmpKernel(b *testing.B) {
	const rows = 1 << 20
	for _, w := range []struct {
		name  string
		scale int64
	}{{"8bit", 1}, {"16bit", 300}, {"64bit", 1 << 40}} {
		rng := rand.New(rand.NewSource(1))
		tb := NewTable(NewSchema(Field{"X", KindInt}))
		for i := 0; i < rows; i++ {
			tb.AppendValues(Int(int64(rng.Intn(100)) * w.scale))
		}
		pred := Cmp("X", OpGe, Int(40*w.scale))
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb.Count(pred)
			}
		})
	}
}
