package dataset

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// expand lists the values of r position by position.
func expand(r *SortedRuns) []float64 {
	out := make([]float64, r.Rows())
	for i := range out {
		out[i] = r.At(i)
	}
	return out
}

// SortedRuns hold a view's own values in sort.Float64s order, one run
// per distinct value (−0 before +0), for int and float columns.
func TestSortedRunsMatchSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	tb := NewTable(NewSchema(
		Field{Name: "Hide", Kind: KindBool},
		Field{Name: "I", Kind: KindInt},
		Field{Name: "F", Kind: KindFloat},
		Field{Name: "S", Kind: KindString},
	))
	ints := []int64{5, 5, -3, 9, 0, 5, 1 << 60, 1<<60 + 1, -3, 7}
	floats := []float64{0, nan, 2.5, negZero, 2.5, -1, nan, 0, negZero, math.Inf(1)}
	for i := range ints {
		tb.AppendValues(Bool(false), Int(ints[i]), Float(floats[i]), Str("x"))
		tb.AppendValues(Bool(true), Int(-99), Float(99), Str("y"))
	}
	_, ns := tb.Split(NewPolicy("hide", Cmp("Hide", OpEq, Bool(true))))
	for _, tab := range []*Table{tb, ns} {
		for _, ci := range []int{1, 2} {
			r, ok := tab.SortedRuns(ci)
			if !ok {
				t.Fatalf("column %d: not numeric", ci)
			}
			want := make([]float64, tab.Len())
			for i := range want {
				if v := tab.Record(i).At(ci); v.Kind() == KindInt {
					want[i] = float64(v.AsInt())
				} else {
					want[i] = v.AsFloat()
				}
			}
			sort.Float64s(want)
			got := expand(r)
			if len(got) != len(want) {
				t.Fatalf("column %d: %d rows, want %d", ci, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("column %d position %d: %v, want %v (runs %v %v)", ci, i, got[i], want[i], r.values, r.ends)
				}
				if i > 0 && got[i] == 0 && got[i-1] == 0 && math.Signbit(got[i]) && !math.Signbit(got[i-1]) {
					t.Fatalf("column %d position %d: −0 after +0", ci, i)
				}
			}
			for i := 1; i < r.Len(); i++ {
				same := r.values[i] == r.values[i-1] && math.Signbit(r.values[i]) == math.Signbit(r.values[i-1])
				if same || math.IsNaN(r.values[i]) || r.ends[i] <= r.ends[i-1] {
					t.Fatalf("column %d: runs %v ends %v are not one run per distinct value", ci, r.values, r.ends)
				}
			}
		}
	}
	// 1<<60 and 1<<60+1 are one float64, so one run.
	if r, _ := ns.SortedRuns(1); r.Len() != 6 {
		t.Errorf("int runs %v, want 6 distinct float64 values", r.values)
	}
	if r, ok := tb.SortedRuns(3); ok || r != nil {
		t.Error("SortedRuns of a string column reported numeric")
	}
	if _, ok := ns.SortedRuns(0); ok {
		t.Error("SortedRuns of a bool column reported numeric")
	}
}

// At panics outside [0, Rows()), and empty tables have no runs.
func TestSortedRunsBounds(t *testing.T) {
	tb := NewTable(NewSchema(Field{Name: "I", Kind: KindInt}))
	r, _ := tb.SortedRuns(0)
	if r.Len() != 0 || r.Rows() != 0 {
		t.Fatalf("empty table runs: %d runs, %d rows", r.Len(), r.Rows())
	}
	tb.AppendValues(Int(4))
	tb.AppendValues(Int(2))
	r, _ = tb.SortedRuns(0)
	if r.At(0) != 2 || r.At(1) != 4 {
		t.Fatalf("At = %v, %v; want 2, 4", r.At(0), r.At(1))
	}
	for _, pos := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", pos)
				}
			}()
			r.At(pos)
		}()
	}
}

// Runs are cached per column and dropped when the base grows; a view's
// cached runs are rebuilt then too, over the same rows.
func TestSortedRunsCache(t *testing.T) {
	tb := NewTable(NewSchema(Field{Name: "I", Kind: KindInt}, Field{Name: "F", Kind: KindFloat}))
	for i := 0; i < 10; i++ {
		tb.AppendValues(Int(int64(i%3)), Float(float64(i)))
	}
	view := tb.Take([]int32{1, 4, 5})
	if tb.CachedSortedRuns(0) != nil || view.CachedSortedRuns(0) != nil {
		t.Fatal("runs cached before first use")
	}
	r0, _ := tb.SortedRuns(0)
	r1, _ := tb.SortedRuns(1)
	v0, _ := view.SortedRuns(0)
	if again, _ := tb.SortedRuns(0); again != r0 || tb.CachedSortedRuns(1) != r1 || view.CachedSortedRuns(0) != v0 {
		t.Fatal("second use rebuilt the runs")
	}
	if r0.Len() != 3 || r1.Len() != 10 || v0.Rows() != 3 {
		t.Fatalf("runs: %d, %d, view rows %d", r0.Len(), r1.Len(), v0.Rows())
	}
	tb.AppendValues(Int(7), Float(-1))
	if tb.CachedSortedRuns(0) != nil || view.CachedSortedRuns(0) != nil {
		t.Fatal("runs still cached after the base grew")
	}
	if r, _ := tb.SortedRuns(0); r.Rows() != 11 || r.At(10) != 7 {
		t.Errorf("base runs after append: %d rows, max %v", r.Rows(), r.At(r.Rows()-1))
	}
	if r, _ := view.SortedRuns(0); r.Rows() != 3 || r.At(2) != 2 {
		t.Errorf("view runs after append: %d rows, max %v", r.Rows(), r.At(r.Rows()-1))
	}
}

// Racing first uses of a view's runs all get equal runs. Run it under
// -race.
func TestSortedRunsConcurrentFirstUse(t *testing.T) {
	tb := NewTable(NewSchema(Field{Name: "I", Kind: KindInt}))
	for i := 0; i < 5000; i++ {
		tb.AppendValues(Int(int64(i * 7919 % 101)))
	}
	view := tb.Filter(Cmp("I", OpGe, Int(20)))
	var wg sync.WaitGroup
	got := make([]*SortedRuns, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], _ = view.SortedRuns(0)
		}()
	}
	wg.Wait()
	for _, r := range got {
		if r.Len() != 81 || r.Rows() != view.Len() || r.At(0) != 20 || r.At(r.Rows()-1) != 100 {
			t.Fatalf("runs %d, rows %d of %d", r.Len(), r.Rows(), view.Len())
		}
	}
}
