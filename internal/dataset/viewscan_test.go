package dataset

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// This file checks the masked scan — Count and SelectPhysical on a view
// work over Base()'s physical rows, ANDed with the view's membership —
// against record-at-a-time evaluation over the view's own records.

// physRows returns the physical row of each of t's records.
func physRows(t *Table) []int {
	out := make([]int, t.Len())
	for i := range out {
		out[i] = t.physRow(i)
	}
	return out
}

// recordingPredicate wraps pred in an opaque FuncPredicate that records
// every physical row it is called on.
func recordingPredicate(pred Predicate, seen *[]int) Predicate {
	return FuncPredicate("recording("+pred.String()+")", func(r Record) bool {
		*seen = append(*seen, r.row)
		return pred.Eval(r)
	})
}

// checkViewScan compares Count, SelectPhysical and the view-relative
// Select on view with the record-at-a-time reference, for pred and for pred wrapped in an opaque
// leaf that must see exactly the view's rows, in order, once.
func checkViewScan(t *testing.T, label string, view *Table, pred Predicate) {
	t.Helper()
	rows := physRows(view)
	member := make(map[int]bool, len(rows))
	for _, p := range rows {
		member[p] = true
	}
	want := make(map[int]bool)
	for i, p := range rows {
		if pred.Eval(view.Record(i)) {
			want[p] = true
		}
	}
	check := func(label string, pred Predicate) {
		t.Helper()
		if got := view.Count(pred); got != len(want) {
			t.Fatalf("%s: Count(%s) = %d, record-at-a-time = %d", label, pred, got, len(want))
		}
		bits := view.SelectPhysical(pred)
		if bits.Len() != view.Base().Len() {
			t.Fatalf("%s: SelectPhysical has %d rows, base has %d", label, bits.Len(), view.Base().Len())
		}
		if got := bits.Count(); got != len(want) {
			t.Fatalf("%s: SelectPhysical(%s) sets %d rows, record-at-a-time %d", label, pred, got, len(want))
		}
		for p := range want {
			if !bits.Get(p) {
				t.Fatalf("%s: SelectPhysical(%s) misses physical row %d", label, pred, p)
			}
		}
		rel := view.Select(pred)
		if rel.Len() != len(rows) {
			t.Fatalf("%s: Select has %d rows, view has %d", label, rel.Len(), len(rows))
		}
		for i, p := range rows {
			if rel.Get(i) != want[p] {
				t.Fatalf("%s: Select(%s) bit %d = %v, record-at-a-time %v", label, pred, i, rel.Get(i), want[p])
			}
		}
	}
	check(label, pred)

	var seen []int
	opaque := recordingPredicate(pred, &seen)
	check(label+" opaque", opaque)
	check(label+" opaque-in-tree", And(True(), Not(Not(opaque))))
	// Count, SelectPhysical and Select each ran the leaf once per pass:
	// check every pass saw exactly the view's rows, in view order.
	if len(seen) != 6*len(rows) {
		t.Fatalf("%s: opaque leaf called %d times over %d rows in 6 passes", label, len(seen), len(rows))
	}
	for i, p := range seen {
		if !member[p] {
			t.Fatalf("%s: opaque leaf saw physical row %d, which the view excludes", label, p)
		}
		if p != rows[i%len(rows)] {
			t.Fatalf("%s: opaque leaf call %d saw row %d, want row %d", label, i, p, rows[i%len(rows)])
		}
	}

	if got := view.Count(True()); got != view.Len() {
		t.Fatalf("%s: Count(True) = %d, Len = %d", label, got, view.Len())
	}
	if got := view.SelectPhysical(nil).Count(); got != view.Len() {
		t.Fatalf("%s: SelectPhysical(nil) sets %d rows, Len = %d", label, got, view.Len())
	}
}

// scanViews returns the views of tb the masked scan must handle: both
// partitions of a Split, a Filter, a Split of that Filter, and Takes
// whose first and last rows sit on chunk and word edges.
func scanViews(rng *rand.Rand, tb *Table) map[string]*Table {
	sens, ns := tb.Split(NewPolicy("scan", randomPredicate(rng, 2)))
	filtered := tb.Filter(randomPredicate(rng, 2))
	_, filteredNS := filtered.Split(NewPolicy("scan-of-filter", randomPredicate(rng, 2)))
	views := map[string]*Table{
		"split-sensitive": sens,
		"split-ns":        ns,
		"filter":          filtered,
		"split-of-filter": filteredNS,
		"take-of-split":   ns.Take(randomPositions(rng, ns.Len(), 0, ns.Len()-1)),
	}
	n := tb.Len()
	for _, edge := range [][2]int{{chunkRows - 1, chunkRows}, {chunkRows, 2*chunkRows - 1}, {63, n - 1}, {0, 64}} {
		if lo, hi := edge[0], edge[1]; hi < n && lo <= hi {
			views[fmt.Sprintf("take[%d..%d]", lo, hi)] = tb.Take(randomPositions(rng, n, lo, hi))
		}
	}
	return views
}

// randomPositions returns strictly increasing positions in [lo, hi] of a
// table of n rows that always include lo and hi (none when n is 0).
func randomPositions(rng *rand.Rand, n, lo, hi int) []int32 {
	if n == 0 || hi < lo {
		return []int32{}
	}
	out := []int32{int32(lo)}
	for p := lo + 1; p < hi; p++ {
		if rng.Intn(3) == 0 {
			out = append(out, int32(p))
		}
	}
	if hi > lo {
		out = append(out, int32(hi))
	}
	return out
}

// TestViewScanDifferential runs the masked scan on tables just below,
// just above and well past one chunk, at one worker and at several.
func TestViewScanDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk differential tables are slow to build")
	}
	for _, rows := range []int{chunkRows - 1, chunkRows + 1, 2*chunkRows + 63} {
		rng := rand.New(rand.NewSource(int64(rows)))
		tb := randomTable(rng, rows)
		for name, view := range scanViews(rng, tb) {
			for _, workers := range []int{1, 3} {
				withWorkers(t, workers, func() {
					for round := 0; round < 3; round++ {
						checkViewScan(t, fmt.Sprintf("%d rows, %s, %d workers", rows, name, workers), view, randomPredicateOver(rng, tb, 3))
					}
				})
			}
		}
	}
}

// TestViewMaskFollowsBaseGrowth appends to a base table after views of
// it exist: the views keep their rows, and their masks grow with the
// base rather than going stale.
func TestViewMaskFollowsBaseGrowth(t *testing.T) {
	tb := NewTable(NewSchema(Field{"X", KindInt}))
	for i := 0; i < 100; i++ {
		tb.AppendValues(Int(int64(i)))
	}
	_, ns := tb.Split(NewPolicy("low", Cmp("X", OpLt, Int(10))))
	take := tb.Take([]int32{5, 50, 99})
	if ns.Count(Cmp("X", OpGe, Int(50))) != 50 || take.Count(Cmp("X", OpGe, Int(50))) != 2 {
		t.Fatal("counts before growth")
	}
	for i := 100; i < 300; i++ {
		tb.AppendValues(Int(int64(i)))
	}
	if got := ns.Count(Cmp("X", OpGe, Int(50))); got != 50 {
		t.Errorf("split view counts %d after its base grew, want 50", got)
	}
	if got := take.Count(Cmp("X", OpGe, Int(50))); got != 2 {
		t.Errorf("take view counts %d after its base grew, want 2", got)
	}
	if got := tb.Count(Cmp("X", OpGe, Int(50))); got != 250 {
		t.Errorf("base counts %d, want 250", got)
	}
	if got := tb.SelectPhysical(nil).Count(); got != 300 {
		t.Errorf("base membership covers %d rows, want 300", got)
	}
}

// FuzzViewScanDifferential drives the masked-scan property from
// arbitrary seeds over small tables, where word edges (not chunk edges)
// are what an off-by-one would break; the seed corpus runs under plain
// `go test`.
func FuzzViewScanDifferential(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(130))
	}
	f.Fuzz(func(t *testing.T, seed int64, rows uint8) {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTable(rng, int(rows))
		for name, view := range scanViews(rng, tb) {
			checkViewScan(t, name, view, randomPredicateOver(rng, tb, 3))
		}
	})
}

// TestViewMaskConcurrentFirstUse has racing goroutines build a view's
// membership mask on first use; every count must agree.
func TestViewMaskConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := randomTable(rng, 300)
	pred := Cmp("I", OpGe, Int(0))
	for round := 0; round < 20; round++ {
		view := tb.Take(randomPositions(rng, tb.Len(), 0, tb.Len()-1))
		want := 0
		for i := 0; i < view.Len(); i++ {
			if pred.Eval(view.Record(i)) {
				want++
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := view.Count(pred); got != want {
					t.Errorf("round %d: concurrent Count = %d, want %d", round, got, want)
				}
			}()
		}
		wg.Wait()
	}
}
