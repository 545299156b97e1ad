package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"osdp/internal/dataset"
)

// viewScanTable builds parallelTestTable's columns plus an ID column
// holding each row's physical index, with NaN in about one Score in
// twenty.
func viewScanTable(rng *rand.Rand, rows int) *dataset.Table {
	tb := dataset.NewTable(dataset.NewSchema(
		dataset.Field{Name: "ID", Kind: dataset.KindInt},
		dataset.Field{Name: "Group", Kind: dataset.KindString},
		dataset.Field{Name: "Age", Kind: dataset.KindInt},
		dataset.Field{Name: "Score", Kind: dataset.KindFloat},
		dataset.Field{Name: "Opt", Kind: dataset.KindBool},
	))
	for i := 0; i < rows; i++ {
		score := rng.Float64()*120 - 10
		if rng.Intn(20) == 0 {
			score = math.NaN()
		}
		tb.AppendValues(dataset.Int(int64(i)), dataset.Str(fmt.Sprintf("g%02d", rng.Intn(40))),
			dataset.Int(int64(rng.Intn(140)-20)), dataset.Float(score), dataset.Bool(rng.Intn(2) == 0))
	}
	return tb
}

// referenceEval is Query.Eval record at a time: the view's own records,
// the WHERE through Predicate.Eval and each dimension through BinOf.
func referenceEval(q Query, t *dataset.Table) []float64 {
	counts := make([]float64, q.Bins())
	for i := 0; i < t.Len(); i++ {
		r := t.Record(i)
		if q.Where != nil && !q.Where.Eval(r) {
			continue
		}
		bin := 0
		for _, d := range q.Dims {
			b := d.BinOf(r)
			if b < 0 {
				bin = -1
				break
			}
			bin = bin*d.Size() + b
		}
		if bin >= 0 {
			counts[bin]++
		}
	}
	return counts
}

// edgePositions returns strictly increasing positions in [lo, hi] that
// include both ends.
func edgePositions(rng *rand.Rand, lo, hi int) []int32 {
	out := []int32{int32(lo)}
	for p := lo + 1; p < hi; p++ {
		if rng.Intn(4) == 0 {
			out = append(out, int32(p))
		}
	}
	return append(out, int32(hi))
}

// TestEvalViewScanDifferential checks Query.Eval on Split, Filter and
// Take views, and on the base table, against record-at-a-time
// evaluation: on tables just below, just above and well past one 64K
// chunk, at one worker and at several, with NaN scores, Takes whose
// first and last rows sit on chunk edges, and an opaque WHERE that must
// only ever see the view's own rows.
func TestEvalViewScanDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk differential tables are slow to build")
	}
	const chunk = 1 << 16
	for _, rows := range []int{chunk - 1, chunk + 1, 2*chunk + 63} {
		rng := rand.New(rand.NewSource(int64(rows)))
		tb := viewScanTable(rng, rows)
		edge := chunk - 1 // the last row of the first chunk, or of its first word
		if edge >= rows-1 {
			edge = 63
		}
		sens, ns := tb.Split(dataset.NewPolicy("minors", dataset.Cmp("Age", dataset.OpLt, dataset.Int(18))))
		views := map[string]*dataset.Table{
			"base":           tb,
			"split-ns":       ns,
			"split-sens":     sens,
			"filter":         tb.Filter(dataset.Cmp("Score", dataset.OpGe, dataset.Float(50))),
			"take-chunk":     tb.Take(edgePositions(rng, edge, rows-1)),
			"take-head":      tb.Take(edgePositions(rng, 0, edge+1)),
			"take-of-filter": ns.Take(edgePositions(rng, 63, ns.Len()-1)),
		}
		for name, view := range views {
			member := make(map[int64]bool, view.Len())
			for i := 0; i < view.Len(); i++ {
				member[view.Record(i).Get("ID").AsInt()] = true
			}
			seen := 0
			opaque := dataset.FuncPredicate("even-id", func(r dataset.Record) bool {
				id := r.Get("ID").AsInt()
				if !member[id] {
					t.Fatalf("%d rows, %s: opaque WHERE saw row %d, which the view excludes", rows, name, id)
				}
				seen++
				return id%2 == 0
			})
			queries := append(evalQueries(tb),
				NewQuery(dataset.Cmp("Score", dataset.OpLe, dataset.Float(30)), DomainFromTable(tb, "Group")),
				NewQuery(dataset.Not(dataset.Cmp("Score", dataset.OpGt, dataset.Float(30))), NewNumericDomain("Age", 0, 10, 10)),
				NewQuery(dataset.And(dataset.Cmp("Age", dataset.OpGe, dataset.Int(30)), opaque), DomainFromTable(tb, "Group")),
				Query{Where: dataset.Cmp("Age", dataset.OpNe, dataset.Int(40)), Dims: []*Domain{ // three dimensions: evalND
					NewNumericDomain("Age", 0, 25, 4), NewNumericDomain("Score", 0, 50, 2), DomainFromTable(tb, "Group")}},
			)
			for qi, q := range queries {
				want := referenceEval(q, view)
				for _, workers := range []int{1, 3} {
					withWorkers(t, workers, func() {
						seen = 0
						got := q.Eval(view).Counts()
						if qi == len(queries)-2 && seen != view.Len() {
							t.Fatalf("%d rows, %s: opaque WHERE called %d times over %d rows", rows, name, seen, view.Len())
						}
						for b := range want {
							if got[b] != want[b] {
								t.Fatalf("%d rows, %s, %d workers, query %d: bin %d = %v, record-at-a-time %v", rows, name, workers, qi, b, got[b], want[b])
							}
						}
					})
				}
			}
		}
	}
}
