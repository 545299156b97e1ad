package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"testing"

	"osdp/internal/dataset"
	"osdp/internal/histogram"
	"osdp/internal/noise"
)

// keptFloats reads column ci of every record of rel as a float64,
// straight from the typed int or float vector.
func keptFloats(rel *dataset.Table, ci int) []float64 {
	sel := rel.Selection()
	out := make([]float64, rel.Len())
	row := func(i int) int32 {
		if sel == nil {
			return int32(i)
		}
		return sel[i]
	}
	if ints, ok := rel.ColumnInts(ci); ok {
		for i := range out {
			out[i] = float64(ints.At(int(row(i))))
		}
	} else {
		floats, _ := rel.ColumnFloats(ci)
		for i := range out {
			out[i] = floats[row(i)]
		}
	}
	return out
}

// sortOracleQuantile is the quantile as it was computed before the keep
// loop ran in value order: keep records of the partition in row order,
// gather their values, sort them and index the rank. ok is false when
// the sample is empty.
func sortOracleQuantile(ns *dataset.Table, ci int, q, eps float64, src noise.Source) (v float64, ok bool) {
	values := keptFloats(ns.Take(rrKeep(ns.Len(), eps, src)), ci)
	if len(values) == 0 {
		return 0, false
	}
	sort.Float64s(values)
	rank := max(int(math.Ceil(q*float64(len(values)))), 1)
	return values[rank-1], true
}

// quantileSchema has a sensitivity flag, an int column and a float
// column.
func quantileSchema() *dataset.Schema {
	return dataset.NewSchema(
		dataset.Field{Name: "Hide", Kind: dataset.KindBool},
		dataset.Field{Name: "I", Kind: dataset.KindInt},
		dataset.Field{Name: "F", Kind: dataset.KindFloat},
	)
}

func hidePolicy() dataset.Policy {
	return dataset.NewPolicy("hide", dataset.Cmp("Hide", dataset.OpEq, dataset.Bool(true)))
}

// quantileTable holds ties in both columns, NaN and both zeros in F,
// and sensitive rows whose values (±1000) no non-sensitive row has, so
// a quantile that reads a sensitive row shows up as a value of its own.
func quantileTable() *dataset.Table {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	ints := []int64{3, 3, 3, 1, 1, 7, 7, 7, 7, 2, 9, 9, 5, 5, 5, 5, 0, -4, -4, 3, 1, 7}
	floats := []float64{nan, 1.5, negZero, 0, 0, negZero, 1.5, 1.5, -2.25, 1.5, 8, 8, nan, 0.5, 0, negZero, 8, -2.25, 0.5, 1.5, nan, 8}
	db := dataset.NewTable(quantileSchema())
	for i := range ints {
		if i%5 == 2 {
			db.AppendValues(dataset.Bool(true), dataset.Int(1000), dataset.Float(-1000))
		}
		db.AppendValues(dataset.Bool(false), dataset.Int(ints[i]), dataset.Float(floats[i]))
	}
	return db
}

// valueKey names a released value for counting: −0 and +0 are one
// value (sort.Float64s treats them as equal, so the sort path returns
// either), every NaN is "NaN", and an empty sample is "empty".
func valueKey(v float64, ok bool) string {
	switch {
	case !ok:
		return "empty"
	case math.IsNaN(v):
		return "NaN"
	case v == 0:
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// quantileDraw releases one quantile and names it with valueKey.
type quantileDraw func() string

// homogeneous runs a and b trials times each and checks, with a
// two-sample chi-square test, that they release values with the same
// distribution. Values seen fewer than 10 times in both runs together
// are pooled into one category, so each expected count is at least 5.
func homogeneous(a, b quantileDraw, trials int) error {
	ca, cb := map[string]int{}, map[string]int{}
	for i := 0; i < trials; i++ {
		ca[a()]++
		cb[b()]++
	}
	keys := map[string]bool{}
	for k := range ca {
		keys[k] = true
	}
	for k := range cb {
		keys[k] = true
	}
	var chi2 float64
	cats, poolA, poolB := 0, 0, 0
	for k := range keys {
		if ca[k]+cb[k] < 10 {
			poolA += ca[k]
			poolB += cb[k]
			continue
		}
		d := float64(ca[k] - cb[k])
		chi2 += d * d / float64(ca[k]+cb[k])
		cats++
	}
	if poolA+poolB > 0 {
		d := float64(poolA - poolB)
		chi2 += d * d / float64(poolA+poolB)
		cats++
	}
	if cats < 2 {
		for k := range keys {
			if ca[k] != cb[k] {
				return fmt.Errorf("one category %q, counts %d vs %d", k, ca[k], cb[k])
			}
		}
		return nil
	}
	if limit := chiSquareUpper(cats-1, 5); chi2 > limit {
		return fmt.Errorf("chi-square %.1f over %d categories exceeds %.1f (%v vs %v)", chi2, cats, limit, ca, cb)
	}
	return nil
}

var quantileQs = []float64{0, 0.1, 0.5, 1}

// Session.Quantile, which keeps records in value order and looks the
// answer up in the partition's sorted runs, releases values with the
// same distribution as the row-order keep, gather and sort it replaced,
// on int and float columns with ties, NaN and both zeros.
func TestQuantileMatchesSortOracle(t *testing.T) {
	const eps, trials = 0.7, 20000
	db := quantileTable()
	_, ns := db.Split(hidePolicy())
	for _, attr := range []string{"I", "F"} {
		ci := db.Schema().ColumnIndex(attr)
		for i, q := range quantileQs {
			sess := NewSessionWithPartition(db, ns, hidePolicy(), 0, noise.NewSource(int64(100+i)))
			oracleSrc := noise.NewSource(int64(200 + i))
			served := func() string {
				v, err := sess.Quantile(attr, q, eps)
				if err != nil && !errors.Is(err, ErrEmptySample) {
					t.Fatal(err)
				}
				return valueKey(v, err == nil)
			}
			oracle := func() string { return valueKey(sortOracleQuantile(ns, ci, q, eps, oracleSrc)) }
			if err := homogeneous(served, oracle, trials); err != nil {
				t.Errorf("%s, q=%v: %v", attr, q, err)
			}
		}
	}
}

// When every record is kept (ε = 40 keeps all with probability
// 1 − 22·e^(−40)), the quantile is a fixed value, and Session.Quantile
// must return exactly the sort path's value at every q.
func TestQuantileMatchesSortOracleAtFullKeep(t *testing.T) {
	const eps = 40
	db := quantileTable()
	_, ns := db.Split(hidePolicy())
	sess := NewSessionWithPartition(db, ns, hidePolicy(), 0, noise.NewSource(1))
	for _, attr := range []string{"I", "F"} {
		ci := db.Schema().ColumnIndex(attr)
		for q := 0.0; q <= 1; q += 0.025 {
			got, err := sess.Quantile(attr, q, eps)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := sortOracleQuantile(ns, ci, q, eps, noise.NewSource(2))
			if valueKey(got, true) != valueKey(want, true) {
				t.Errorf("%s, q=%v: %v, sort path %v", attr, q, got, want)
			}
		}
	}
}

// The chi-square check has the power to tell the sort path from a
// version of it that reads one rank too high.
func TestQuantileOracleCheckNegativeControl(t *testing.T) {
	const eps, trials = 0.7, 20000
	db := quantileTable()
	_, ns := db.Split(hidePolicy())
	ci := db.Schema().ColumnIndex("I")
	srcA, srcB := noise.NewSource(300), noise.NewSource(301)
	oracle := func() string { return valueKey(sortOracleQuantile(ns, ci, 0.5, eps, srcA)) }
	shifted := func() string {
		values := keptFloats(ns.Take(rrKeep(ns.Len(), eps, srcB)), ci)
		if len(values) == 0 {
			return valueKey(0, false)
		}
		sort.Float64s(values)
		rank := max(int(math.Ceil(0.5*float64(len(values)))), 1)
		return valueKey(values[min(rank, len(values)-1)], true)
	}
	if err := homogeneous(oracle, shifted, trials); err == nil {
		t.Error("chi-square check accepted a quantile one rank too high")
	}
}

// The runs are rebuilt when the base table grows: a quantile over a
// base table sees rows appended after the first quantile, and a
// partition view, whose rows are fixed, keeps answering from them.
func TestQuantileRunsAfterAppend(t *testing.T) {
	const eps = 40 // keeps every record: the maximum is exact
	s := testSchema()
	db := testDB(s, 30, 12, 45, 50)
	whole := NewSessionWithPartition(db, db, dataset.AllNonSensitive(), 0, noise.NewSource(1))
	_, ns := db.Split(minorsPolicy())
	part := NewSessionWithPartition(db, ns, minorsPolicy(), 0, noise.NewSource(2))
	ci := s.ColumnIndex("Age")
	for _, sess := range []*Session{whole, part} {
		if v, err := sess.Quantile("Age", 1, eps); err != nil || v != 50 {
			t.Fatalf("max before append = %v, %v; want 50", v, err)
		}
	}
	db.Append(rec(s, 4, 70))
	if ns.CachedSortedRuns(ci) != nil {
		t.Error("partition runs still cached after the base grew")
	}
	if v, err := whole.Quantile("Age", 1, eps); err != nil || v != 70 {
		t.Errorf("base max after append = %v, %v; want 70", v, err)
	}
	if v, err := part.Quantile("Age", 1, eps); err != nil || v != 50 {
		t.Errorf("partition max after append = %v, %v; want 50 (a view keeps its rows)", v, err)
	}
	if r := ns.CachedSortedRuns(ci); r == nil || r.Rows() != 3 {
		t.Errorf("partition runs after append = %+v, want rebuilt over its 3 rows", r)
	}
}

// Many goroutines taking the first quantile of a fresh partition at
// once all build or reuse equal runs and release only non-sensitive
// values. Run it under -race.
func TestQuantileConcurrentFirstUse(t *testing.T) {
	db := quantileTable()
	_, ns := db.Split(hidePolicy())
	sess := NewSessionWithPartition(db, ns, hidePolicy(), 0, noise.NewSecureSource())
	allowed := map[string]bool{"empty": true}
	for _, v := range keptFloats(ns, db.Schema().ColumnIndex("I")) {
		allowed[valueKey(v, true)] = true
	}
	for _, v := range keptFloats(ns, db.Schema().ColumnIndex("F")) {
		allowed[valueKey(v, true)] = true
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				attr := []string{"I", "F"}[(g+i)%2]
				v, err := sess.Quantile(attr, 0.5, 0.7)
				if err != nil && !errors.Is(err, ErrEmptySample) {
					errs <- err
					return
				}
				if k := valueKey(v, err == nil); !allowed[k] {
					errs <- fmt.Errorf("%s released %s, not a non-sensitive value", attr, k)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, attr := range []string{"I", "F"} {
		if r := ns.CachedSortedRuns(db.Schema().ColumnIndex(attr)); r == nil || r.Rows() != ns.Len() {
			t.Errorf("%s runs after concurrent first use = %+v, want %d rows", attr, r, ns.Len())
		}
	}
}

// countingSource counts the uniforms drawn from it. It has no bulk
// fill, so every uniform is one Float64 call.
type countingSource struct {
	src   noise.Source
	draws int
}

func (c *countingSource) Float64() float64 {
	c.draws++
	return c.src.Float64()
}

// The keep loop sizes its uniform chunks to the keeps still expected:
// RRSampleHistogram over 4096 small bins draws about one uniform per
// keep plus one or two per bin, not a full chunk per bin.
func TestRRSampleHistogramDrawsScaleWithKeeps(t *testing.T) {
	const bins, eps = 4096, 0.1
	p := noise.KeepProbability(eps)
	x := histogram.New(bins + 1)
	expected := 0.0
	for i := 0; i < bins; i++ {
		x.SetCount(i, float64(i%4))
		expected += float64(i%4) * p
	}
	x.SetCount(bins, 100000) // one large bin draws in full chunks
	expected += 100000 * p
	src := &countingSource{src: noise.NewSource(9)}
	RRSampleHistogram(x, eps, src)
	if limit := 2*expected + 2*float64(bins) + keepChunk; float64(src.draws) > limit {
		t.Errorf("drew %d uniforms for %.0f expected keeps over %d bins, want at most %.0f", src.draws, expected, bins, limit)
	}
}
