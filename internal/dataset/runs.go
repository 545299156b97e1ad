package dataset

import (
	"fmt"
	"math"
	"slices"
)

// SortedRuns is a numeric column of a table in sort.Float64s order (NaN
// first, then ascending), held as runs of equal values: run i holds
// the value values[i] at sorted positions [ends[i-1], ends[i]), with
// ends[-1] = 0. Int values are converted to float64 first, as a
// quantile reads them. −0 and +0, which sort.Float64s leaves in either
// order, are two runs, −0 first. Its size is O(distinct values), not
// O(rows): 82 runs for an Age column of 0..99 over any number of rows.
// A SortedRuns is immutable once built.
type SortedRuns struct {
	values []float64
	ends   []int32
	base   int // Base().nrows when built; see Table.SortedRuns
}

// Len returns the number of runs (distinct values, counting every NaN
// as one value and −0 apart from +0).
func (r *SortedRuns) Len() int { return len(r.values) }

// Rows returns the number of values the runs hold: the table's length.
func (r *SortedRuns) Rows() int {
	if len(r.ends) == 0 {
		return 0
	}
	return int(r.ends[len(r.ends)-1])
}

// At returns the value at position pos in [0, Rows()) of the sorted
// column: the value of the first run that ends after pos.
func (r *SortedRuns) At(pos int) float64 {
	if pos < 0 || pos >= r.Rows() {
		panic(fmt.Sprintf("dataset: sorted position %d out of range [0, %d)", pos, r.Rows()))
	}
	i, _ := slices.BinarySearch(r.ends, int32(pos)+1)
	return r.values[i]
}

// SortedRuns returns column ci of the table (its own rows, not its
// base's) as sorted runs, and false when the column is not int or
// float. The runs are cached on the table like its membership mask:
// built on first use, again if the base table has grown since, and
// racing builders store equal runs, so whichever lands last serves
// every caller alike. A build gathers and sorts the column's values
// once (O(n log n), a transient O(n) buffer); CachedSortedRuns tells a
// caller whether a call would pay it. SortedRuns is safe for concurrent
// use with other reads of the table.
func (t *Table) SortedRuns(ci int) (*SortedRuns, bool) {
	if k := t.Base().cols[ci].kind; k != KindInt && k != KindFloat {
		return nil, false
	}
	if r := t.CachedSortedRuns(ci); r != nil {
		return r, true
	}
	r := t.buildSortedRuns(ci) // outside the lock: it sorts the column
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.runs == nil {
		t.runs = make(map[int]*SortedRuns)
	}
	t.runs[ci] = r
	return r, true
}

// CachedSortedRuns returns the runs SortedRuns would return without
// building them: nil when column ci's runs have not been built, or
// the base table has grown since.
func (t *Table) CachedSortedRuns(ci int) *SortedRuns {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.runs[ci]; r != nil && r.base == t.Base().nrows {
		return r
	}
	return nil
}

// buildSortedRuns gathers column ci over the table's rows as float64,
// sorts it, and folds it into runs.
func (t *Table) buildSortedRuns(ci int) *SortedRuns {
	c := t.Base().cols[ci]
	vs := make([]float64, t.Len())
	for i := range vs {
		p := t.physRow(i)
		if c.kind == KindInt {
			vs[i] = float64(c.ints.at(p))
		} else {
			vs[i] = c.floats[p]
		}
	}
	slices.Sort(vs) // the sort.Float64s order: NaN first
	r := &SortedRuns{base: t.Base().nrows}
	add := func(v float64, end int) {
		r.values = append(r.values, v)
		r.ends = append(r.ends, int32(end))
	}
	for i := 0; i < len(vs); {
		v := vs[i]
		j := i + 1
		for j < len(vs) && (vs[j] == v || math.IsNaN(v) && math.IsNaN(vs[j])) {
			j++
		}
		if v == 0 {
			// The sort left −0 and +0 mixed; count the −0s and put
			// them first.
			neg := 0
			for _, z := range vs[i:j] {
				if math.Signbit(z) {
					neg++
				}
			}
			if neg > 0 {
				add(math.Copysign(0, -1), i+neg)
			}
			if neg < j-i {
				add(0, j)
			}
		} else {
			add(v, j)
		}
		i = j
	}
	return r
}
