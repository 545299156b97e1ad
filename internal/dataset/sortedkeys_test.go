package dataset

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// genericSortedKeys is the Value loop every float and bool column took
// before the typed distinct pass: distinct by rendering, ordered by
// Value.Compare, ties broken by the rendering. It is the oracle of
// TestSortedKeysTypedMatchesGeneric.
func genericSortedKeys(t *Table, name string) []string {
	col := t.Base().cols[t.schema.ColumnIndex(name)]
	distinct := make(map[string]Value)
	n := t.Len()
	for i := 0; i < n; i++ {
		v := col.value(t.physRow(i))
		s := v.AsString()
		if _, ok := distinct[s]; !ok {
			distinct[s] = v
		}
	}
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		c := distinct[keys[i]].Compare(distinct[keys[j]])
		if c != 0 {
			return c < 0
		}
		return keys[i] < keys[j]
	})
	return keys
}

// assertSortedKeysMatch checks every column of tb against the generic
// oracle, uncapped and at the SortedKeysUpTo boundaries: exactly as many
// distinct values as the cap is ok with every key, one more is !ok with
// nil keys, and a cap of 0 holds only an empty column.
func assertSortedKeysMatch(t *testing.T, label string, tb *Table) {
	t.Helper()
	for _, name := range tb.Schema().Names() {
		want := genericSortedKeys(tb, name)
		if got := tb.SortedKeys(name); !slices.Equal(got, want) {
			t.Errorf("%s %s: SortedKeys = %q, want %q", label, name, got, want)
		}
		got, ok := tb.SortedKeysUpTo(name, len(want))
		if !ok || !slices.Equal(got, want) {
			t.Errorf("%s %s: SortedKeysUpTo(%d) = %q, %v; want %q, true", label, name, len(want), got, ok, want)
		}
		if len(want) > 0 {
			if got, ok := tb.SortedKeysUpTo(name, len(want)-1); ok || got != nil {
				t.Errorf("%s %s: SortedKeysUpTo(%d) = %q, %v; want nil, false", label, name, len(want)-1, got, ok)
			}
		}
		if got, ok := tb.SortedKeysUpTo(name, 0); ok != (len(want) == 0) || len(got) != 0 {
			t.Errorf("%s %s: SortedKeysUpTo(0) = %q, %v with %d distinct values", label, name, got, ok, len(want))
		}
	}
}

// The typed distinct pass is byte-identical to the generic loop on every
// column kind, on base tables and views, and on the float values
// whose order or rendering is special.
func TestSortedKeysTypedMatchesGeneric(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := []float64{
		0, negZero, math.NaN(), math.Float64frombits(0x7ff8000000000bad), math.Float64frombits(0xfff8000000000001),
		math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1e21, math.MaxFloat64,
		-math.MaxFloat64, 0.1, -1.5e-7, 2, 10,
	}
	// Int values stay within ±2^53, where the generic loop's float
	// comparison is exact; wider ints are covered below.
	ints := []int64{-1 << 53, 1 << 53, 0, -1, 2, 10, 100, -100}
	strs := []string{"", "a", "B", "b", "ä", "10", "9", " x", "a,b"}

	rng := rand.New(rand.NewSource(1))
	tb := NewTable(NewSchema(
		Field{Name: "I", Kind: KindInt},
		Field{Name: "F", Kind: KindFloat},
		Field{Name: "B", Kind: KindBool},
		Field{Name: "T", Kind: KindBool},
		Field{Name: "S", Kind: KindString},
	))
	for i := 0; i < 400; i++ {
		f := floats[rng.Intn(len(floats))]
		if i%4 == 0 {
			f = rng.NormFloat64() * 1e3
		}
		tb.AppendValues(
			Int(ints[rng.Intn(len(ints))]),
			Float(f),
			Bool(rng.Intn(2) == 0),
			Bool(true),
			Str(strs[rng.Intn(len(strs))]),
		)
	}
	// Every special float appears on the base table.
	for i, f := range floats {
		tb.AppendValues(Int(0), Float(f), Bool(false), Bool(true), Str(strs[i%len(strs)]))
	}
	assertSortedKeysMatch(t, "base", tb)

	positions := make([]int32, 0, 60)
	for i := 0; i < tb.Len(); i += 7 {
		positions = append(positions, int32(i))
	}
	assertSortedKeysMatch(t, "Take", tb.Take(positions))
	assertSortedKeysMatch(t, "empty Take", tb.Take(nil))
	sens, ns := tb.Split(NewPolicy("neg", Cmp("I", OpLt, Int(0))))
	assertSortedKeysMatch(t, "Split sensitive", sens)
	assertSortedKeysMatch(t, "Split non-sensitive", ns)
	assertSortedKeysMatch(t, "Take of Split", ns.Take([]int32{0, 1, 2, 3, 5, 8, 13, 21}))
	assertSortedKeysMatch(t, "Filter", tb.Filter(Cmp("B", OpEq, Bool(true))))
	assertSortedKeysMatch(t, "empty table", NewTable(tb.Schema()))

	// The orders the generic loop implies, spelled out: -0 before 0, and
	// the one NaN key last.
	keys := tb.SortedKeys("F")
	if keys[len(keys)-1] != "NaN" {
		t.Errorf("NaN does not sort last: %q", keys)
	}
	if i, j := slices.Index(keys, "-0"), slices.Index(keys, "0"); i < 0 || j != i+1 {
		t.Errorf("-0 (at %d) does not sort just before 0 (at %d)", i, j)
	}
}

// Int columns sort numerically over the whole int64 range, where the
// generic loop's float comparison would tie neighbours beyond 2^53.
func TestSortedKeysWideInts(t *testing.T) {
	tb := NewTable(NewSchema(Field{Name: "I", Kind: KindInt}))
	for _, v := range []int64{math.MaxInt64, -(1<<53 + 1), math.MinInt64, 1<<53 + 1, -(1 << 53), 1 << 53, 0} {
		tb.AppendValues(Int(v))
	}
	want := []string{
		"-9223372036854775808", "-9007199254740993", "-9007199254740992", "0",
		"9007199254740992", "9007199254740993", "9223372036854775807",
	}
	if got := tb.SortedKeys("I"); !slices.Equal(got, want) {
		t.Errorf("SortedKeys = %q, want %q", got, want)
	}
}
