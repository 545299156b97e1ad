package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// FuzzReadCSV checks the CSV loader never panics on arbitrary input and
// that whatever it accepts survives a write/read round trip unchanged.
func FuzzReadCSV(f *testing.F) {
	f.Add("Name:string,Age:int\nalice,34\n")
	f.Add("A:int\n1\n2\n3\n")
	f.Add("X:bool,Y:float\ntrue,2.5\n")
	f.Add("")
	f.Add("A:int\nnot-a-number\n")
	f.Add("::::\n,,,\n")
	f.Add("A\n\"quoted, field\"\n")
	f.Fuzz(func(t *testing.T, input string) {
		tb, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tb); err != nil {
			t.Fatalf("accepted table failed to serialise: %v", err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if got, want := orderedKeys(again), orderedKeys(tb); !sameKeys(got, want) {
			t.Fatalf("round trip changed the records:\n got %q\nwant %q", got, want)
		}
	})
}

// --- Differential testing: columnar vs row-oriented reference. ---
//
// The columnar engine (vectorized Select/Filter/Count/GroupCount/Split)
// must agree EXACTLY with evaluating the same predicate record-by-record,
// on arbitrary tables — including strings containing the key separator
// and comparisons against values of every kind.

// randomValue draws from small pools so collisions (and thus interesting
// group/filter structure) are common. Includes cross-kind temptations:
// numeric strings, \x1f separators, negative zero; and strings a CSV
// round trip must keep verbatim: padded, quoted, multi-line and empty.
func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(4) {
	case 0:
		return Int(int64(rng.Intn(7) - 3))
	case 1:
		f := []float64{-1.5, 0, math_NegZero, 0.5, 2, 10, math.NaN()}[rng.Intn(7)]
		return Float(f)
	case 2:
		return Str([]string{"", "a", "b", "2", "10", "a\x1fb", `x\`, "true", " x", "x ", "a,b", "line\nbreak"}[rng.Intn(12)])
	default:
		return Bool(rng.Intn(2) == 0)
	}
}

var math_NegZero = func() float64 { z := 0.0; return -z }()

func randomTypedValue(rng *rand.Rand, k Kind) Value {
	for {
		v := randomValue(rng)
		if v.Kind() == k {
			return v
		}
	}
}

// randomTable builds a table over a 4-kind schema, each cell drawn from
// the pool of its column's kind (Append rejects any other). Predicates
// still compare columns against values of every kind, so the
// row-independent cross-kind verdicts (constBitset) stay covered.
func randomTable(rng *rand.Rand, rows int) *Table {
	s := NewSchema(
		Field{"I", KindInt},
		Field{"F", KindFloat},
		Field{"S", KindString},
		Field{"B", KindBool},
	)
	tb := NewTable(s)
	kinds := []Kind{KindInt, KindFloat, KindString, KindBool}
	for r := 0; r < rows; r++ {
		vals := make([]Value, 4)
		for c, k := range kinds {
			vals[c] = randomTypedValue(rng, k)
		}
		tb.Append(NewRecord(s, vals...))
	}
	return tb
}

// randomPredicate builds a depth-bounded predicate tree over the schema.
func randomPredicate(rng *rand.Rand, depth int) Predicate {
	attrs := []string{"I", "F", "S", "B"}
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(8) {
		case 0:
			return True()
		case 1:
			return False()
		default:
			attr := attrs[rng.Intn(len(attrs))]
			op := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}[rng.Intn(6)]
			return Cmp(attr, op, randomValue(rng)) // value kind may mismatch the column
		}
	}
	switch rng.Intn(3) {
	case 0:
		return Not(randomPredicate(rng, depth-1))
	case 1:
		n := rng.Intn(3)
		ps := make([]Predicate, n)
		for i := range ps {
			ps[i] = randomPredicate(rng, depth-1)
		}
		return And(ps...)
	default:
		n := rng.Intn(3)
		ps := make([]Predicate, n)
		for i := range ps {
			ps[i] = randomPredicate(rng, depth-1)
		}
		return Or(ps...)
	}
}

// orderedKeys renders the table's records as keys in storage order.
func orderedKeys(t *Table) []string {
	out := make([]string, t.Len())
	for i := 0; i < t.Len(); i++ {
		out[i] = t.Record(i).Key()
	}
	return out
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkColumnarAgreement runs one differential round: vectorized
// operations vs the record-at-a-time reference.
func checkColumnarAgreement(t *testing.T, tb *Table, pred Predicate) {
	t.Helper()

	// Reference: record-by-record evaluation through the row API.
	var refKept []string
	refCount := 0
	for _, r := range tb.Records() {
		if pred.Eval(r) {
			refKept = append(refKept, r.Key())
			refCount++
		}
	}
	if got := tb.Count(pred); got != refCount {
		t.Fatalf("Count(%s) = %d, reference = %d", pred, got, refCount)
	}
	if got := orderedKeys(tb.Filter(pred)); !sameKeys(got, refKept) {
		t.Fatalf("Filter(%s) disagrees with reference:\n got %q\nwant %q", pred, got, refKept)
	}
	bits := tb.Select(pred)
	for i := 0; i < tb.Len(); i++ {
		if bits.Get(i) != pred.Eval(tb.Record(i)) {
			t.Fatalf("Select(%s) bit %d disagrees with Eval", pred, i)
		}
	}

	// GroupCount vs reference map.
	for _, attr := range tb.Schema().Names() {
		ci := tb.Schema().ColumnIndex(attr)
		ref := make(map[string]int)
		for _, r := range tb.Records() {
			ref[r.At(ci).AsString()]++
		}
		got := tb.GroupCount(attr)
		if len(got) != len(ref) {
			t.Fatalf("GroupCount(%s) has %d groups, reference %d", attr, len(got), len(ref))
		}
		for k, n := range ref {
			if got[k] != n {
				t.Fatalf("GroupCount(%s)[%q] = %d, reference %d", attr, k, got[k], n)
			}
		}
	}

	// Split vs reference partition (order-preserving).
	pol := NewPolicy("fuzz", pred)
	var refSens, refNS []string
	for _, r := range tb.Records() {
		if pol.Sensitive(r) {
			refSens = append(refSens, r.Key())
		} else {
			refNS = append(refNS, r.Key())
		}
	}
	sens, ns := tb.Split(pol)
	if !sameKeys(orderedKeys(sens), refSens) || !sameKeys(orderedKeys(ns), refNS) {
		t.Fatalf("Split(%s) disagrees with reference partition", pred)
	}
}

// FuzzColumnarDifferential drives the differential property from
// arbitrary seeds; the seed corpus doubles as a deterministic regression
// suite under plain `go test`.
func FuzzColumnarDifferential(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed int64, rows uint8) {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTable(rng, int(rows)%200)
		pred := randomPredicate(rng, 3)
		checkColumnarAgreement(t, tb, pred)

		// Same property on a view (filtered subset) of the table.
		sub := tb.Filter(randomPredicate(rng, 2))
		checkColumnarAgreement(t, sub, randomPredicate(rng, 3))
	})
}

// TestColumnarDifferentialSweep runs many seeded rounds so CI exercises
// the property broadly even without fuzzing.
func TestColumnarDifferentialSweep(t *testing.T) {
	for seed := int64(100); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTable(rng, rng.Intn(120))
		checkColumnarAgreement(t, tb, randomPredicate(rng, 4))
		sub := tb.Filter(randomPredicate(rng, 2))
		checkColumnarAgreement(t, sub, randomPredicate(rng, 4))
	}
}

// FuzzPredicateEval checks comparison predicates never panic over
// arbitrary typed values.
func FuzzPredicateEval(f *testing.F) {
	f.Add(int64(5), "x", true, 2.5)
	f.Fuzz(func(t *testing.T, n int64, s string, b bool, fl float64) {
		schema := NewSchema(
			Field{Name: "I", Kind: KindInt},
			Field{Name: "S", Kind: KindString},
			Field{Name: "B", Kind: KindBool},
			Field{Name: "F", Kind: KindFloat},
		)
		r := NewRecord(schema, Int(n), Str(s), Bool(b), Float(fl))
		for _, op := range []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
			Cmp("I", op, Int(n)).Eval(r)
			Cmp("S", op, Str(s)).Eval(r)
			Cmp("B", op, Bool(b)).Eval(r)
			Cmp("F", op, Float(fl)).Eval(r)
			Cmp("I", op, Str(s)).Eval(r) // cross-kind comparisons too
		}
	})
}
