package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

const sampleCSV = `Name:string,Age:int,OptIn:bool,Income:float
alice,34,true,52000.5
bob,16,false,0
`

func TestReadCSV(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	r := tb.Record(0)
	if r.Get("Name").AsString() != "alice" || r.Get("Age").AsInt() != 34 {
		t.Errorf("record 0 = %v %v", r.Get("Name").AsString(), r.Get("Age").AsInt())
	}
	if r.Get("Income").AsFloat() != 52000.5 {
		t.Errorf("Income = %v", r.Get("Income").AsFloat())
	}
	if k, _ := tb.Schema().KindOf("OptIn"); k != KindBool {
		t.Errorf("OptIn kind = %v", k)
	}
}

func TestReadCSVDefaultsToString(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader("City\nparis\n"))
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := tb.Schema().KindOf("City"); k != KindString {
		t.Errorf("bare header kind = %v", k)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"Age:int\nnotanumber\n",
		"Flag:bool\nmaybe\n",
		"X:float\nabc\n",
		"A:int,B:int\n1\n", // ragged row
		"A:complex\n1\n",   // unknown kind
		":int\n1\n",        // empty name
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig, err := ReadCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	again, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != orig.Len() {
		t.Fatalf("round trip lost records: %d vs %d", again.Len(), orig.Len())
	}
	om, am := orig.Multiset(), again.Multiset()
	for k, c := range om {
		if am[k] != c {
			t.Fatalf("multiset mismatch at %q", k)
		}
	}
	// Schema kinds preserved.
	for _, name := range orig.Schema().Names() {
		ok, _ := orig.Schema().KindOf(name)
		ak, found := again.Schema().KindOf(name)
		if !found || ok != ak {
			t.Errorf("kind of %q not preserved", name)
		}
	}
}

func TestWriteCSVEmptyTable(t *testing.T) {
	tb := NewTable(NewSchema(Field{Name: "A", Kind: KindInt}))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "A:int\n" {
		t.Errorf("empty table CSV = %q", got)
	}
}

// A single-column record holding the empty string must survive the
// round trip: it is written as `""`, not as a blank line CSV readers
// skip.
func TestCSVRoundTripKeepsEmptySingleColumnRows(t *testing.T) {
	tb := NewTable(NewSchema(Field{Name: "S", Kind: KindString}))
	for _, v := range []string{"a", "", "b"} {
		tb.AppendValues(Str(v))
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "S:string\na\n\"\"\nb\n"; got != want {
		t.Errorf("WriteCSV = %q, want %q", got, want)
	}
	again, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != 3 {
		t.Fatalf("round trip kept %d of 3 records", again.Len())
	}
	for i, want := range []string{"a", "", "b"} {
		if got := again.Record(i).At(0).AsString(); got != want {
			t.Errorf("record %d = %q, want %q", i, got, want)
		}
	}
}

// Every table survives WriteCSV then ReadCSV with its schema and its
// records, in order: string cells come back verbatim, padding included.
func TestCSVRoundTripRandomTables(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTable(rng, rng.Intn(80))
		if seed%3 == 0 {
			tb = tb.Filter(randomPredicate(rng, 2))
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tb); err != nil {
			t.Fatalf("seed %d: WriteCSV: %v", seed, err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("seed %d: ReadCSV: %v", seed, err)
		}
		for _, name := range tb.Schema().Names() {
			want, _ := tb.Schema().KindOf(name)
			if got, ok := again.Schema().KindOf(name); !ok || got != want {
				t.Fatalf("seed %d: attribute %q came back as %v (present %v), want %v", seed, name, got, ok, want)
			}
		}
		if again.Schema().Len() != tb.Schema().Len() {
			t.Fatalf("seed %d: %d attributes came back, want %d", seed, again.Schema().Len(), tb.Schema().Len())
		}
		if got, want := orderedKeys(again), orderedKeys(tb); !sameKeys(got, want) {
			t.Fatalf("seed %d: records changed in the round trip:\n got %q\nwant %q", seed, got, want)
		}
	}
}

// writeCSVRowLoop is the record-at-a-time encoder WriteCSV replaced,
// kept verbatim as the oracle for the columnar one.
func writeCSVRowLoop(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	s := t.Schema()
	header := make([]string, s.Len())
	for i, name := range s.Names() {
		kind, _ := s.KindOf(name)
		header[i] = name + ":" + kind.String()
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing header: %w", err)
	}
	row := make([]string, s.Len())
	for _, r := range t.Records() {
		for i := 0; i < s.Len(); i++ {
			row[i] = r.At(i).AsString()
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// assertSameCSV checks that WriteCSV and the row-loop oracle emit the
// same bytes for tb.
func assertSameCSV(t *testing.T, name string, tb *Table) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteCSV(&got, tb); err != nil {
		t.Fatalf("%s: WriteCSV: %v", name, err)
	}
	if err := writeCSVRowLoop(&want, tb); err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if got.String() != want.String() {
		t.Errorf("%s: columnar encoder differs from the row loop\n got: %q\nwant: %q", name, got.String(), want.String())
	}
}

// TestWriteCSVUnevenRowsKeepsBufferSmall: a long cell in the first row
// followed by many short rows must not make WriteCSV reserve output in
// proportion to the first row's length; the writer's buffer stays within
// a small factor of what was written.
func TestWriteCSVUnevenRowsKeepsBufferSmall(t *testing.T) {
	tb := NewTable(NewSchema(Field{"S", KindString}, Field{"X", KindInt}))
	tb.AppendValues(Str(strings.Repeat("x", 70<<10)), Int(0))
	for i := 1; i < 2000; i++ {
		tb.AppendValues(Str("s"), Int(int64(i%100)))
	}
	var b bytes.Buffer
	if err := WriteCSV(&b, tb); err != nil {
		t.Fatal(err)
	}
	if b.Cap() > 4*b.Len() {
		t.Fatalf("buffer capacity %d for %d bytes of CSV", b.Cap(), b.Len())
	}
	assertSameCSV(t, "uneven rows", tb)
}

// The columnar encoder is byte-identical to the row loop on every cell
// kind, on cells that need quoting and on views; only the single-column
// empty record differs (tested above).
func TestWriteCSVMatchesRowLoop(t *testing.T) {
	negZero := math.Copysign(0, -1)
	quoted := []string{
		"plain", "a,b", `say "hi"`, "cr\rx", "lf\nx", "crlf\r\n", " lead", "\tlead",
		`\.`, `\.x`, "", `"`, "trail ", "\u00a0nbsp", "ünïcode",
	}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero, 1e21, 5e-324, 0.1, -1.5e-7, math.MaxFloat64, 0}
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 42}

	tb := NewTable(NewSchema(
		Field{Name: "S", Kind: KindString},
		Field{Name: "na,me", Kind: KindString}, // header cell that needs quoting
		Field{Name: "I", Kind: KindInt},
		Field{Name: "F", Kind: KindFloat},
		Field{Name: "B", Kind: KindBool},
	))
	for i := 0; i < 40; i++ {
		tb.AppendValues(
			Str(quoted[i%len(quoted)]),
			Str(quoted[(i*7+3)%len(quoted)]),
			Int(ints[i%len(ints)]),
			Float(floats[i%len(floats)]),
			Bool(i%3 == 0),
		)
	}
	assertSameCSV(t, "typed", tb)
	assertSameCSV(t, "Take", tb.Take([]int32{0, 3, 4, 15, 39}))
	assertSameCSV(t, "Filter", tb.Filter(Cmp("I", OpLt, Int(1))))
	sens, ns := tb.Split(NewPolicy("b", Cmp("B", OpEq, Bool(true))))
	assertSameCSV(t, "Split sensitive", sens)
	assertSameCSV(t, "Take of Split", ns.Take([]int32{1, 2, 10}))
	assertSameCSV(t, "empty Take", tb.Take(nil))

	// Many 64 KB flushes.
	big := NewTable(tb.Schema())
	for i := 0; i < 5000; i++ {
		big.Append(tb.Record(i % tb.Len()))
	}
	assertSameCSV(t, "many chunks", big)

	// Single-column tables match whenever no cell renders empty.
	one := NewTable(NewSchema(Field{Name: "S", Kind: KindString}))
	for _, v := range quoted {
		if v != "" {
			one.AppendValues(Str(v))
		}
	}
	assertSameCSV(t, "single string column", one)
	oneInt := NewTable(NewSchema(Field{Name: "I", Kind: KindInt}))
	for _, v := range ints {
		oneInt.AppendValues(Int(v))
	}
	assertSameCSV(t, "single int column", oneInt)
	assertSameCSV(t, "no columns", NewTable(NewSchema()))

	// Random multi-column tables over the differential-test value pool.
	rng := rand.New(rand.NewSource(17))
	kinds := []Kind{KindInt, KindFloat, KindString, KindBool}
	for trial := 0; trial < 50; trial++ {
		fields := make([]Field, 2+rng.Intn(3))
		for i := range fields {
			fields[i] = Field{Name: fmt.Sprintf("c%d", i), Kind: kinds[rng.Intn(len(kinds))]}
		}
		rt := NewTable(NewSchema(fields...))
		for r := rng.Intn(30); r > 0; r-- {
			vals := make([]Value, len(fields))
			for i, f := range fields {
				vals[i] = randomTypedValue(rng, f.Kind)
			}
			rt.AppendValues(vals...)
		}
		assertSameCSV(t, fmt.Sprintf("random %d", trial), rt)
		var pos []int32
		for i := 0; i < rt.Len(); i++ {
			if rng.Intn(2) == 0 {
				pos = append(pos, int32(i))
			}
		}
		assertSameCSV(t, fmt.Sprintf("random %d Take", trial), rt.Take(pos))
	}
}
