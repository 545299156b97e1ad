package dataset

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Regression: values containing the key separator \x1f (or the escape
// byte) must not alias distinct records.
func TestRecordKeyNoSeparatorAliasing(t *testing.T) {
	s := NewSchema(Field{"A", KindString}, Field{"B", KindString})
	cases := [][2]Record{
		{NewRecord(s, Str("a\x1fb"), Str("c")), NewRecord(s, Str("a"), Str("b\x1fc"))},
		{NewRecord(s, Str("a\x1f"), Str("b")), NewRecord(s, Str("a"), Str("\x1fb"))},
		{NewRecord(s, Str(`a\`), Str("b")), NewRecord(s, Str("a"), Str(`\b`))},
		{NewRecord(s, Str(`a\u`), Str("")), NewRecord(s, Str(`a`), Str(`u`))},
		{NewRecord(s, Str(`\`), Str(`\`)), NewRecord(s, Str(`\\`), Str(``))},
	}
	for i, c := range cases {
		if c[0].Key() == c[1].Key() {
			t.Errorf("case %d: distinct records alias to key %q", i, c[0].Key())
		}
	}
	// Identical records must still agree.
	r1 := NewRecord(s, Str("x\x1fy"), Str(`z\`))
	r2 := NewRecord(s, Str("x\x1fy"), Str(`z\`))
	if r1.Key() != r2.Key() {
		t.Error("identical records produced different keys")
	}
}

// Regression: SortedKeys over an integer attribute must sort by value,
// not lexicographically ("2" before "10"), or data-derived histogram
// domains get scrambled bins.
func TestSortedKeysNumericOrder(t *testing.T) {
	s := NewSchema(Field{"N", KindInt}, Field{"F", KindFloat}, Field{"S", KindString})
	tb := NewTable(s)
	for _, n := range []int64{10, 2, -3, 100, 2} {
		tb.AppendValues(Int(n), Float(float64(n)/2), Str(fmt.Sprint(n)))
	}
	gotInt := tb.SortedKeys("N")
	wantInt := []string{"-3", "2", "10", "100"}
	if fmt.Sprint(gotInt) != fmt.Sprint(wantInt) {
		t.Errorf("SortedKeys(int) = %v, want %v", gotInt, wantInt)
	}
	gotFloat := tb.SortedKeys("F")
	wantFloat := []string{"-1.5", "1", "5", "50"}
	if fmt.Sprint(gotFloat) != fmt.Sprint(wantFloat) {
		t.Errorf("SortedKeys(float) = %v, want %v", gotFloat, wantFloat)
	}
	// Strings keep lexicographic order.
	gotStr := tb.SortedKeys("S")
	wantStr := []string{"-3", "10", "100", "2"}
	if fmt.Sprint(gotStr) != fmt.Sprint(wantStr) {
		t.Errorf("SortedKeys(string) = %v, want %v", gotStr, wantStr)
	}
}

// The policy split must be computed once per (table, policy) no matter
// how many sessions ask, including concurrently.
func TestSplitComputedOncePerPolicy(t *testing.T) {
	s := NewSchema(Field{"X", KindInt})
	tb := NewTable(s)
	const rows = 500
	for i := 0; i < rows; i++ {
		tb.AppendValues(Int(int64(i)))
	}
	var evals atomic.Int64
	pred := FuncPredicate("counting", func(r Record) bool {
		evals.Add(1)
		return r.Get("X").AsInt()%2 == 0
	})
	p := NewPolicy("even", pred)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sens, ns := tb.Split(p)
			if sens.Len()+ns.Len() != rows {
				t.Error("split does not partition")
			}
		}()
	}
	wg.Wait()
	if got := evals.Load(); got != rows {
		t.Errorf("predicate evaluated %d times, want exactly %d (one pass)", got, rows)
	}
	sb, nb := tb.SplitBits(p)
	if sb.Count() != 250 || nb.Count() != 250 {
		t.Errorf("SplitBits counts = (%d, %d), want (250, 250)", sb.Count(), nb.Count())
	}
	if evals.Load() != rows {
		t.Error("SplitBits recomputed a cached split")
	}
}

// Filter and Split return views sharing storage; appending to a view must
// detach it (copy-on-append) without disturbing the parent.
func TestViewCopyOnAppend(t *testing.T) {
	s := NewSchema(Field{"X", KindInt}, Field{"S", KindString})
	tb := NewTable(s)
	for i := 0; i < 10; i++ {
		tb.AppendValues(Int(int64(i)), Str(fmt.Sprintf("v%d", i%3)))
	}
	v := tb.Filter(Cmp("X", OpLt, Int(5)))
	if v.Len() != 5 {
		t.Fatalf("view len = %d, want 5", v.Len())
	}
	if v.Base() != tb {
		t.Error("filter result does not share the parent's storage")
	}
	v.AppendValues(Int(99), Str("new"))
	if v.Len() != 6 || tb.Len() != 10 {
		t.Errorf("after append: view=%d parent=%d, want 6/10", v.Len(), tb.Len())
	}
	if v.Base() == tb {
		t.Error("append did not detach the view")
	}
	if got := v.Record(5).Get("X").AsInt(); got != 99 {
		t.Errorf("appended row reads %d, want 99", got)
	}
	if got := tb.Record(9).Get("X").AsInt(); got != 9 {
		t.Errorf("parent corrupted: row 9 reads %d", got)
	}
}

// Views of views (Filter of a Split partition) must compose selections
// correctly.
func TestNestedViews(t *testing.T) {
	s := NewSchema(Field{"X", KindInt})
	tb := NewTable(s)
	for i := 0; i < 100; i++ {
		tb.AppendValues(Int(int64(i)))
	}
	_, ns := tb.Split(NewPolicy("low", Cmp("X", OpLt, Int(50)))) // ns = 50..99
	v := ns.Filter(Cmp("X", OpGe, Int(90)))                      // 90..99
	if v.Len() != 10 {
		t.Fatalf("nested view len = %d, want 10", v.Len())
	}
	if v.Base() != tb {
		t.Error("nested view should root at the base table")
	}
	sum := int64(0)
	for i := 0; i < v.Len(); i++ {
		sum += v.Record(i).Get("X").AsInt()
	}
	if sum != 945 { // 90+..+99
		t.Errorf("nested view sum = %d, want 945", sum)
	}
	// Split of a view stays view-rooted too.
	sensV, nsV := v.Split(NewPolicy("odd", FuncPredicate("odd", func(r Record) bool {
		return r.Get("X").AsInt()%2 == 1
	})))
	if sensV.Len() != 5 || nsV.Len() != 5 {
		t.Errorf("view split = (%d, %d), want (5, 5)", sensV.Len(), nsV.Len())
	}
}

// Append rejects a standalone record holding a value whose kind differs
// from its attribute's, before changing anything: the table, its split
// cache and any view over it are left as they were. Row views need no
// check, since the table they read from holds declared kinds only.
func TestAppendRejectsMismatchedKind(t *testing.T) {
	kinds := []Kind{KindInt, KindFloat, KindString, KindBool}
	sample := map[Kind]Value{KindInt: Int(7), KindFloat: Float(0.5), KindString: Str("7"), KindBool: Bool(true)}
	mustPanic := func(t *testing.T, wantParts []string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			msg, _ := r.(string)
			if r == nil {
				t.Fatal("Append accepted a value of another kind")
			}
			for _, part := range wantParts {
				if !strings.Contains(msg, part) {
					t.Errorf("panic %q does not name %q", msg, part)
				}
			}
		}()
		f()
	}
	for _, colKind := range kinds {
		for _, valKind := range kinds {
			if colKind == valKind {
				continue
			}
			t.Run(colKind.String()+"/"+valKind.String(), func(t *testing.T) {
				s := NewSchema(Field{"Other", KindInt}, Field{"Col", colKind})
				tb := NewTable(s)
				tb.AppendValues(Int(1), sample[colKind])
				tb.AppendValues(Int(2), sample[colKind])
				want := orderedKeys(tb)
				sens, _ := tb.SplitBits(NewPolicy("one", Cmp("Other", OpEq, Int(1))))
				view := tb.Take([]int32{1})

				// The good first record must not land either.
				good := NewRecord(s, Int(3), sample[colKind])
				bad := NewRecord(s, Int(4), sample[valKind])
				wantParts := []string{`"Col"`, colKind.String(), valKind.String()}
				mustPanic(t, wantParts, func() { tb.Append(good, bad) })
				mustPanic(t, wantParts, func() { view.Append(good, bad) })

				if got := orderedKeys(tb); !sameKeys(got, want) {
					t.Errorf("table after rejected Append = %q, want %q", got, want)
				}
				if again, _ := tb.SplitBits(NewPolicy("one", Cmp("Other", OpEq, Int(1)))); again != sens {
					t.Error("rejected Append dropped the split cache")
				}
				if view.Base() != tb || view.Len() != 1 || view.Record(0).Key() != want[1] {
					t.Errorf("rejected Append changed the view: base %p (table %p), %d rows", view.Base(), tb, view.Len())
				}
			})
		}
	}

	// Row views, from this table, a view of it or another table of the
	// same schema, are accepted as they are.
	s := NewSchema(Field{"X", KindInt}, Field{"S", KindString})
	src := NewTable(s)
	src.AppendValues(Int(1), Str("a"))
	src.AppendValues(Int(2), Str("b"))
	dst := NewTable(s)
	dst.Append(src.Records()...)
	dst.Append(src.Take([]int32{1}).Record(0))
	dst.Append(dst.Record(0))
	if dst.Len() != 4 {
		t.Fatalf("row-view appends kept %d of 4 records", dst.Len())
	}
	for i, want := range []string{"a", "b", "b", "a"} {
		if got := dst.Record(i).Get("S"); got.Kind() != KindString || got.AsString() != want {
			t.Errorf("row %d S = %v %q, want string %q", i, got.Kind(), got.AsString(), want)
		}
	}
}

// Regression: two policies whose predicates render identically but
// compare values of different KINDS (Str("true") vs Bool(true)) must not
// share a split-cache slot — serving one policy's partition for the
// other would be a silent privacy violation.
func TestSplitCacheIsKindAware(t *testing.T) {
	s := NewSchema(Field{"Flag", KindString})
	tb := NewTable(s)
	tb.AppendValues(Str("true"))
	tb.AppendValues(Str("x"))
	tb.AppendValues(Str("true"))

	strPol := NewPolicy("p", Cmp("Flag", OpEq, Str("true")))
	boolPol := NewPolicy("p", Cmp("Flag", OpEq, Bool(true)))
	if strPol.String() != boolPol.String() {
		t.Fatalf("precondition lost: renderings differ (%q vs %q)", strPol, boolPol)
	}

	sensStr, _ := tb.Split(strPol) // primes the cache first
	sensBool, _ := tb.Split(boolPol)
	if sensStr.Len() != 2 {
		t.Errorf("string policy marked %d sensitive, want 2", sensStr.Len())
	}
	// String-vs-bool comparison is decided by kind order: never equal.
	if sensBool.Len() != 0 {
		t.Errorf("bool policy marked %d sensitive, want 0 (cache aliased distinct policies?)", sensBool.Len())
	}
}

// Regression: two same-NAMED FuncPredicates wrapping different functions
// (e.g. two learned policies from differently-trained models) must not
// share a split-cache slot.
func TestSplitCacheFuncPredicateIdentity(t *testing.T) {
	s := NewSchema(Field{"X", KindInt})
	tb := NewTable(s)
	for i := 0; i < 10; i++ {
		tb.AppendValues(Int(int64(i)))
	}
	even := NewPolicy("learned", FuncPredicate("learned(p)", func(r Record) bool {
		return r.Get("X").AsInt()%2 == 0
	}))
	low := NewPolicy("learned", FuncPredicate("learned(p)", func(r Record) bool {
		return r.Get("X").AsInt() < 3
	}))
	sensEven, _ := tb.Split(even)
	sensLow, _ := tb.Split(low)
	if sensEven.Len() != 5 {
		t.Errorf("even policy marked %d sensitive, want 5", sensEven.Len())
	}
	if sensLow.Len() != 3 {
		t.Errorf("low policy marked %d sensitive, want 3 (cache aliased same-named functions?)", sensLow.Len())
	}
	// The same policy VALUE still hits the cache (see
	// TestSplitComputedOncePerPolicy for the strict once-only property).
	again, _ := tb.Split(even)
	if again.Len() != 5 {
		t.Errorf("cached policy re-split wrong: %d", again.Len())
	}
}

// The split cache is bounded: sweeping many policies over one table must
// not pin memory per policy forever, and evicted entries recompute
// correctly.
func TestSplitCacheBounded(t *testing.T) {
	s := NewSchema(Field{"X", KindInt})
	tb := NewTable(s)
	for i := 0; i < 50; i++ {
		tb.AppendValues(Int(int64(i)))
	}
	for thr := 0; thr < 3*maxSplitCacheEntries; thr++ {
		sens, _ := tb.Split(NewPolicy("sweep", Cmp("X", OpLt, Int(int64(thr)))))
		if sens.Len() != thr {
			t.Fatalf("threshold %d: %d sensitive", thr, sens.Len())
		}
	}
	tb.mu.Lock()
	n := len(tb.splits)
	tb.mu.Unlock()
	if n > maxSplitCacheEntries {
		t.Errorf("split cache holds %d entries, cap is %d", n, maxSplitCacheEntries)
	}
	// A previously evicted policy still splits correctly on recompute.
	sens, _ := tb.Split(NewPolicy("sweep", Cmp("X", OpLt, Int(1))))
	if sens.Len() != 1 {
		t.Errorf("recomputed split wrong: %d", sens.Len())
	}
}

// Regression: opaque predicates evaluated against a view must only see
// the view's rows — a partial predicate defined on a partition must not
// be invoked on the rows the partition excludes.
func TestViewScopedOpaquePredicate(t *testing.T) {
	s := NewSchema(Field{"X", KindInt})
	tb := NewTable(s)
	for i := 0; i < 20; i++ {
		tb.AppendValues(Int(int64(i)))
	}
	v := tb.Filter(Cmp("X", OpGe, Int(10)))
	partial := FuncPredicate("partial", func(r Record) bool {
		if x := r.Get("X").AsInt(); x < 10 {
			t.Errorf("opaque predicate invoked on excluded row %d", x)
		}
		return r.Get("X").AsInt()%2 == 0
	})
	if n := v.Count(partial); n != 5 {
		t.Errorf("Count = %d, want 5", n)
	}
	// Inside combinators too.
	if n := v.Count(And(Cmp("X", OpLt, Int(16)), partial)); n != 3 {
		t.Errorf("combined Count = %d, want 3 (10, 12, 14)", n)
	}
}

// A partition covering the whole table (AllNonSensitive) must behave
// exactly like the table and skip selection indirection (Selection nil).
func TestFullTableViewIdentity(t *testing.T) {
	s := NewSchema(Field{"X", KindInt})
	tb := NewTable(s)
	for i := 0; i < 100; i++ {
		tb.AppendValues(Int(int64(i)))
	}
	sens, ns := tb.Split(AllNonSensitive())
	if sens.Len() != 0 || ns.Len() != 100 {
		t.Fatalf("split = (%d, %d), want (0, 100)", sens.Len(), ns.Len())
	}
	if ns.Selection() != nil {
		t.Error("full-table view still reports a selection vector")
	}
	if n := ns.Count(Cmp("X", OpLt, Int(10))); n != 10 {
		t.Errorf("Count over full view = %d, want 10", n)
	}
	var evals int
	ns.Count(FuncPredicate("count", func(Record) bool { evals++; return true }))
	if evals != 100 {
		t.Errorf("opaque predicate saw %d rows, want 100", evals)
	}
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		b.Set(i)
	}
	if b.Count() != 5 {
		t.Errorf("Count = %d, want 5", b.Count())
	}
	if !b.Get(129) || b.Get(128) {
		t.Error("Get misreads tail bits")
	}
	b.Clear(63)
	if b.Get(63) || b.Count() != 4 {
		t.Error("Clear failed")
	}
	inv := b.Clone()
	inv.invert()
	if inv.Count() != 130-4 {
		t.Errorf("invert count = %d, want %d", inv.Count(), 126)
	}
	idx := b.indices()
	if len(idx) != 4 || idx[0] != 0 || idx[3] != 129 {
		t.Errorf("indices = %v", idx)
	}
}

// Take selects positions as a view sharing the table's storage; the
// view is copy-on-append, composes with Split, and an empty Take is an
// empty view, never the whole base table.
func TestTakeView(t *testing.T) {
	s := NewSchema(Field{"X", KindInt})
	tb := NewTable(s)
	for i := 0; i < 10; i++ {
		tb.AppendValues(Int(int64(i)))
	}
	_, ns := tb.Split(NewPolicy("low", Cmp("X", OpLt, Int(4)))) // 4..9
	v := ns.Take([]int32{0, 2, 5})
	if v.Base() != tb {
		t.Error("Take does not share the table's storage")
	}
	if got := v.Selection(); len(got) != 3 || got[0] != 4 || got[1] != 6 || got[2] != 9 {
		t.Errorf("Take of a view selects physical rows %v, want [4 6 9]", got)
	}
	v.AppendValues(Int(99))
	if v.Len() != 4 || tb.Len() != 10 || v.Base() == tb {
		t.Errorf("after append: view=%d parent=%d, want a detached view of 4", v.Len(), tb.Len())
	}
	if got := tb.Record(9).Get("X").AsInt(); got != 9 {
		t.Errorf("parent corrupted: row 9 reads %d", got)
	}

	empty := tb.Take(nil)
	if empty.Len() != 0 || empty.Count(True()) != 0 {
		t.Errorf("empty Take has %d records, counts %d", empty.Len(), empty.Count(True()))
	}
	empty.AppendValues(Int(7))
	if tb.Len() != 10 {
		t.Errorf("appending to an empty Take grew the base to %d rows", tb.Len())
	}

	for _, bad := range [][]int32{{1, 1}, {3, 2}, {-1}, {10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Take(%v) did not panic", bad)
				}
			}()
			tb.Take(bad)
		}()
	}
}
