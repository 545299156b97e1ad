package dataset

import (
	"math"
	"strings"
)

// This file compiles Predicate trees into vectorized evaluation over the
// columnar storage. Semantics are defined to agree EXACTLY with per-record
// evaluation (pred.Eval on every row) — the differential tests in
// fuzz_test.go enforce it. The one intentional divergence: And/Or evaluate
// every branch (bitset algebra cannot short-circuit), so predicates with
// side effects see more calls than under row-at-a-time evaluation.

// set marks row i without the exported Set's range check; callers
// guarantee i < n.
func (b *Bitset) set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// evalCombinators walks the boolean structure of pred with bitset
// algebra over n rows, delegating the two leaf shapes — comparison
// predicates and opaque predicates — to the given callbacks. It is the
// single recursion shared by the base-table and view evaluators, so the
// two cannot drift apart combinator by combinator.
func evalCombinators(pred Predicate, n int, leafCmp func(cmpPredicate) *Bitset, leafOpaque func(Predicate) *Bitset) *Bitset {
	recur := func(sub Predicate) *Bitset { return evalCombinators(sub, n, leafCmp, leafOpaque) }
	switch q := pred.(type) {
	case truePredicate:
		out := NewBitset(n)
		out.setAll()
		return out
	case falsePredicate:
		return NewBitset(n)
	case notPredicate:
		out := recur(q.p)
		out.invert()
		return out
	case andPredicate:
		if len(q) == 0 {
			out := NewBitset(n)
			out.setAll()
			return out
		}
		out := recur(q[0])
		for _, sub := range q[1:] {
			out.andWith(recur(sub))
		}
		return out
	case orPredicate:
		out := NewBitset(n)
		for _, sub := range q {
			out.orWith(recur(sub))
		}
		return out
	case cmpPredicate:
		return leafCmp(q)
	default:
		return leafOpaque(pred)
	}
}

// evalPhysical evaluates pred over every physical row of base table b,
// returning a bitset over physical rows 0..b.nrows-1.
func evalPhysical(b *Table, pred Predicate) *Bitset {
	return evalCombinators(pred, b.nrows,
		func(q cmpPredicate) *Bitset { return evalCmpPhysical(b, q) },
		func(p Predicate) *Bitset { return evalGenericPhysical(b, p) })
}

// evalViewRelative evaluates pred over a view's rows, returning a bitset
// over VIEW positions. Vectorized comparisons still run over the full
// base column (they are total, pure functions, so evaluating excluded
// rows is invisible) and project through the selection; opaque
// predicates (FuncPredicate) are invoked only on the view's own rows —
// a predicate that is partial, side-effecting, or only defined on a
// partition must never see rows the view excludes. The opaque loop is
// also kept serial for the same reason: an opaque predicate promised
// purity, not safety under concurrent invocation.
func evalViewRelative(t *Table, pred Predicate) *Bitset {
	base := t.Base()
	return evalCombinators(pred, len(t.sel),
		func(q cmpPredicate) *Bitset { return projectToView(t, evalCmpPhysical(base, q)) },
		func(p Predicate) *Bitset {
			out := NewBitset(len(t.sel))
			for i, phys := range t.sel {
				if p.Eval(Record{schema: t.schema, tab: base, row: int(phys)}) {
					out.set(i)
				}
			}
			return out
		})
}

// projectToView maps a bitset over base physical rows onto view positions.
// Chunked over view positions: workers write disjoint chunk-aligned word
// ranges of out and only read phys.
func projectToView(t *Table, phys *Bitset) *Bitset {
	out := NewBitset(len(t.sel))
	ParallelRows(len(t.sel), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if phys.Get(int(t.sel[i])) {
				out.set(i)
			}
		}
	})
	return out
}

// evalGenericPhysical is the row-at-a-time fallback for opaque
// predicates (FuncPredicate). It is deliberately serial: the purity
// contract opaque predicates sign up to says nothing about safety under
// concurrent invocation, so they are never called from pool workers.
func evalGenericPhysical(b *Table, pred Predicate) *Bitset {
	out := NewBitset(b.nrows)
	for i := 0; i < b.nrows; i++ {
		if pred.Eval(Record{schema: b.schema, tab: b, row: i}) {
			out.set(i)
		}
	}
	return out
}

// verdict reports whether a three-way comparison result c satisfies op,
// mirroring cmpPredicate.Eval.
func verdict(c int, op CmpOp) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// constBitset returns the all-or-nothing bitset for a comparison whose
// outcome does not depend on the row: Value.Compare orders values of
// different (and not both numeric) kinds purely by kind, so e.g.
// "stringCol < 3" is the same verdict for every row.
func constBitset(n int, colKind Kind, val Value, op CmpOp) *Bitset {
	c := -1
	if colKind > val.kind {
		c = 1
	}
	return allOrNone(n, verdict(c, op))
}

func allOrNone(n int, all bool) *Bitset {
	out := NewBitset(n)
	if all {
		out.setAll()
	}
	return out
}

// evalCmpPhysical vectorizes one comparison predicate over the typed
// column vector. The row loops are chunked across the scan worker pool
// (ParallelRows): per-leaf setup — operator dispatch, the per-dictionary
// verdict table — happens once on the calling goroutine, then each
// worker fills a disjoint chunk-aligned segment of the output bitset,
// so the parallel result is positionally identical to the serial one.
func evalCmpPhysical(b *Table, q cmpPredicate) *Bitset {
	ci := b.schema.ColumnIndex(q.attr)
	if ci < 0 {
		// Match the row path: r.Get panics on an unknown attribute.
		panic("dataset: unknown attribute \"" + q.attr + "\"")
	}
	col := b.cols[ci]
	n := b.nrows
	switch col.kind {
	case KindInt:
		if !q.val.isNumeric() {
			return constBitset(n, KindInt, q.val, q.op)
		}
		if v := q.val.AsFloat(); !math.IsNaN(v) {
			out := NewBitset(n)
			ParallelRows(n, func(_, lo, hi int) {
				vecCmpInts(out, col.ints[lo:hi], v, q.op, lo)
			})
			return out
		}
		// Value.Compare returns 0 whenever either side is NaN (neither
		// < nor > holds), so comparing against NaN is row-independent.
		return allOrNone(n, verdict(0, q.op))
	case KindFloat:
		if !q.val.isNumeric() {
			return constBitset(n, KindFloat, q.val, q.op)
		}
		if v := q.val.AsFloat(); !math.IsNaN(v) {
			out := NewBitset(n)
			ParallelRows(n, func(_, lo, hi int) {
				vecCmpFloats(out, col.floats[lo:hi], v, q.op, lo)
			})
			return out
		}
		return allOrNone(n, verdict(0, q.op))
	case KindBool:
		if q.val.kind != KindBool {
			return constBitset(n, KindBool, q.val, q.op)
		}
		out := NewBitset(n)
		matchTrue := verdict(cmpBool(true, q.val.b), q.op)
		matchFalse := verdict(cmpBool(false, q.val.b), q.op)
		ParallelRows(n, func(_, lo, hi int) {
			for i, x := range col.bools[lo:hi] {
				if (x && matchTrue) || (!x && matchFalse) {
					out.set(lo + i)
				}
			}
		})
		return out
	default: // KindString
		if q.val.kind != KindString {
			return constBitset(n, KindString, q.val, q.op)
		}
		// Dictionary win: decide the comparison once per DISTINCT value,
		// then the row pass is a pure table lookup.
		match := make([]bool, len(col.dict.vals))
		for code, s := range col.dict.vals {
			match[code] = verdict(strings.Compare(s, q.val.s), q.op)
		}
		out := NewBitset(n)
		ParallelRows(n, func(_, lo, hi int) {
			for i, code := range col.codes[lo:hi] {
				if match[code] {
					out.set(lo + i)
				}
			}
		})
		return out
	}
}

// vecCmpInts sets the bits of rows whose int value compares to v under
// op. The operator switch is hoisted out of the row loop — one tight
// branch-free-ish loop per operator. Comparison is through float64 on
// both sides, matching Value.Compare's numeric semantics exactly. xs is
// one chunk of the column; off is its first row's index, so bit off+i
// corresponds to xs[i] (chunks are word-aligned — see ParallelRows).
func vecCmpInts(out *Bitset, xs []int64, v float64, op CmpOp, off int) {
	switch op {
	case OpEq:
		for i, x := range xs {
			if float64(x) == v {
				out.set(off + i)
			}
		}
	case OpNe:
		for i, x := range xs {
			if float64(x) != v {
				out.set(off + i)
			}
		}
	case OpLt:
		for i, x := range xs {
			if float64(x) < v {
				out.set(off + i)
			}
		}
	case OpLe:
		for i, x := range xs {
			if float64(x) <= v {
				out.set(off + i)
			}
		}
	case OpGt:
		for i, x := range xs {
			if float64(x) > v {
				out.set(off + i)
			}
		}
	case OpGe:
		for i, x := range xs {
			if float64(x) >= v {
				out.set(off + i)
			}
		}
	}
}

// vecCmpFloats is vecCmpInts for float64 columns. v is known non-NaN
// (handled by the caller), but a stored x may be NaN: Value.Compare
// yields 0 for it, so Eq/Le/Ge must also match NaN rows and Ne must not
// (the x != x test is the NaN check).
func vecCmpFloats(out *Bitset, xs []float64, v float64, op CmpOp, off int) {
	switch op {
	case OpEq:
		for i, x := range xs {
			if x == v || x != x {
				out.set(off + i)
			}
		}
	case OpNe:
		for i, x := range xs {
			if x != v && x == x {
				out.set(off + i)
			}
		}
	case OpLt:
		for i, x := range xs {
			if x < v {
				out.set(off + i)
			}
		}
	case OpLe:
		for i, x := range xs {
			if x <= v || x != x {
				out.set(off + i)
			}
		}
	case OpGt:
		for i, x := range xs {
			if x > v {
				out.set(off + i)
			}
		}
	case OpGe:
		for i, x := range xs {
			if x >= v || x != x {
				out.set(off + i)
			}
		}
	}
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}
