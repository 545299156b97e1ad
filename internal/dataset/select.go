package dataset

import (
	"math"
	"math/bits"
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

// evalPhysical evaluates pred over the physical rows of base table b,
// returning a bitset over physical rows 0..b.nrows-1. Combinators become
// bitset algebra and comparison leaves run vectorized over every row;
// opaque leaves (FuncPredicate) are called only on the rows set in
// members, or on every row when members is nil, so a caller scanning a
// view passes the view's membership mask and must AND it into the
// result: bits outside members are unspecified.
func evalPhysical(b *Table, pred Predicate, members *Bitset) *Bitset {
	n := b.nrows
	switch q := pred.(type) {
	case truePredicate:
		return allOrNone(n, true)
	case falsePredicate:
		return NewBitset(n)
	case notPredicate:
		out := evalPhysical(b, q.p, members)
		out.invert()
		return out
	case andPredicate:
		if len(q) == 0 {
			return allOrNone(n, true)
		}
		out := evalPhysical(b, q[0], members)
		for _, sub := range q[1:] {
			out.andWith(evalPhysical(b, sub, members))
		}
		return out
	case orPredicate:
		out := NewBitset(n)
		for _, sub := range q {
			out.orWith(evalPhysical(b, sub, members))
		}
		return out
	case cmpPredicate:
		return evalCmpPhysical(b, q)
	default:
		return evalGenericPhysical(b, pred, members)
	}
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

// evalGenericPhysical is the row-at-a-time evaluation of an opaque
// predicate (FuncPredicate) over the rows set in members, or over every
// row of b when members is nil. An opaque predicate may be partial,
// side-effecting, or only defined on a partition, so it must never see a
// row the scanned view excludes. The loop is deliberately serial: the
// purity contract opaque predicates sign up to says nothing about safety
// under concurrent invocation, so they are never called from pool
// workers.
func evalGenericPhysical(b *Table, pred Predicate, members *Bitset) *Bitset {
	out := NewBitset(b.nrows)
	eval := func(i int) {
		if pred.Eval(Record{schema: b.schema, tab: b, row: i}) {
			out.set(i)
		}
	}
	if members == nil {
		for i := 0; i < b.nrows; i++ {
			eval(i)
		}
		return out
	}
	for wi, w := range members.words {
		for ; w != 0; w &= w - 1 {
			eval(wi<<6 | bits.TrailingZeros64(w))
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
// (ParallelRows): per-leaf setup — the bool verdicts, the
// per-dictionary verdicts — happens once on the calling goroutine,
// then each worker fills a disjoint chunk-aligned run of output words,
// so the parallel result is positionally identical to the serial one.
//
// Every row loop builds one uint64 word per 64 rows in a register and
// stores it once, turning each row's verdict into a bit with a flag read
// or a table lookup instead of a branch, so the loop runs at the same
// speed whatever the selectivity (Ross, "Selection Conditions in Main
// Memory", TODS 2004).
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
				cmpWords(out.chunkWords(lo, hi), col.ints[lo:hi], v, q.op)
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
				cmpWords(out.chunkWords(lo, hi), col.floats[lo:hi], v, q.op)
			})
			return out
		}
		return allOrNone(n, verdict(0, q.op))
	case KindBool:
		if q.val.kind != KindBool {
			return constBitset(n, KindBool, q.val, q.op)
		}
		out := NewBitset(n)
		// Bit 0 is the verdict of a false row, bit 1 of a true one.
		match := b2u(verdict(cmpBool(false, q.val.b), q.op)) | b2u(verdict(cmpBool(true, q.val.b), q.op))<<1
		ParallelRows(n, func(_, lo, hi int) {
			xs, words := col.bools[lo:hi], out.chunkWords(lo, hi)
			for wi := range words {
				blk := xs[wi<<6 : min(wi<<6+64, len(xs))]
				var w uint64
				for _, x := range blk {
					w = w>>1 | (match>>b2u(x)&1)<<63
				}
				words[wi] = w >> (64 - len(blk))
			}
		})
		return out
	default: // KindString
		if q.val.kind != KindString {
			return constBitset(n, KindString, q.val, q.op)
		}
		// Dictionary win: decide the comparison once per DISTINCT value,
		// then the row pass is a pure table lookup.
		match := make([]uint64, len(col.dict.vals))
		for code, s := range col.dict.vals {
			match[code] = b2u(verdict(strings.Compare(s, q.val.s), q.op))
		}
		out := NewBitset(n)
		ParallelRows(n, func(_, lo, hi int) {
			codes, words := col.codes[lo:hi], out.chunkWords(lo, hi)
			for wi := range words {
				blk := codes[wi<<6 : min(wi<<6+64, len(codes))]
				var w uint64
				for _, code := range blk {
					w = w>>1 | match[code]<<63
				}
				words[wi] = w >> (64 - len(blk))
			}
		})
		return out
	}
}

// cmpWords fills words with the verdicts of xs (one chunk of an int or
// float column, starting on a word boundary) against v, which must not
// be NaN. Comparison is through float64 on both sides, matching
// Value.Compare's numeric semantics exactly. Each operator is one of
// x < v, x > v and x < v || x > v, or its complement; a NaN row fails
// all three, so it matches exactly the complemented operators (Le, Ge,
// Eq), as Value.Compare's 0 for NaN has it. Each row's verdict is
// shifted in at the top of the word, so a block of k rows ends in the
// top k bits and one shift puts row 0 at bit 0.
func cmpWords[T int64 | float64](words []uint64, xs []T, v float64, op CmpOp) {
	var flip uint64
	if op == OpLe || op == OpGe || op == OpEq {
		flip = ^uint64(0)
	}
	for wi := range words {
		blk := xs[wi<<6 : min(wi<<6+64, len(xs))]
		var w uint64
		switch op {
		case OpLt, OpGe:
			for _, x := range blk {
				w = w>>1 | b2u(float64(x) < v)<<63
			}
		case OpGt, OpLe:
			for _, x := range blk {
				w = w>>1 | b2u(float64(x) > v)<<63
			}
		case OpNe, OpEq:
			for _, x := range blk {
				f := float64(x)
				w = w>>1 | (b2u(f < v)|b2u(f > v))<<63
			}
		}
		words[wi] = (w ^ flip) >> (64 - len(blk))
	}
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a flag
// read, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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
