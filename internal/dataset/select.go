package dataset

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
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

// evalPhysical writes into dst, a bitset over the physical rows of base
// table b, the rows that satisfy pred and are set in mask, or every row
// that satisfies pred when mask is nil. A scan of a view passes the
// view's membership mask. Combinators become bitset algebra and
// comparison leaves run vectorized, ANDing the mask into each word as
// they build it; opaque leaves (FuncPredicate) are called only on the
// rows of the mask. Every word of dst is written, so dst may be dirty
// scratch. dst may be the mask itself only when inPlace(pred).
func evalPhysical(b *Table, pred Predicate, mask, dst *Bitset) {
	switch q := pred.(type) {
	case truePredicate:
		fillConst(dst, mask, true)
	case falsePredicate:
		fillConst(dst, mask, false)
	case notPredicate:
		evalPhysical(b, q.p, mask, dst)
		if mask == nil {
			dst.invert()
			return
		}
		for i, m := range mask.words {
			dst.words[i] = m &^ dst.words[i]
		}
	case andPredicate:
		if len(q) == 0 {
			fillConst(dst, mask, true)
			return
		}
		// A comparison or constant operand is evaluated in place under
		// the running conjunction as its mask. Any other operand is
		// evaluated under the caller's mask and ANDed in, so an opaque
		// leaf still sees every row of the mask.
		evalPhysical(b, q[0], mask, dst)
		var tmp *Bitset
		for _, sub := range q[1:] {
			if inPlace(sub) {
				evalPhysical(b, sub, dst, dst)
				continue
			}
			if tmp == nil {
				tmp = getScratch(b.nrows)
				defer putScratch(tmp)
			}
			evalPhysical(b, sub, mask, tmp)
			dst.andWith(tmp)
		}
	case orPredicate:
		if len(q) == 0 {
			fillConst(dst, mask, false)
			return
		}
		evalPhysical(b, q[0], mask, dst)
		if len(q) == 1 {
			return
		}
		tmp := getScratch(b.nrows)
		for _, sub := range q[1:] {
			evalPhysical(b, sub, mask, tmp)
			dst.orWith(tmp)
		}
		putScratch(tmp)
	case cmpPredicate:
		evalCmpPhysical(b, q, mask, dst)
	default:
		evalGenericPhysical(b, pred, mask, dst)
	}
}

// inPlace reports whether p is a comparison or a constant: evalPhysical
// of p reads each mask word before it writes the same word of dst, so
// dst may alias the mask.
func inPlace(p Predicate) bool {
	switch p.(type) {
	case cmpPredicate, truePredicate, falsePredicate:
		return true
	}
	return false
}

// scratchPool holds bitsets for evaluations whose result does not
// outlive the call: Count's result and the operands of combinators.
var scratchPool sync.Pool

// getScratch returns a bitset over n rows with unspecified contents.
func getScratch(n int) *Bitset {
	nw := (n + 63) / 64
	if b, _ := scratchPool.Get().(*Bitset); b != nil && cap(b.words) >= nw {
		b.words, b.n = b.words[:nw], n
		return b
	}
	return &Bitset{words: make([]uint64, nw), n: n}
}

func putScratch(b *Bitset) { scratchPool.Put(b) }

// fillConst writes a row-independent verdict: every row of mask (every
// row when mask is nil) for true, none for false.
func fillConst(dst, mask *Bitset, v bool) {
	switch {
	case !v:
		clear(dst.words)
	case mask == nil:
		dst.setAll()
	case mask != dst:
		copy(dst.words, mask.words)
	}
}

// projectToView maps a bitset over base physical rows onto view
// positions, building each view word in a register from the selection's
// 64 physical rows. Chunked over view positions: workers write disjoint
// chunk-aligned word ranges of out and only read phys.
func projectToView(t *Table, phys *Bitset) *Bitset {
	out := NewBitset(len(t.sel))
	ParallelRows(len(t.sel), func(_, lo, hi int) {
		sel, words := t.sel[lo:hi], out.chunkWords(lo, hi)
		for wi := range words {
			var w uint64
			for j, p := range sel[wi<<6 : min(wi<<6+64, len(sel))] {
				w |= (phys.words[p>>6] >> (uint(p) & 63) & 1) << j
			}
			words[wi] = w
		}
	})
	return out
}

// evalGenericPhysical is the row-at-a-time evaluation of an opaque
// predicate (FuncPredicate) over the rows set in mask, or over every
// row of b when mask is nil. An opaque predicate may be partial,
// side-effecting, or only defined on a partition, so it must never see a
// row the scanned view excludes. The loop is deliberately serial: the
// purity contract opaque predicates sign up to says nothing about safety
// under concurrent invocation, so they are never called from pool
// workers.
func evalGenericPhysical(b *Table, pred Predicate, mask, dst *Bitset) {
	for wi := range dst.words {
		m := ^uint64(0)
		if mask != nil {
			m = mask.words[wi]
		} else if rest := b.nrows - wi<<6; rest < 64 {
			m = 1<<rest - 1
		}
		var w uint64
		for ; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			if pred.Eval(Record{schema: b.schema, tab: b, row: wi<<6 | j}) {
				w |= 1 << j
			}
		}
		dst.words[wi] = w
	}
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

// constVerdict is the verdict of a comparison whose outcome does not
// depend on the row: Value.Compare orders values of different (and not
// both numeric) kinds purely by kind, so e.g. "stringCol < 3" is the
// same verdict for every row.
func constVerdict(colKind Kind, val Value, op CmpOp) bool {
	c := -1
	if colKind > val.kind {
		c = 1
	}
	return verdict(c, op)
}

// evalCmpPhysical vectorizes one comparison predicate over the typed
// column vector, writing mask ∧ verdict into dst (see evalPhysical). The
// row loops are chunked across the scan worker pool (ParallelRows):
// per-leaf setup — the lane interval, the bool verdicts, the
// per-dictionary verdicts — happens once on the calling goroutine,
// then each worker fills a disjoint chunk-aligned run of output words,
// so the parallel result is positionally identical to the serial one.
//
// Every row loop builds one uint64 word per 64 rows in a register, ANDs
// the mask word into it and stores it once, turning each row's verdict
// into a bit with a flag read, a table lookup or a word-parallel
// compare instead of a branch, so the loop runs at the same speed
// whatever the selectivity (Ross, "Selection Conditions in Main
// Memory", TODS 2004).
func evalCmpPhysical(b *Table, q cmpPredicate, mask, dst *Bitset) {
	ci := b.schema.ColumnIndex(q.attr)
	if ci < 0 {
		// Match the row path: r.Get panics on an unknown attribute.
		panic("dataset: unknown attribute \"" + q.attr + "\"")
	}
	col := b.cols[ci]
	n := b.nrows
	// chunk returns the output and mask words of rows [lo, hi).
	chunk := func(lo, hi int) (out, m []uint64) {
		if mask != nil {
			m = mask.chunkWords(lo, hi)
		}
		return dst.chunkWords(lo, hi), m
	}
	switch col.kind {
	case KindInt, KindFloat:
		if !q.val.isNumeric() {
			fillConst(dst, mask, constVerdict(col.kind, q.val, q.op))
			return
		}
		v := q.val.AsFloat()
		if math.IsNaN(v) {
			// Value.Compare returns 0 whenever either side is NaN
			// (neither < nor > holds), so comparing against NaN is
			// row-independent.
			fillConst(dst, mask, verdict(0, q.op))
			return
		}
		if col.kind == KindFloat {
			ParallelRows(n, func(_, lo, hi int) {
				out, m := chunk(lo, hi)
				cmpWords(out, m, col.floats[lo:hi], v, q.op)
			})
			return
		}
		iv := &col.ints
		if iv.bits == 64 {
			ParallelRows(n, func(_, lo, hi int) {
				out, m := chunk(lo, hi)
				cmpWords(out, m, iv.i64[lo:hi], v, q.op)
			})
			return
		}
		lo, k, flip := laneInterval(iv, v, q.op)
		if k == 0 || k == iv.window() {
			// No offset, or every offset, lies in the interval.
			fillConst(dst, mask, (k == 0) == (flip != 0))
			return
		}
		ParallelRows(n, func(_, rlo, rhi int) {
			out, m := chunk(rlo, rhi)
			if iv.bits == 8 {
				laneWords8(out, m, iv.u8[rlo:rhi], uint8(lo), uint8(k), flip)
			} else {
				laneWords16(out, m, iv.u16[rlo:rhi], uint16(lo), uint16(k), flip)
			}
		})
	case KindBool:
		if q.val.kind != KindBool {
			fillConst(dst, mask, constVerdict(KindBool, q.val, q.op))
			return
		}
		// Bit 0 is the verdict of a false row, bit 1 of a true one.
		match := b2u(verdict(cmpBool(false, q.val.b), q.op)) | b2u(verdict(cmpBool(true, q.val.b), q.op))<<1
		ParallelRows(n, func(_, lo, hi int) {
			words, m := chunk(lo, hi)
			xs := col.bools[lo:hi]
			for wi := range words {
				blk := xs[wi<<6 : min(wi<<6+64, len(xs))]
				var w uint64
				for _, x := range blk {
					w = w>>1 | (match>>b2u(x)&1)<<63
				}
				words[wi] = maskWord(w>>(64-len(blk)), m, wi)
			}
		})
	default: // KindString
		if q.val.kind != KindString {
			fillConst(dst, mask, constVerdict(KindString, q.val, q.op))
			return
		}
		// Dictionary win: decide the comparison once per DISTINCT value,
		// then the row pass is a pure table lookup.
		match := make([]uint64, len(col.dict.vals))
		for code, s := range col.dict.vals {
			match[code] = b2u(verdict(strings.Compare(s, q.val.s), q.op))
		}
		ParallelRows(n, func(_, lo, hi int) {
			words, m := chunk(lo, hi)
			codes := col.codes[lo:hi]
			for wi := range words {
				blk := codes[wi<<6 : min(wi<<6+64, len(codes))]
				var w uint64
				for _, code := range blk {
					w = w>>1 | match[code]<<63
				}
				words[wi] = maskWord(w>>(64-len(blk)), m, wi)
			}
		})
	}
}

// maskWord ANDs word wi of mask into w; a nil mask keeps every row.
func maskWord(w uint64, mask []uint64, wi int) uint64 {
	if mask != nil {
		w &= mask[wi]
	}
	return w
}

// cmpWords fills words with the verdicts of xs (one chunk of an int or
// float column, starting on a word boundary) against v, which must not
// be NaN, ANDed with mask. Comparison is through float64 on both sides,
// matching Value.Compare's numeric semantics exactly. Each operator is
// one of x < v, x > v and x < v || x > v, or its complement; a NaN row
// fails all three, so it matches exactly the complemented operators
// (Le, Ge, Eq), as Value.Compare's 0 for NaN has it. Each row's verdict
// is shifted in at the top of the word, so a block of k rows ends in
// the top k bits and one shift puts row 0 at bit 0.
func cmpWords[T int64 | float64](words, mask []uint64, xs []T, v float64, op CmpOp) {
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
		words[wi] = maskWord((w^flip)>>(64-len(blk)), mask, wi)
	}
}

// laneInterval turns the comparison "x op v" over a narrow int column
// into a test on each row's offset o: the verdict is
// ((o - lo) mod 2^bits < k) XOR flip, with flip all ones or zero.
//
// Value.Compare compares through float64, and float64(base + o) is
// monotone in o, so the offsets with float64(base+o) < v are a prefix
// [0, a) of the window and those with float64(base+o) > v a suffix
// [b, size); equality is [a, b). Both thresholds are found by binary
// search against the converted values themselves, never by rounding v
// to an integer, so a column whose window lies where float64 cannot
// tell neighbouring ints apart (past 2^53) keeps the verdicts of the
// per-row comparison. k = 0 or k = size means a row-independent verdict.
func laneInterval(iv *intVec, v float64, op CmpOp) (lo, k int, flip uint64) {
	size := iv.window()
	a := sort.Search(size, func(o int) bool { return float64(iv.base+int64(o)) >= v })
	b := sort.Search(size, func(o int) bool { return float64(iv.base+int64(o)) > v })
	switch op {
	case OpLt:
		return 0, a, 0
	case OpGe:
		return 0, a, ^uint64(0)
	case OpLe:
		return 0, b, 0
	case OpGt:
		return 0, b, ^uint64(0)
	case OpEq:
		return a, b - a, 0
	default: // OpNe
		return a, b - a, ^uint64(0)
	}
}

// The SWAR kernels below evaluate the lane interval of laneInterval on 8
// (or 4) offsets per 64-bit word op (Willhalm et al., "SIMD-Scan", VLDB
// 2009; Li and Patel, "BitWeaving", SIGMOD 2013). Each lane's verdict
// lands in its top bit; one multiply gathers the top bits of a word's
// lanes into adjacent bits.
const (
	lanes8   = 0x0101010101010101 // 1 in every 8-bit lane
	high8    = 0x8080808080808080 // top bit of every 8-bit lane
	gather8  = 0x0102040810204080 // moves bit 8i to bit 56+i
	lanes16  = 0x0001000100010001
	high16   = 0x8000800080008000
	gather16 = 0x1000200040008000 // moves bit 16i to bit 60+i
)

// swarSub returns the lane-wise difference x - y modulo the lane width;
// h holds the lanes' top bits. Clearing y's top bits keeps every lane's
// borrow inside the lane; the XOR restores the true top bit.
func swarSub(x, y, h uint64) uint64 {
	return ((x | h) - (y &^ h)) ^ ((x ^ ^y) & h)
}

// swarLess returns, in each lane's top bit, whether x < y as unsigned
// lanes; h holds the lanes' top bits. t's top bit tells whether the
// lanes' low bits compare x >= y; the top bits of x and y decide when
// they differ.
func swarLess(x, y, h uint64) uint64 {
	t := (x | h) - (y &^ h)
	return (^x&y | ^(x^y)&^t) & h
}

// laneWords8 fills words with the verdicts ((o - lo) mod 256 < k) XOR
// flip of the 8-bit offsets xs (one chunk starting on a word boundary),
// ANDed with mask; 0 < k < 256.
func laneWords8(words, mask []uint64, xs []uint8, lo, k uint8, flip uint64) {
	los, ks := uint64(lo)*lanes8, uint64(k)*lanes8
	full := len(xs) >> 6
	for wi := 0; wi < full; wi++ {
		blk := xs[wi<<6 : wi<<6+64]
		var w uint64
		for j := 0; j < 64; j += 8 {
			x := binary.LittleEndian.Uint64(blk[j:])
			if lo != 0 {
				x = swarSub(x, los, high8)
			}
			w |= (swarLess(x, ks, high8) >> 7 * gather8 >> 56) << j
		}
		words[wi] = maskWord(w^flip, mask, wi)
	}
	if tail := xs[full<<6:]; len(tail) > 0 {
		var w uint64
		for j, x := range tail {
			w |= b2u(x-lo < k) << j
		}
		words[full] = maskWord((w^flip)&(1<<len(tail)-1), mask, full)
	}
}

// laneWords16 is laneWords8 for 16-bit offsets; 0 < k < 65536.
func laneWords16(words, mask []uint64, xs []uint16, lo, k uint16, flip uint64) {
	los, ks := uint64(lo)*lanes16, uint64(k)*lanes16
	full := len(xs) >> 6
	for wi := 0; wi < full; wi++ {
		blk := xs[wi<<6 : wi<<6+64]
		var w uint64
		for j := 0; j < 64; j += 4 {
			q := blk[j : j+4 : j+4]
			x := uint64(q[0]) | uint64(q[1])<<16 | uint64(q[2])<<32 | uint64(q[3])<<48
			if lo != 0 {
				x = swarSub(x, los, high16)
			}
			w |= (swarLess(x, ks, high16) >> 15 * gather16 >> 60) << j
		}
		words[wi] = maskWord(w^flip, mask, wi)
	}
	if tail := xs[full<<6:]; len(tail) > 0 {
		var w uint64
		for j, x := range tail {
			w |= b2u(x-lo < k) << j
		}
		words[full] = maskWord((w^flip)&(1<<len(tail)-1), mask, full)
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
