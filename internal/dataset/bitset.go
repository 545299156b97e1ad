package dataset

import "math/bits"

// Bitset is a fixed-length selection vector over table rows: bit i set
// means row i is selected. It is the result type of compiled predicate
// evaluation and of policy splits — mechanisms that used to receive
// materialized tables now receive a bitset over a shared column store.
// A Bitset is immutable once returned by the library; callers building
// their own may use Set freely before sharing it.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an all-zero bitset over n rows.
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic("dataset: bitset length must be non-negative")
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of rows the bitset ranges over.
func (b *Bitset) Len() int { return b.n }

// Get reports whether row i is selected.
func (b *Bitset) Get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set marks row i as selected.
func (b *Bitset) Set(i int) {
	if i < 0 || i >= b.n {
		panic("dataset: bitset index out of range")
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear unmarks row i.
func (b *Bitset) Clear(i int) {
	if i < 0 || i >= b.n {
		panic("dataset: bitset index out of range")
	}
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Count returns the number of selected rows (population count).
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a copy of the bitset.
func (b *Bitset) Clone() *Bitset {
	out := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(out.words, b.words)
	return out
}

// setAll selects every row.
func (b *Bitset) setAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.maskTail()
}

// maskTail zeroes the bits beyond n in the last word, keeping Count and
// invert exact.
func (b *Bitset) maskTail() {
	if r := uint(b.n) & 63; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << r) - 1
	}
}

// andWith intersects b with o in place.
func (b *Bitset) andWith(o *Bitset) {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// orWith unions o into b in place.
func (b *Bitset) orWith(o *Bitset) {
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// invert complements b in place.
func (b *Bitset) invert() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.maskTail()
}

// indices returns the selected row positions as a dense int32 slice —
// the selection vector backing a view table.
func (b *Bitset) indices() []int32 {
	out := make([]int32, 0, b.Count())
	for wi, w := range b.words {
		base := int32(wi << 6)
		for w != 0 {
			out = append(out, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// Words returns the bitset's backing words: row i is bit i&63 of word
// i>>6, and the bits of rows at or beyond Len() are zero. Scans walk the
// set rows of a word with bits.TrailingZeros64. The caller must not
// modify the slice.
func (b *Bitset) Words() []uint64 { return b.words }

// chunkWords returns the words holding rows [lo, hi); lo must be a
// multiple of 64, as every ParallelRows chunk start is.
func (b *Bitset) chunkWords(lo, hi int) []uint64 {
	return b.words[lo>>6 : (hi+63)>>6]
}
