package dataset

import "math"

// stringDict interns the distinct values of a string column: rows store
// dense uint32 codes and the dictionary maps codes back to strings. The
// dictionary is append-only, so codes never need rewriting; grouping and
// equality predicates can work on codes and touch actual strings only
// once per distinct value.
type stringDict struct {
	index map[string]uint32
	vals  []string
}

func newStringDict() *stringDict {
	return &stringDict{index: make(map[string]uint32)}
}

func (d *stringDict) code(s string) uint32 {
	if c, ok := d.index[s]; ok {
		return c
	}
	c := uint32(len(d.vals))
	d.index[s] = c
	d.vals = append(d.vals, s)
	return c
}

// lookup returns the code of s without interning, and whether it exists.
func (d *stringDict) lookup(s string) (uint32, bool) {
	c, ok := d.index[s]
	return c, ok
}

func (d *stringDict) clone() *stringDict {
	out := &stringDict{
		index: make(map[string]uint32, len(d.index)),
		vals:  append([]string(nil), d.vals...),
	}
	for k, v := range d.index {
		out.index[k] = v
	}
	return out
}

// column is one attribute's typed vector. Exactly one of the storage
// fields is populated, selected by kind. Every stored value has the
// column's kind: Table.Append rejects a value of another kind, so reads
// and vectorized evaluation work on the typed storage alone.
type column struct {
	kind   Kind
	ints   intVec
	floats []float64
	bools  []bool
	codes  []uint32
	dict   *stringDict
}

func newColumn(kind Kind) *column {
	c := &column{kind: kind}
	switch kind {
	case KindInt:
		c.ints.bits = 8
	case KindString:
		c.dict = newStringDict()
	}
	return c
}

// appendValue appends v, which must have the column's kind.
func (c *column) appendValue(v Value) {
	switch c.kind {
	case KindInt:
		c.ints.append(v.i)
	case KindFloat:
		c.floats = append(c.floats, v.f)
	case KindBool:
		c.bools = append(c.bools, v.b)
	default:
		c.codes = append(c.codes, c.dict.code(v.s))
	}
}

// value reconstructs the Value stored at physical row i.
func (c *column) value(i int) Value {
	switch c.kind {
	case KindInt:
		return Int(c.ints.at(i))
	case KindFloat:
		return Float(c.floats[i])
	case KindBool:
		return Bool(c.bools[i])
	default:
		return Str(c.dict.vals[c.codes[i]])
	}
}

// clone returns a column whose typed vector shares the backing array
// read-only (full-capacity slicing forces copy-on-append) but owns its
// dictionary, so appends to either table never corrupt the other.
func (c *column) clone() *column {
	out := &column{kind: c.kind}
	switch c.kind {
	case KindInt:
		out.ints = c.ints.clone()
	case KindFloat:
		out.floats = c.floats[:len(c.floats):len(c.floats)]
	case KindBool:
		out.bools = c.bools[:len(c.bools):len(c.bools)]
	default:
		out.codes = c.codes[:len(c.codes):len(c.codes)]
		out.dict = c.dict.clone()
	}
	return out
}

// gather materializes the subset of rows named by sel into a fresh
// column. An int column keeps its encoding: every gathered value lies in
// the source's window.
func (c *column) gather(sel []int32) *column {
	if c.kind == KindInt {
		return &column{kind: KindInt, ints: c.ints.gather(sel)}
	}
	out := newColumn(c.kind)
	for _, p := range sel {
		out.appendValue(c.value(int(p)))
	}
	return out
}

// intVec stores an int column at the narrowest width that holds its
// range. With bits 8 or 16, row i holds the value base + lanes[i], an
// unsigned offset into the window [base, base+2^bits); with bits 64 it
// holds the raw value in i64 and base is unused. Exactly one of u8, u16
// and i64 is in use.
//
// Append picks the width. A value outside the window re-encodes the
// column into fresh arrays, so a clone sharing the old arrays
// copy-on-append never sees the change. A re-encode takes the narrowest
// width whose window holds [lo, hi], the range of every value stored so
// far, and centres that range in the window, so the slack on each side
// is half of what the range leaves free. Each later re-encode at the
// same width therefore starts with at most half the slack of the one
// before: a column re-encodes at most bits+1 times per width, about 26
// times in all, and appends stay amortized O(1) even when the values
// arrive in descending order.
type intVec struct {
	bits   int // 8, 16 or 64
	base   int64
	u8     []uint8
	u16    []uint16
	i64    []int64
	lo, hi int64 // the least and greatest value appended; unset while empty
}

func (v *intVec) len() int {
	switch v.bits {
	case 8:
		return len(v.u8)
	case 16:
		return len(v.u16)
	}
	return len(v.i64)
}

// at returns the value of row i. The window never reaches past the
// int64 range, so base + offset cannot overflow.
func (v *intVec) at(i int) int64 {
	switch v.bits {
	case 8:
		return v.base + int64(v.u8[i])
	case 16:
		return v.base + int64(v.u16[i])
	}
	return v.i64[i]
}

// window returns the number of offsets of a narrow encoding, 2^bits,
// or 0 for raw int64 storage.
func (v *intVec) window() int {
	if v.bits == 64 {
		return 0
	}
	return 1 << v.bits
}

// holds reports whether x is in the window.
func (v *intVec) holds(x int64) bool {
	return v.bits == 64 || x >= v.base && uint64(x)-uint64(v.base) < uint64(v.window())
}

func (v *intVec) append(x int64) {
	if v.len() == 0 {
		v.lo, v.hi = x, x
	}
	v.lo, v.hi = min(v.lo, x), max(v.hi, x)
	if !v.holds(x) {
		v.reencode()
	}
	switch v.bits {
	case 8:
		v.u8 = append(v.u8, uint8(uint64(x)-uint64(v.base)))
	case 16:
		v.u16 = append(v.u16, uint16(uint64(x)-uint64(v.base)))
	default:
		v.i64 = append(v.i64, x)
	}
}

// reencode rewrites the column into fresh arrays at the narrowest width
// whose window holds [lo, hi], with the range centred in the window.
func (v *intVec) reencode() {
	n := v.len()
	old := *v
	span := uint64(v.hi) - uint64(v.lo)
	switch {
	case span < 1<<8:
		v.bits = 8
	case span < 1<<16:
		v.bits = 16
	default:
		v.bits = 64
	}
	v.u8, v.u16, v.i64 = nil, nil, nil
	capacity := n + n/4 + 16
	if v.bits == 64 {
		v.base = 0
		v.i64 = make([]int64, n, capacity)
		for i := range v.i64 {
			v.i64[i] = old.at(i)
		}
		return
	}
	size := uint64(v.window())
	slack := (size - 1 - span) / 2
	// Clamp the window inside the int64 range, so base + offset never
	// overflows; the range still fits, as span < size.
	switch {
	case uint64(v.lo)^1<<63 < slack: // v.lo's distance above MinInt64
		v.base = math.MinInt64
	case uint64(math.MaxInt64)-uint64(v.lo) < size-1-slack:
		v.base = math.MaxInt64 - int64(size-1)
	default:
		v.base = v.lo - int64(slack)
	}
	if v.bits == 8 {
		v.u8 = make([]uint8, n, capacity)
		for i := range v.u8 {
			v.u8[i] = uint8(uint64(old.at(i)) - uint64(v.base))
		}
	} else {
		v.u16 = make([]uint16, n, capacity)
		for i := range v.u16 {
			v.u16[i] = uint16(uint64(old.at(i)) - uint64(v.base))
		}
	}
}

// clone shares the storage read-only: full-capacity slicing forces
// copy-on-append.
func (v intVec) clone() intVec {
	v.u8 = v.u8[:len(v.u8):len(v.u8)]
	v.u16 = v.u16[:len(v.u16):len(v.u16)]
	v.i64 = v.i64[:len(v.i64):len(v.i64)]
	return v
}

// gather copies the rows named by sel into fresh storage of the same
// encoding; lo and hi stay the source's, which bound the gathered range.
func (v intVec) gather(sel []int32) intVec {
	out := intVec{bits: v.bits, base: v.base, lo: v.lo, hi: v.hi}
	switch v.bits {
	case 8:
		out.u8 = gatherSlice(v.u8, sel)
	case 16:
		out.u16 = gatherSlice(v.u16, sel)
	default:
		out.i64 = gatherSlice(v.i64, sel)
	}
	return out
}

func gatherSlice[T any](xs []T, sel []int32) []T {
	out := make([]T, len(sel))
	for i, p := range sel {
		out[i] = xs[p]
	}
	return out
}

// IntColumn is read-only access to an int column's storage, indexed by
// physical row. Values are stored as offsets into a window when the
// column's range allows (see Window), so bulk readers can bin or mark
// rows through a table indexed by offset instead of by value.
type IntColumn struct{ v intVec }

// At returns the value of physical row i.
func (c IntColumn) At(i int) int64 { return c.v.at(i) }

// Window reports the column's offset window: every stored value is
// base + o for an offset o in [0, size), and size is 256 or 65536. size
// is 0 when the column stores raw int64 values.
func (c IntColumn) Window() (base int64, size int) {
	if c.v.bits == 64 {
		return 0, 0
	}
	return c.v.base, c.v.window()
}

// Lookup sets dst[i] = table[o] for each physical row lo+i, where o is
// that row's offset. It needs a window (Window's size > 0) and a table of
// at least size entries.
func (c IntColumn) Lookup(dst []int32, lo int, table []int32) {
	switch c.v.bits {
	case 8:
		table = table[:256]
		for i, o := range c.v.u8[lo : lo+len(dst)] {
			dst[i] = table[o]
		}
	case 16:
		table = table[:65536]
		for i, o := range c.v.u16[lo : lo+len(dst)] {
			dst[i] = table[o]
		}
	default:
		panic("dataset: Lookup on an int column without a window")
	}
}
