package dataset

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
// slices is populated, selected by kind. Every stored value has the
// column's kind: Table.Append rejects a value of another kind, so reads
// and vectorized evaluation work on the typed slice alone.
type column struct {
	kind   Kind
	ints   []int64
	floats []float64
	bools  []bool
	codes  []uint32
	dict   *stringDict
}

func newColumn(kind Kind) *column {
	c := &column{kind: kind}
	if kind == KindString {
		c.dict = newStringDict()
	}
	return c
}

// appendValue appends v, which must have the column's kind.
func (c *column) appendValue(v Value) {
	switch c.kind {
	case KindInt:
		c.ints = append(c.ints, v.i)
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
		return Int(c.ints[i])
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
		out.ints = c.ints[:len(c.ints):len(c.ints)]
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

// gather materializes the subset of rows named by sel into a fresh column.
func (c *column) gather(sel []int32) *column {
	out := newColumn(c.kind)
	for _, p := range sel {
		out.appendValue(c.value(int(p)))
	}
	return out
}
