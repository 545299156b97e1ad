package dataset

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Schema names and types the attributes of a table. Attribute order is
// significant: records are stored positionally.
type Schema struct {
	names []string
	kinds []Kind
	index map[string]int
}

// NewSchema builds a schema from (name, kind) pairs. It panics on duplicate
// attribute names, since a schema is almost always a package-level constant
// and a duplicate is a programming error.
func NewSchema(fields ...Field) *Schema {
	s := &Schema{index: make(map[string]int, len(fields))}
	for _, f := range fields {
		if _, dup := s.index[f.Name]; dup {
			panic(fmt.Sprintf("dataset: duplicate attribute %q", f.Name))
		}
		s.index[f.Name] = len(s.names)
		s.names = append(s.names, f.Name)
		s.kinds = append(s.kinds, f.Kind)
	}
	return s
}

// Field is one attribute declaration in a schema.
type Field struct {
	Name string
	Kind Kind
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.names) }

// Names returns the attribute names in declaration order. The caller must
// not modify the returned slice.
func (s *Schema) Names() []string { return s.names }

// KindOf returns the declared kind of the named attribute.
func (s *Schema) KindOf(name string) (Kind, bool) {
	i, ok := s.index[name]
	if !ok {
		return 0, false
	}
	return s.kinds[i], true
}

// ColumnIndex returns the position of the named attribute, or -1.
func (s *Schema) ColumnIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		return -1
	}
	return i
}

// Record is a tuple conforming to some schema. A record is either
// standalone (built by NewRecord, carrying its own values) or a
// lightweight row view into a table's column store (returned by
// Table.Record/Records). Both are value types: copying one never copies
// attribute data, so treat records as immutable once stored in a table.
type Record struct {
	schema *Schema
	values []Value // standalone records
	tab    *Table  // row views: the base table owning the columns
	row    int     // physical row index in tab
}

// NewRecord builds a standalone record for schema s from positional
// values. It panics if the arity does not match.
func NewRecord(s *Schema, values ...Value) Record {
	if len(values) != s.Len() {
		panic(fmt.Sprintf("dataset: record arity %d does not match schema arity %d",
			len(values), s.Len()))
	}
	return Record{schema: s, values: values}
}

// Schema returns the record's schema.
func (r Record) Schema() *Schema { return r.schema }

// Get returns the value of the named attribute. It panics on an unknown
// attribute, which indicates a policy/query written against the wrong
// schema.
func (r Record) Get(name string) Value {
	i := r.schema.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("dataset: unknown attribute %q", name))
	}
	return r.At(i)
}

// At returns the value at column position i.
func (r Record) At(i int) Value {
	if r.values != nil {
		return r.values[i]
	}
	return r.tab.cols[i].value(r.row)
}

// Key renders the record as a canonical string, usable as a map key for
// multiset semantics and for grouping. Values are escaped so that the
// field separator occurring inside a value cannot alias distinct records.
func (r Record) Key() string {
	var b strings.Builder
	for i := 0; i < r.schema.Len(); i++ {
		if i > 0 {
			b.WriteByte(keySep)
		}
		writeEscapedKeyPart(&b, r.At(i).AsString())
	}
	return b.String()
}

// keySep separates fields in a record key; values containing it (or the
// escape byte) are escaped by writeEscapedKeyPart so keys stay injective.
const keySep = '\x1f'

func writeEscapedKeyPart(b *strings.Builder, s string) {
	if !strings.ContainsAny(s, "\\\x1f") {
		b.WriteString(s)
		return
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case keySep:
			b.WriteString(`\u`)
		default:
			b.WriteByte(s[i])
		}
	}
}

// Table is an in-memory multiset of records sharing one schema — the
// "database D" of the paper. Storage is columnar: each attribute is a
// typed vector (ints at the narrowest width that holds their range,
// float64s, bools, or a dictionary-coded string column),
// and the Record API reads through lightweight row views. A table is
// either a base table owning its columns, or a view: a selection vector
// over another table's columns, produced by Filter and Split. Views share
// storage — N policy partitions of one dataset cost N index slices, not N
// copies of the data.
//
// Tables are safe for concurrent READS (Record/Records, Filter, Count,
// Select, Split); Append must not race with any other access, matching
// the previous contract.
type Table struct {
	schema *Schema
	cols   []*column
	nrows  int // physical rows; meaningful for base tables

	base *Table  // nil for base tables; the storage owner for views
	sel  []int32 // view: physical row ids in base, strictly increasing

	// mask is the table's membership over Base()'s physical rows (see
	// members): a view made by Split holds its cached partition bitset
	// from the start, any other table builds the mask on first use.
	mask atomic.Pointer[Bitset]

	mu     sync.Mutex
	splits map[string]*splitEntry
	runs   map[int]*SortedRuns // by column index; see SortedRuns
}

// splitEntry caches one policy's partition of a table: the bitsets and
// the derived selection vectors (shared by every view handed out).
type splitEntry struct {
	sens, ns       *Bitset
	sensSel, nsSel []int32
}

// NewTable creates an empty base table with the given schema.
func NewTable(s *Schema) *Table {
	t := &Table{schema: s, cols: make([]*column, s.Len())}
	for i := range t.cols {
		t.cols[i] = newColumn(s.kinds[i])
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of records.
func (t *Table) Len() int {
	if t.sel != nil {
		return len(t.sel)
	}
	return t.nrows
}

// Base returns the table owning the physical column storage: t itself for
// base tables, the root table for views. Row ids in Selection and in the
// Column* accessors are indices into Base().
func (t *Table) Base() *Table {
	if t.base != nil {
		return t.base
	}
	return t
}

// Selection returns the physical row ids (into Base()) backing a view —
// strictly increasing, so view order is base order — or nil when t is a
// base table or a view covering every base row (rows are then
// 0..Len()-1 directly). The caller must not modify the returned slice.
func (t *Table) Selection() []int32 {
	if t.sel != nil && t.selIsIdentity() {
		return nil
	}
	return t.sel
}

// physRow maps a table-relative position to a physical row in Base().
func (t *Table) physRow(i int) int {
	if t.sel != nil {
		return int(t.sel[i])
	}
	return i
}

// ColumnInts returns the storage of int column i of the base table,
// indexed by PHYSICAL row (combine with Selection on views). ok is false
// only when column i is of another kind. The IntColumn is a snapshot: a
// later Append to the table does not change it.
func (t *Table) ColumnInts(i int) (IntColumn, bool) {
	c := t.Base().cols[i]
	if c.kind != KindInt {
		return IntColumn{}, false
	}
	return IntColumn{c.ints}, true
}

// ColumnFloats returns the float64 vector backing column i of the base
// storage, indexed by PHYSICAL row (combine with Selection on views).
// ok is false only when column i is of another kind.
func (t *Table) ColumnFloats(i int) ([]float64, bool) {
	c := t.Base().cols[i]
	if c.kind != KindFloat {
		return nil, false
	}
	return c.floats, true
}

// ColumnBools is ColumnFloats for bool columns.
func (t *Table) ColumnBools(i int) ([]bool, bool) {
	c := t.Base().cols[i]
	if c.kind != KindBool {
		return nil, false
	}
	return c.bools, true
}

// ColumnStrings returns the dictionary codes and dictionary of a string
// column of the base storage, indexed by PHYSICAL row. The dictionary
// maps code -> string and may contain entries no physical row references.
// ok is false only when column i is of another kind.
func (t *Table) ColumnStrings(i int) (codes []uint32, dict []string, ok bool) {
	c := t.Base().cols[i]
	if c.kind != KindString {
		return nil, nil, false
	}
	return c.codes, c.dict.vals, true
}

// Append adds records to the table. Records must share the table's
// schema, and every value of a standalone record must have its
// attribute's declared kind; Append panics otherwise, before changing
// anything, so a rejected call leaves the table and its views as they
// were. Appending to a view first materializes it into an independent
// base table (the view semantics of Filter/Split results are
// copy-on-append).
func (t *Table) Append(rs ...Record) {
	for _, r := range rs {
		if r.schema != t.schema {
			panic("dataset: record schema does not match table schema")
		}
		for i, v := range r.values {
			if k := t.schema.kinds[i]; v.kind != k {
				panic(fmt.Sprintf("dataset: attribute %q is %s, got a %s value", t.schema.names[i], k, v.kind))
			}
		}
	}
	t.materialize()
	t.invalidate()
	for _, r := range rs {
		for i, c := range t.cols {
			c.appendValue(r.At(i))
		}
		t.nrows++
	}
}

// AppendValues builds a record from positional values and appends it.
func (t *Table) AppendValues(values ...Value) {
	t.Append(NewRecord(t.schema, values...))
}

// materialize converts a view into a base table owning copies of its
// selected rows. No-op on base tables.
func (t *Table) materialize() {
	if t.sel == nil {
		return
	}
	baseCols := t.Base().cols
	cols := make([]*column, len(baseCols))
	for i, c := range baseCols {
		cols[i] = c.gather(t.sel)
	}
	t.cols = cols
	t.nrows = len(t.sel)
	t.base = nil
	t.sel = nil
}

// invalidate drops caches that depend on the current row set.
func (t *Table) invalidate() {
	t.mu.Lock()
	t.splits = nil
	t.runs = nil
	t.mu.Unlock()
	t.mask.Store(nil)
}

// Record returns the i-th record as a row view.
func (t *Table) Record(i int) Record {
	if i < 0 || i >= t.Len() {
		panic(fmt.Sprintf("dataset: record index %d out of range [0, %d)", i, t.Len()))
	}
	return Record{schema: t.schema, tab: t.Base(), row: t.physRow(i)}
}

// Records returns the table's records as row views. The slice is built
// per call (a Record view is three words, nothing is pinned on the
// table); the caller must not mutate it. On hot paths prefer indexed
// access (Len/Record) or the columnar operations (Filter, Count, Select,
// histogram.Query.Eval), which avoid materializing the slice entirely.
func (t *Table) Records() []Record {
	base := t.Base()
	rows := make([]Record, t.Len())
	for i := range rows {
		rows[i] = Record{schema: t.schema, tab: base, row: t.physRow(i)}
	}
	return rows
}

// viewOf returns a view of t selecting the given table-relative positions
// (translated to physical rows).
func (t *Table) viewOf(positions []int32) *Table {
	sel := positions
	if t.sel != nil {
		sel = make([]int32, len(positions))
		for i, p := range positions {
			sel[i] = t.sel[p]
		}
	}
	return &Table{schema: t.schema, cols: t.Base().cols, base: t.Base(), sel: sel}
}

// Take returns the records at the given table-relative positions as a
// view sharing this table's storage (copy-on-append, like Filter and
// Split): no column data is copied. positions must be strictly
// increasing and in [0, Len()); Take panics otherwise. A view of a base
// table keeps positions as its selection vector, so the caller must not
// modify the slice afterwards.
func (t *Table) Take(positions []int32) *Table {
	prev := int32(-1)
	for _, p := range positions {
		if p <= prev || int(p) >= t.Len() {
			panic(fmt.Sprintf("dataset: Take positions must be strictly increasing in [0, %d), got %d after %d", t.Len(), p, prev))
		}
		prev = p
	}
	if positions == nil {
		// A nil selection marks a base table; an empty view needs an
		// empty, non-nil one.
		positions = []int32{}
	}
	return t.viewOf(positions)
}

// viewFromSel returns a view of the BASE storage with the given physical
// selection vector (which must not be mutated afterwards).
func (t *Table) viewFromSel(sel []int32) *Table {
	return &Table{schema: t.schema, cols: t.Base().cols, base: t.Base(), sel: sel}
}

// Select compiles and evaluates pred over the table, returning the
// selection bitset over the table's own positions (bit i set means
// record i matches). Comparison predicates over typed columns are
// evaluated vectorized — one pass over the typed slice with no
// per-record interface dispatch; combinators become bitset algebra. On
// tables above one chunk (64K rows) the vectorized passes are sharded
// across the scan worker pool (see ParallelRows); results are
// bit-identical to serial evaluation for every worker count. Unlike
// per-record evaluation, And/Or do not short-circuit, so predicates must
// be pure functions of the record. Opaque predicates (FuncPredicate) are
// invoked only on the table's own records — never on rows a view
// excludes — and always serially, never from pool workers.
//
// Select is safe for concurrent use with other reads of the table.
func (t *Table) Select(pred Predicate) *Bitset {
	if t.sel == nil || t.selIsIdentity() {
		out := NewBitset(t.Base().nrows)
		evalPhysical(t.Base(), pred, nil, out)
		return out
	}
	return projectToView(t, t.SelectPhysical(pred))
}

// SelectPhysical returns the physical rows of Base() that are in t and
// satisfy pred, as a bitset over Base()'s rows. A nil pred selects every
// row of t. Scans that read the column vectors by physical row
// (Table.Count, histogram.Query.Eval) use it to skip mapping a view's
// rows onto its own positions: the predicate is evaluated over the base
// columns with t's membership mask ANDed into each word as it is built.
// Opaque predicates see only t's own rows, serially, in view order.
// Select of a view is this bitset mapped onto the view's positions.
//
// With a nil or True pred the result is the membership mask itself,
// shared by every caller; the caller must not modify it. SelectPhysical
// is safe for concurrent use with other reads of the table.
func (t *Table) SelectPhysical(pred Predicate) *Bitset {
	if _, all := pred.(truePredicate); all || pred == nil {
		return t.members()
	}
	out := NewBitset(t.Base().nrows)
	evalPhysical(t.Base(), pred, t.scanMask(), out)
	return out
}

// ScanPhysical calls f with SelectPhysical(pred), held in scratch
// storage that is reused once f returns, so a scan that only reads the
// selected rows allocates no bitset. f must neither keep nor modify the
// bitset. ScanPhysical is safe for concurrent use with other reads of
// the table.
func (t *Table) ScanPhysical(pred Predicate, f func(rows *Bitset)) {
	if _, all := pred.(truePredicate); all || pred == nil {
		f(t.members())
		return
	}
	out := getScratch(t.Base().nrows)
	evalPhysical(t.Base(), pred, t.scanMask(), out)
	f(out)
	putScratch(out)
}

// scanMask is the mask a physical scan of t runs under: nil when every
// physical row is a member, else t's membership mask.
func (t *Table) scanMask() *Bitset {
	if t.sel == nil || t.selIsIdentity() {
		return nil
	}
	return t.members()
}

// members returns t's membership mask over Base()'s physical rows,
// building it on first use, and again if the base table has grown since
// (a view keeps its rows when its base is appended to). Racing builders
// store equal masks, so whichever lands last serves every caller alike.
func (t *Table) members() *Bitset {
	n := t.Base().nrows
	if m := t.mask.Load(); m != nil && m.n == n {
		return m
	}
	m := NewBitset(n)
	if t.sel == nil {
		m.setAll()
	} else {
		for _, p := range t.sel {
			m.set(int(p))
		}
	}
	t.mask.Store(m)
	return m
}

// selIsIdentity reports whether a view covers every base row in order.
// Selection vectors are strictly increasing physical row ids (Filter and
// Split emit bitset indices; composition preserves monotonicity), so
// covering the full base is equivalent to length equality — an O(1)
// check that lets full-table partitions (e.g. AllNonSensitive policies)
// skip the per-row selection indirection entirely.
func (t *Table) selIsIdentity() bool {
	return len(t.sel) == t.Base().nrows
}

// Filter returns the records satisfying pred as a view sharing this
// table's storage (copy-on-append).
func (t *Table) Filter(pred Predicate) *Table {
	return t.viewOf(t.Select(pred).indices())
}

// Count returns the number of records satisfying pred (every record when
// pred is nil): the population count of SelectPhysical, evaluated into
// scratch storage, so a view is counted over its physical rows without
// mapping them onto its own positions or allocating a bitset.
func (t *Table) Count(pred Predicate) int {
	if _, all := pred.(truePredicate); all || pred == nil {
		return t.Len()
	}
	n := 0
	t.ScanPhysical(pred, func(rows *Bitset) { n = rows.Count() })
	return n
}

// GroupCount groups records by the value of attribute name and returns a
// count per group key (rendered as a string). It is the engine behind
// "SELECT group, COUNT(*) ... GROUP BY" histogram queries; dense domains
// should prefer histogram.Query, which counts into a precomputed bin
// vector instead of a string map.
func (t *Table) GroupCount(name string) map[string]int {
	ci := t.schema.ColumnIndex(name)
	if ci < 0 {
		panic(fmt.Sprintf("dataset: unknown attribute %q", name))
	}
	out := make(map[string]int)
	if codes, dict, ok := t.ColumnStrings(ci); ok {
		// Dictionary fast path: count codes, render each distinct value once.
		cnt := make([]int, len(dict))
		if t.sel != nil {
			for _, p := range t.sel {
				cnt[codes[p]]++
			}
		} else {
			for _, c := range codes[:t.nrows] {
				cnt[c]++
			}
		}
		for code, n := range cnt {
			if n > 0 {
				out[dict[code]] = n
			}
		}
		return out
	}
	col := t.Base().cols[ci]
	n := t.Len()
	for i := 0; i < n; i++ {
		out[col.value(t.physRow(i)).AsString()]++
	}
	return out
}

// Key identifies a policy: the policy name plus a kind-tagged structural
// rendering of the predicate (predCacheKey). Two policies with the same
// key partition every table alike and render alike, so the split cache
// keys its entries by it and the budget accountant keeps one policy per
// key. Unlike Predicate.String, the rendering distinguishes
// comparison-value kinds — Cmp(a, OpEq, Str("true")) and
// Cmp(a, OpEq, Bool(true)) behave differently and must not share a
// key — and identifies FuncPredicate by a minted per-instance id, so
// same-named opaque predicates wrapping different functions never alias
// either. ok is false when the predicate contains an implementation this
// package cannot assign a sound identity to; such a policy equals no
// other and is never cached.
func (p Policy) Key() (key string, ok bool) {
	pk, ok := predCacheKey(p.sensitive)
	return p.name + "\x00" + pk, ok
}

// predCacheKey renders a predicate for cache identity: structure tokens
// are fixed, every free-form string (attribute, value) is %q-quoted,
// comparison values carry their kind, and FuncPredicate contributes its
// minted id, so two predicates with different semantics cannot collide.
// Predicate implementations from outside this package have no provable
// identity (String() need not be faithful) and return ok=false.
func predCacheKey(p Predicate) (key string, ok bool) {
	switch q := p.(type) {
	case cmpPredicate:
		return fmt.Sprintf("cmp(%q,%d,%d:%q)", q.attr, q.op, q.val.kind, q.val.AsString()), true
	case andPredicate:
		return joinCacheKeys("and", q)
	case orPredicate:
		return joinCacheKeys("or", q)
	case notPredicate:
		sub, ok := predCacheKey(q.p)
		return "not(" + sub + ")", ok
	case truePredicate:
		return "true", true
	case falsePredicate:
		return "false", true
	case funcPredicate:
		// The minted id makes distinct function values distinct cache
		// identities even under colliding names; the same predicate
		// VALUE (however copied) still hits the cache.
		return fmt.Sprintf("func:%d", q.id), true
	default:
		return "", false
	}
}

func joinCacheKeys(tag string, ps []Predicate) (string, bool) {
	parts := make([]string, len(ps))
	for i, sub := range ps {
		k, ok := predCacheKey(sub)
		if !ok {
			return "", false
		}
		parts[i] = k
	}
	return tag + "(" + strings.Join(parts, ",") + ")", true
}

// SplitBits partitions the table by policy P into (sensitive,
// nonSensitive) selection bitsets. The partition is computed once per
// (table, policy) and cached — concurrent sessions over one dataset share
// a single split pass; the pass itself shards its predicate evaluation
// across the scan worker pool on large tables (see Select). Policies
// whose predicates come from outside this package (other than
// FuncPredicate) are computed fresh every call, as they have no sound
// cache identity.
//
// SplitBits is safe for concurrent use; racing callers for the same
// uncached policy serialize on the table's split mutex.
func (t *Table) SplitBits(p Policy) (sensitive, nonSensitive *Bitset) {
	e := t.splitEntryFor(p)
	return e.sens, e.ns
}

// maxSplitCacheEntries bounds the per-table split cache. Serving and
// session use means one or two policies per table; only policy SWEEPS
// (experiments trying hundreds of policies on one table) exceed it, and
// for those recomputation beats pinning ~4.25 bytes/row/policy forever.
const maxSplitCacheEntries = 8

func (t *Table) splitEntryFor(p Policy) *splitEntry {
	key, cacheable := p.Key()
	t.mu.Lock()
	defer t.mu.Unlock()
	if cacheable {
		if e, ok := t.splits[key]; ok {
			return e
		}
	}
	sens := t.Select(p.sensitive)
	ns := sens.Clone()
	ns.invert()
	e := &splitEntry{sens: sens, ns: ns, sensSel: sens.indices(), nsSel: ns.indices()}
	if !cacheable {
		return e
	}
	if t.splits == nil {
		t.splits = make(map[string]*splitEntry)
	}
	if len(t.splits) >= maxSplitCacheEntries {
		// Evict an arbitrary entry (map order); this is a cache, not a
		// ledger — a future miss just recomputes.
		for k := range t.splits {
			delete(t.splits, k)
			break
		}
	}
	t.splits[key] = e
	return e
}

// Split partitions the table by policy P into (sensitive, nonSensitive)
// views sharing this table's storage. The underlying partition is the
// cached SplitBits result, so repeated splits under the same policy cost
// O(1) after the first.
func (t *Table) Split(p Policy) (sensitive, nonSensitive *Table) {
	e := t.splitEntryFor(p)
	if t.sel != nil {
		// View: translate view-relative indices to physical rows.
		return t.viewOf(e.sensSel), t.viewOf(e.nsSel)
	}
	sens, ns := t.viewFromSel(e.sensSel), t.viewFromSel(e.nsSel)
	// Over a base table the partition bitsets are over physical rows:
	// they are the views' membership masks.
	sens.mask.Store(e.sens)
	ns.mask.Store(e.ns)
	return sens, ns
}

// Clone returns an independent table with the same records. Column
// vectors are shared copy-on-append; the dictionary and caches are not
// shared, so appending to either table never disturbs the other.
func (t *Table) Clone() *Table {
	if t.sel != nil {
		out := NewTable(t.schema)
		baseCols := t.Base().cols
		out.cols = make([]*column, len(baseCols))
		for i, c := range baseCols {
			out.cols[i] = c.gather(t.sel)
		}
		out.nrows = len(t.sel)
		return out
	}
	out := &Table{schema: t.schema, cols: make([]*column, len(t.cols)), nrows: t.nrows}
	for i, c := range t.cols {
		out.cols[i] = c.clone()
	}
	return out
}

// Multiset returns the multiset view of the table: canonical record key to
// multiplicity. Used by tests to verify multiset invariants such as
// "OsdpRR output is a sub-multiset of its input".
func (t *Table) Multiset() map[string]int {
	n := t.Len()
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		m[t.Record(i).Key()]++
	}
	return m
}

// SortedKeys returns the distinct values of the named attribute in sorted
// order; helper for building stable histogram domains from data. Values
// are ordered by their TYPED comparison (so integer attributes sort 2
// before 10, not lexicographically) and rendered as strings. It is
// SortedKeysUpTo without a cap.
func (t *Table) SortedKeys(name string) []string {
	keys, _ := t.SortedKeysUpTo(name, math.MaxInt)
	return keys
}

// SortedKeysUpTo is SortedKeys with a cap on the distinct count: ok is
// false, and keys nil, as soon as the (max+1)-th distinct value appears,
// before anything is sorted or rendered. So a column over the cap costs a
// scan up to that value, not a sort of all its distinct values. max must
// not be negative.
//
// Each column kind takes one typed distinct pass: floats and ints
// stored as raw int64 collect a set of 64-bit keys, narrow ints a seen
// vector over their offsets, bools two flags, and strings a seen vector
// over the dictionary.
func (t *Table) SortedKeysUpTo(name string, max int) (keys []string, ok bool) {
	ci := t.schema.ColumnIndex(name)
	if ci < 0 {
		panic(fmt.Sprintf("dataset: unknown attribute %q", name))
	}
	if max < 0 {
		panic(fmt.Sprintf("dataset: negative distinct-key cap %d", max))
	}
	col := t.Base().cols[ci]
	switch col.kind {
	case KindInt:
		iv := &col.ints
		if iv.bits == 64 {
			vals, ok := distinctUpTo(iv.i64, t.sel, t.nrows, max, func(v int64) int64 { return v })
			if !ok {
				return nil, false
			}
			slices.Sort(vals)
			keys = make([]string, len(vals))
			for i, v := range vals {
				keys[i] = Int(v).AsString()
			}
			return keys, true
		}
		// A narrow column marks its offsets in a dense vector, whose
		// order is the values' order.
		var seen []bool
		if iv.bits == 8 {
			seen, ok = seenCodesUpTo(iv.u8, t.sel, t.nrows, max, iv.window(), func(o uint8) int { return int(o) })
		} else {
			seen, ok = seenCodesUpTo(iv.u16, t.sel, t.nrows, max, iv.window(), func(o uint16) int { return int(o) })
		}
		if !ok {
			return nil, false
		}
		keys = make([]string, 0)
		for o, s := range seen {
			if s {
				keys = append(keys, Int(iv.base+int64(o)).AsString())
			}
		}
		return keys, true
	case KindFloat:
		ords, ok := distinctUpTo(col.floats, t.sel, t.nrows, max, floatOrder)
		if !ok {
			return nil, false
		}
		slices.Sort(ords)
		keys = make([]string, len(ords))
		for i, o := range ords {
			keys[i] = Float(floatFromOrder(o)).AsString()
		}
		return keys, true
	case KindBool:
		seen, ok := seenCodesUpTo(col.bools, t.sel, t.nrows, max, 2, func(b bool) int {
			if b {
				return 1
			}
			return 0
		})
		if !ok {
			return nil, false
		}
		keys = make([]string, 0, 2)
		for code, s := range seen {
			if s {
				keys = append(keys, Bool(code == 1).AsString())
			}
		}
		return keys, true
	default:
		dict := col.dict.vals
		seen, ok := seenCodesUpTo(col.codes, t.sel, t.nrows, max, len(dict), func(c uint32) int { return int(c) })
		if !ok {
			return nil, false
		}
		keys = make([]string, 0)
		for code, s := range seen {
			if s {
				keys = append(keys, dict[code])
			}
		}
		sort.Strings(keys)
		return keys, true
	}
}

// nanOrder is the one order key every NaN maps to. It is above the key
// of +Inf, so NaN sorts last, as it does under the generic ordering
// (NaN compares equal to every value there, and its rendering "NaN"
// sorts after every other float's).
const nanOrder = math.MaxUint64

// floatOrder maps a float to a uint64 whose unsigned order is the typed
// order of the generic path: -Inf < … < -0 < 0 < … < +Inf < NaN. It is
// injective on non-NaN floats, which all render differently.
func floatOrder(f float64) uint64 {
	if f != f {
		return nanOrder
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// floatFromOrder inverts floatOrder (to the canonical NaN for nanOrder).
func floatFromOrder(o uint64) float64 {
	switch {
	case o == nanOrder:
		return math.NaN()
	case o>>63 != 0:
		return math.Float64frombits(o &^ (1 << 63))
	default:
		return math.Float64frombits(^o)
	}
}

// distinctUpTo returns the distinct keys of vals over a table's rows (the
// view's sel, or the first n physical rows of a base table), in no
// particular order; ok is false once more than max distinct keys appear.
func distinctUpTo[V any, K comparable](vals []V, sel []int32, n, max int, key func(V) K) ([]K, bool) {
	seen := make(map[K]struct{})
	if sel != nil {
		for _, p := range sel {
			seen[key(vals[p])] = struct{}{}
			if len(seen) > max {
				return nil, false
			}
		}
	} else {
		for _, v := range vals[:n] {
			seen[key(v)] = struct{}{}
			if len(seen) > max {
				return nil, false
			}
		}
	}
	out := make([]K, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	return out, true
}

// seenCodesUpTo is distinctUpTo for values with a dense code in
// [0, ncodes): it marks the codes present; ok is false once more than
// max codes are marked.
func seenCodesUpTo[V any](vals []V, sel []int32, n, max, ncodes int, code func(V) int) ([]bool, bool) {
	seen := make([]bool, ncodes)
	count := 0
	mark := func(c int) bool {
		if !seen[c] {
			seen[c] = true
			count++
		}
		return count <= max
	}
	if sel != nil {
		for _, p := range sel {
			if !mark(code(vals[p])) {
				return nil, false
			}
		}
	} else {
		for _, v := range vals[:n] {
			if !mark(code(v)) {
				return nil, false
			}
		}
	}
	return seen, true
}
