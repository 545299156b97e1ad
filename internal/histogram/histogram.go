// Package histogram implements the histogram-query substrate of the paper:
// counts over a non-overlapping partitioning of a dataset ("SELECT group,
// COUNT(*) FROM table WHERE cond GROUP BY keys", §5), including bins with
// zero counts. It provides dense 1-D and 2-D histograms over declared
// domains, construction from dataset tables, policy-based splitting into
// sensitive/non-sensitive components, range queries, and the shape
// statistics (scale, sparsity) used by the DPBench evaluation (Table 2).
package histogram

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"

	"osdp/internal/dataset"
)

// Histogram is a dense vector of non-negative counts, one per domain bin.
// Counts are float64 because private estimates are real-valued; true
// histograms hold integers. A Histogram is a plain mutable value: safe
// for concurrent reads, but mutation (SetCount, Add, Clamp…) must not
// race with any other access — mechanisms that perturb counts work on
// Clone()s for exactly this reason.
type Histogram struct {
	counts []float64
	labels []string // optional, len 0 or len(counts)
}

// New returns an all-zero histogram with d bins.
func New(d int) *Histogram {
	if d <= 0 {
		panic("histogram: domain size must be positive")
	}
	return &Histogram{counts: make([]float64, d)}
}

// FromCounts wraps a count vector (copied) as a histogram.
func FromCounts(counts []float64) *Histogram {
	h := New(len(counts))
	copy(h.counts, counts)
	return h
}

// FromInts wraps an integer count vector as a histogram.
func FromInts(counts []int) *Histogram {
	h := New(len(counts))
	for i, c := range counts {
		h.counts[i] = float64(c)
	}
	return h
}

// Bins returns the number of bins d.
func (h *Histogram) Bins() int { return len(h.counts) }

// Count returns the count of bin i.
func (h *Histogram) Count(i int) float64 { return h.counts[i] }

// SetCount sets the count of bin i.
func (h *Histogram) SetCount(i int, v float64) { h.counts[i] = v }

// Add increments bin i by delta.
func (h *Histogram) Add(i int, delta float64) { h.counts[i] += delta }

// Counts returns the underlying count slice. Callers must treat it as
// read-only; mechanisms that perturb counts work on Clone()s.
func (h *Histogram) Counts() []float64 { return h.counts }

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	out := &Histogram{counts: make([]float64, len(h.counts))}
	copy(out.counts, h.counts)
	if h.labels != nil {
		out.labels = append([]string(nil), h.labels...)
	}
	return out
}

// SetLabels attaches bin labels (for reporting). len(labels) must equal
// Bins().
func (h *Histogram) SetLabels(labels []string) {
	if len(labels) != len(h.counts) {
		panic("histogram: label arity mismatch")
	}
	h.labels = append([]string(nil), labels...)
}

// Label returns the label of bin i, or its index rendered as a string.
func (h *Histogram) Label(i int) string {
	if h.labels != nil {
		return h.labels[i]
	}
	return fmt.Sprintf("%d", i)
}

// Scale returns the L1 mass ‖x‖₁ (total record count for true histograms).
func (h *Histogram) Scale() float64 {
	var s float64
	for _, c := range h.counts {
		s += c
	}
	return s
}

// Sparsity returns the fraction of bins with zero count, the statistic
// DPBench reports per dataset (Table 2).
func (h *Histogram) Sparsity() float64 {
	zero := 0
	for _, c := range h.counts {
		if c == 0 {
			zero++
		}
	}
	return float64(zero) / float64(len(h.counts))
}

// ZeroBins returns the indices of zero-count bins, the set Z consumed by
// the DAWAz recipe (Algorithm 3).
func (h *Histogram) ZeroBins() []int {
	var z []int
	for i, c := range h.counts {
		if c == 0 {
			z = append(z, i)
		}
	}
	return z
}

// RangeSum returns the sum of counts over bins [lo, hi] inclusive.
func (h *Histogram) RangeSum(lo, hi int) float64 {
	if lo < 0 || hi >= len(h.counts) || lo > hi {
		panic(fmt.Sprintf("histogram: bad range [%d, %d] over %d bins", lo, hi, len(h.counts)))
	}
	var s float64
	for i := lo; i <= hi; i++ {
		s += h.counts[i]
	}
	return s
}

// Sub returns h - o elementwise. Panics on arity mismatch.
func (h *Histogram) Sub(o *Histogram) *Histogram {
	mustSameBins(h, o)
	out := New(len(h.counts))
	for i := range h.counts {
		out.counts[i] = h.counts[i] - o.counts[i]
	}
	return out
}

// AddHist returns h + o elementwise.
func (h *Histogram) AddHist(o *Histogram) *Histogram {
	mustSameBins(h, o)
	out := New(len(h.counts))
	for i := range h.counts {
		out.counts[i] = h.counts[i] + o.counts[i]
	}
	return out
}

// L1Distance returns ‖h − o‖₁.
func (h *Histogram) L1Distance(o *Histogram) float64 {
	mustSameBins(h, o)
	var s float64
	for i := range h.counts {
		s += math.Abs(h.counts[i] - o.counts[i])
	}
	return s
}

// ClampNonNegative sets negative counts to zero in place and returns h.
func (h *Histogram) ClampNonNegative() *Histogram {
	for i, c := range h.counts {
		if c < 0 {
			h.counts[i] = 0
		}
	}
	return h
}

// Dominates reports whether every count in h is >= the matching count in o.
// Used to check the one-sided neighbor property (x'ns >= xns pointwise).
func (h *Histogram) Dominates(o *Histogram) bool {
	mustSameBins(h, o)
	for i := range h.counts {
		if h.counts[i] < o.counts[i] {
			return false
		}
	}
	return true
}

func mustSameBins(a, b *Histogram) {
	if a.Bins() != b.Bins() {
		panic(fmt.Sprintf("histogram: bin mismatch %d vs %d", a.Bins(), b.Bins()))
	}
}

// Domain maps attribute values to dense bin indices. It is how a GROUP BY
// over a categorical or bucketised attribute becomes a vector of counts
// that includes empty groups — the paper's histogram query semantics.
// A Domain is immutable after construction and safe for concurrent use:
// the lazily-built per-table bin vectors are guarded by an internal
// mutex, so one Domain can serve racing queries (the server registry
// relies on this).
type Domain struct {
	attr   string
	keys   []string
	index  map[string]int
	numLo  float64 // numeric bucketing, used when keys == nil
	numW   float64
	numLen int

	// binCache holds, per base table, the precomputed bin id of every
	// PHYSICAL row (-1 = outside the domain). Building it is one typed
	// pass over the column vector; evaluating a histogram query is then
	// an int-slice walk with no per-record rendering or map lookups.
	// Entries are invalidated by row-count changes (tables are
	// append-only) and the cache lives exactly as long as the Domain, so
	// long-lived Domains should be paired with long-lived tables (the
	// server registry does this).
	binMu    sync.Mutex
	binCache map[*dataset.Table]binEntry
}

type binEntry struct {
	bins []int32
	n    int // base row count when computed
}

// NewCategoricalDomain declares a domain as an explicit ordered key list.
func NewCategoricalDomain(attr string, keys []string) *Domain {
	d := &Domain{attr: attr, keys: append([]string(nil), keys...), index: make(map[string]int, len(keys))}
	for i, k := range d.keys {
		if _, dup := d.index[k]; dup {
			panic(fmt.Sprintf("histogram: duplicate domain key %q", k))
		}
		d.index[k] = i
	}
	return d
}

// NewNumericDomain declares equi-width buckets [lo, lo+w), [lo+w, lo+2w), …
// covering n buckets of attribute attr.
func NewNumericDomain(attr string, lo, width float64, n int) *Domain {
	if width <= 0 || n <= 0 {
		panic("histogram: numeric domain needs positive width and size")
	}
	return &Domain{attr: attr, numLo: lo, numW: width, numLen: n}
}

// DomainFromTable derives a categorical domain from the distinct values of
// attr present in the table, sorted.
func DomainFromTable(t *dataset.Table, attr string) *Domain {
	return NewCategoricalDomain(attr, t.SortedKeys(attr))
}

// Attr returns the attribute the domain is defined over.
func (d *Domain) Attr() string { return d.attr }

// Size returns the number of bins.
func (d *Domain) Size() int {
	if d.keys != nil {
		return len(d.keys)
	}
	return d.numLen
}

// BinOf maps a record to its bin, or -1 if the value is outside the domain.
func (d *Domain) BinOf(r dataset.Record) int {
	v := r.Get(d.attr)
	if d.keys != nil {
		i, ok := d.index[v.AsString()]
		if !ok {
			return -1
		}
		return i
	}
	return d.bucketOf(v.AsFloat())
}

// bucketOf maps a numeric value to its equi-width bucket, or -1.
func (d *Domain) bucketOf(x float64) int {
	i := int(math.Floor((x - d.numLo) / d.numW))
	if i < 0 || i >= d.numLen {
		return -1
	}
	return i
}

// Precompute builds and caches the per-row bin vector for t's base table,
// so the first query against t does not pay the binning pass. The server
// registry calls this at dataset-load time. On tables above one chunk
// (64K rows) the binning pass is sharded across the dataset scan worker
// pool; workers write disjoint segments of the vector, so the result is
// identical to a serial build. Safe for concurrent use (the bin cache
// carries its own mutex).
func (d *Domain) Precompute(t *dataset.Table) { d.binVector(t.Base()) }

// binVector returns the cached bin id of every physical row of base,
// building it on first use (or after the table grew).
func (d *Domain) binVector(base *dataset.Table) []int32 {
	d.binMu.Lock()
	defer d.binMu.Unlock()
	if e, ok := d.binCache[base]; ok && e.n == base.Len() {
		return e.bins
	}
	bins := d.buildBinVector(base)
	if d.binCache == nil {
		d.binCache = make(map[*dataset.Table]binEntry)
	}
	d.binCache[base] = binEntry{bins: bins, n: base.Len()}
	return bins
}

// buildBinVector computes the bin vector in one pass over the typed
// column. Every column kind has a typed fill for both domain shapes, and
// a Column* accessor declines only a column of another kind, so exactly
// one case of each switch matches. Every fill reproduces BinOf's
// semantics exactly (bin by AsString for categorical domains, by AsFloat
// for numeric ones). Each fill variant
// does its setup (dictionary/bin tables, key maps) once on the calling
// goroutine and then chunks the row loop over the scan worker pool;
// workers write disjoint bins[lo:hi] segments and only read shared
// state, so the parallel build is positionally identical to serial.
func (d *Domain) buildBinVector(base *dataset.Table) []int32 {
	n := base.Len()
	bins := make([]int32, n)
	ci := base.Schema().ColumnIndex(d.attr)
	if ci < 0 {
		panic(fmt.Sprintf("histogram: unknown attribute %q", d.attr))
	}
	if d.keys != nil {
		switch {
		case d.fillCategoricalStrings(base, ci, bins):
		case d.fillCategoricalInts(base, ci, bins):
		case d.fillCategoricalFloats(base, ci, bins):
		case d.fillCategoricalBools(base, ci, bins):
		}
		return bins
	}
	switch {
	case d.fillNumericInts(base, ci, bins):
	case d.fillNumericFloats(base, ci, bins):
	case d.fillNumericStrings(base, ci, bins):
	case d.fillNumericBools(base, ci, bins):
	}
	return bins
}

// fillCategoricalStrings resolves each DISTINCT dictionary entry to a bin
// once; the row pass is then a pure table lookup.
func (d *Domain) fillCategoricalStrings(base *dataset.Table, ci int, bins []int32) bool {
	codes, dict, ok := base.ColumnStrings(ci)
	if !ok {
		return false
	}
	code2bin := make([]int32, len(dict))
	for code, s := range dict {
		b, ok := d.index[s]
		if !ok {
			b = -1
		}
		code2bin[code] = int32(b)
	}
	dataset.ParallelRows(len(bins), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			bins[i] = code2bin[codes[i]]
		}
	})
	return true
}

// fillCategoricalInts maps domain keys that are canonical int renderings
// to typed values, so rows bin via an int64 lookup instead of FormatInt.
func (d *Domain) fillCategoricalInts(base *dataset.Table, ci int, bins []int32) bool {
	ints, ok := base.ColumnInts(ci)
	if !ok {
		return false
	}
	m := make(map[int64]int32, len(d.keys))
	for b, k := range d.keys {
		v, err := strconv.ParseInt(k, 10, 64)
		if err == nil && strconv.FormatInt(v, 10) == k {
			m[v] = int32(b)
		}
	}
	dataset.ParallelRows(len(bins), func(_, lo, hi int) {
		for i, x := range ints[lo:hi] {
			if b, ok := m[x]; ok {
				bins[lo+i] = b
			} else {
				bins[lo+i] = -1
			}
		}
	})
	return true
}

func (d *Domain) fillCategoricalFloats(base *dataset.Table, ci int, bins []int32) bool {
	floats, ok := base.ColumnFloats(ci)
	if !ok {
		return false
	}
	// NaN and ±0 need care: NaN never hits a float map key, and -0 == 0
	// would collapse the distinct renderings "0" and "-0" into one slot.
	m := make(map[float64]int32, len(d.keys))
	nanBin, posZeroBin, negZeroBin := int32(-1), int32(-1), int32(-1)
	for b, k := range d.keys {
		v, err := strconv.ParseFloat(k, 64)
		if err != nil || strconv.FormatFloat(v, 'g', -1, 64) != k {
			continue
		}
		switch {
		case math.IsNaN(v):
			nanBin = int32(b)
		case v == 0 && math.Signbit(v):
			negZeroBin = int32(b)
		case v == 0:
			posZeroBin = int32(b)
		default:
			m[v] = int32(b)
		}
	}
	dataset.ParallelRows(len(bins), func(_, lo, hi int) {
		for i, x := range floats[lo:hi] {
			switch {
			case math.IsNaN(x):
				bins[lo+i] = nanBin
			case x == 0 && math.Signbit(x):
				bins[lo+i] = negZeroBin
			case x == 0:
				bins[lo+i] = posZeroBin
			default:
				if b, ok := m[x]; ok {
					bins[lo+i] = b
				} else {
					bins[lo+i] = -1
				}
			}
		}
	})
	return true
}

func (d *Domain) fillCategoricalBools(base *dataset.Table, ci int, bins []int32) bool {
	bools, ok := base.ColumnBools(ci)
	if !ok {
		return false
	}
	binFor := func(key string) int32 {
		if b, ok := d.index[key]; ok {
			return int32(b)
		}
		return -1
	}
	trueBin, falseBin := binFor("true"), binFor("false")
	fillBools(bins, bools, trueBin, falseBin)
	return true
}

// fillBools maps a bool column onto its two bins, chunked.
func fillBools(bins []int32, bools []bool, trueBin, falseBin int32) {
	dataset.ParallelRows(len(bins), func(_, lo, hi int) {
		for i, x := range bools[lo:hi] {
			if x {
				bins[lo+i] = trueBin
			} else {
				bins[lo+i] = falseBin
			}
		}
	})
}

func (d *Domain) fillNumericInts(base *dataset.Table, ci int, bins []int32) bool {
	ints, ok := base.ColumnInts(ci)
	if !ok {
		return false
	}
	dataset.ParallelRows(len(bins), func(_, lo, hi int) {
		for i, x := range ints[lo:hi] {
			bins[lo+i] = int32(d.bucketOf(float64(x)))
		}
	})
	return true
}

func (d *Domain) fillNumericFloats(base *dataset.Table, ci int, bins []int32) bool {
	floats, ok := base.ColumnFloats(ci)
	if !ok {
		return false
	}
	dataset.ParallelRows(len(bins), func(_, lo, hi int) {
		for i, x := range floats[lo:hi] {
			bins[lo+i] = int32(d.bucketOf(x))
		}
	})
	return true
}

// fillNumericStrings parses each DISTINCT dictionary entry once
// (matching Value.AsFloat: unparseable strings bin as 0).
func (d *Domain) fillNumericStrings(base *dataset.Table, ci int, bins []int32) bool {
	codes, dict, ok := base.ColumnStrings(ci)
	if !ok {
		return false
	}
	code2bin := make([]int32, len(dict))
	for code, s := range dict {
		f, _ := strconv.ParseFloat(s, 64)
		code2bin[code] = int32(d.bucketOf(f))
	}
	dataset.ParallelRows(len(bins), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			bins[i] = code2bin[codes[i]]
		}
	})
	return true
}

func (d *Domain) fillNumericBools(base *dataset.Table, ci int, bins []int32) bool {
	bools, ok := base.ColumnBools(ci)
	if !ok {
		return false
	}
	trueBin, falseBin := int32(d.bucketOf(1)), int32(d.bucketOf(0))
	fillBools(bins, bools, trueBin, falseBin)
	return true
}

// Labels returns display labels for the bins.
func (d *Domain) Labels() []string {
	if d.keys != nil {
		return append([]string(nil), d.keys...)
	}
	out := make([]string, d.numLen)
	for i := range out {
		out[i] = fmt.Sprintf("[%g,%g)", d.numLo+float64(i)*d.numW, d.numLo+float64(i+1)*d.numW)
	}
	return out
}

// Query is a histogram query: an optional WHERE condition plus a GROUP BY
// domain (or the cross product of two domains for 2-D histograms).
type Query struct {
	Where dataset.Predicate // nil means no condition
	Dims  []*Domain         // 1 or 2 dimensions
}

// NewQuery builds a histogram query over the given dimensions.
func NewQuery(where dataset.Predicate, dims ...*Domain) Query {
	if len(dims) == 0 || len(dims) > 2 {
		panic("histogram: queries support 1 or 2 dimensions")
	}
	return Query{Where: where, Dims: dims}
}

// Bins returns the flattened output arity (product of dimension sizes).
func (q Query) Bins() int {
	n := 1
	for _, d := range q.Dims {
		n *= d.Size()
	}
	return n
}

// maxParallelAccumulateBins caps the output arity above which Eval
// accumulates serially even on large tables: the parallel path gives
// each worker a private partial histogram, and pinning workers x bins
// float64s of scratch for a huge, necessarily sparse output would cost
// more in allocation than the scan saves. Below the cap the scratch is
// at most a few MB across the whole pool.
const maxParallelAccumulateBins = 1 << 16

// Eval runs the query over the table, returning a dense histogram in
// row-major order (first dimension outermost). Records outside the domain
// or failing the condition are ignored.
//
// Execution is columnar: the WHERE condition compiles to a bitset over
// the base table's physical rows, already ANDed with the table's
// membership (dataset.Table.SelectPhysical), and each dimension
// contributes a cached per-physical-row bin-id vector, so the scan walks
// the set bits of that bitset and reads the bin vectors directly — no
// per-record rendering, map entries, or interface dispatch, and no
// mapping of a view's rows onto its own positions. Reusing the same
// Domain values across queries (as the server registry does) makes the
// binning pass a one-time cost per (table, domain).
//
// On tables above one chunk (64K rows) the accumulation pass is sharded
// across the dataset scan worker pool: each worker counts its chunks
// into a private partial histogram and the partials are summed at the
// end. Counts are exact integers far below 2^53, so the float64 merge
// is order-independent and the result is bit-identical to a serial
// evaluation, whatever the worker count — pinned by the differential
// tests. Eval is safe for concurrent use.
func (q Query) Eval(t *dataset.Table) *Histogram {
	if len(q.Dims) == 0 {
		panic("histogram: query has no dimensions")
	}
	h := New(q.Bins())
	base := t.Base()
	bins0 := q.Dims[0].binVector(base)
	var bins1 []int32
	size1 := 0
	switch len(q.Dims) {
	case 1:
	case 2:
		bins1 = q.Dims[1].binVector(base)
		size1 = q.Dims[1].Size()
	default:
		// NewQuery only builds 1-D and 2-D queries, but Dims is an
		// exported field; evaluate hand-built higher dimensionality
		// generically rather than silently dropping dimensions.
		return q.evalND(t, h)
	}
	rows := t.SelectPhysical(q.Where).Words()
	n := base.Len()
	// accumulate counts the selected physical rows of [lo, hi) into
	// counts, walking the set bits of each word. Everything it reads —
	// bin vectors, the row bitset — is immutable during the pass.
	accumulate := func(counts []float64, lo, hi int) {
		for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
			for w := rows[wi]; w != 0; w &= w - 1 {
				p := wi<<6 | bits.TrailingZeros64(w)
				b := bins0[p]
				if b < 0 {
					continue
				}
				if bins1 != nil {
					b2 := bins1[p]
					if b2 < 0 {
						continue
					}
					b = b*int32(size1) + b2
				}
				counts[b]++
			}
		}
	}
	if dataset.ScanParallelism(n) > 1 && len(h.counts) <= maxParallelAccumulateBins {
		// Slots are bounded by MaxScanWorkers even if the configured
		// worker count changes while the pass is being set up; unused
		// slots stay nil and merge as zero.
		partials := make([][]float64, dataset.MaxScanWorkers)
		dataset.ParallelRows(n, func(w, lo, hi int) {
			p := partials[w]
			if p == nil {
				p = make([]float64, len(h.counts))
				partials[w] = p
			}
			accumulate(p, lo, hi)
		})
		for _, p := range partials {
			if p == nil {
				continue
			}
			for i, c := range p {
				h.counts[i] += c
			}
		}
	} else {
		accumulate(h.counts, 0, n)
	}
	if len(q.Dims) == 1 {
		h.labels = q.Dims[0].Labels()
	}
	return h
}

// evalND is the general row-major accumulation for queries with more
// than two dimensions. It stays serial: only hand-built queries reach
// it, and its bin vectors still come from the (parallel) binVector
// build above.
func (q Query) evalND(t *dataset.Table, h *Histogram) *Histogram {
	base := t.Base()
	binVecs := make([][]int32, len(q.Dims))
	sizes := make([]int, len(q.Dims))
	for d, dom := range q.Dims {
		binVecs[d] = dom.binVector(base)
		sizes[d] = dom.Size()
	}
	for wi, w := range t.SelectPhysical(q.Where).Words() {
		for ; w != 0; w &= w - 1 {
			p := wi<<6 | bits.TrailingZeros64(w)
			bin, ok := 0, true
			for d := range binVecs {
				b := binVecs[d][p]
				if b < 0 {
					ok = false
					break
				}
				bin = bin*sizes[d] + int(b)
			}
			if ok {
				h.counts[bin]++
			}
		}
	}
	return h
}

// EvalSplit evaluates the query separately on the sensitive and
// non-sensitive portions of the table under policy p, returning (x, xns):
// the full histogram and the non-sensitive histogram. These are the two
// inputs to the DAWAz recipe. Both the policy split (dataset.Table.Split)
// and the two evaluations shard over the scan worker pool on large
// tables; like Eval, the results are bit-identical to serial execution.
func (q Query) EvalSplit(t *dataset.Table, p dataset.Policy) (x, xns *Histogram) {
	x = q.Eval(t)
	_, ns := t.Split(p)
	xns = q.Eval(ns)
	return x, xns
}

// SparseCounts is a sparse histogram over an unbounded string domain, used
// for high-dimensional tasks like n-gram release where materialising all
// 64ⁿ bins is intractable (§6.3.2). Zero-count keys are implicit.
type SparseCounts map[string]float64

// AddKey increments the count of key by delta.
func (s SparseCounts) AddKey(key string, delta float64) { s[key] += delta }

// Scale returns the total mass.
func (s SparseCounts) Scale() float64 {
	var sum float64
	for _, c := range s {
		sum += c
	}
	return sum
}

// Keys returns the non-zero keys in sorted order.
func (s SparseCounts) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Clone deep-copies the sparse counts.
func (s SparseCounts) Clone() SparseCounts {
	out := make(SparseCounts, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}
