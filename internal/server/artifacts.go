package server

import (
	"encoding/json"
	"fmt"

	"osdp/internal/dataset"
	"osdp/internal/histogram"
)

// predCacheSize bounds the per-dataset compiled-predicate LRU. Compiled
// predicates are a few small structs, so the cap can be generous.
const predCacheSize = 256

// domainCacheSize bounds the per-dataset explicit-shape domain LRU. Kept
// deliberately small: a cached Domain pins a 4-bytes-per-row bin vector
// after its first evaluation, so the worst-case retained memory is
// domainCacheSize x 4 x rows per dataset (32 MB at 1M rows) — bounded
// even against an unauthenticated client spraying distinct shapes.
const domainCacheSize = 8

// maxDerivedDomainKeys caps the distinct-value count above which a
// derived domain is neither precompiled at registration (it would pin a
// key slice + index map + bin vector per attribute forever) nor served
// per query (re-deriving it on every request would be a CPU/allocation
// amplifier for unauthenticated clients). Derived-shape queries against
// such attributes are rejected with an error directing the client to
// declare explicit keys or buckets, which ARE served and LRU-cached.
const maxDerivedDomainKeys = 1 << 16

// artifacts is the per-dataset compiled-query cache. The serving caching
// contract is:
//
//   - Precomputed at REGISTRATION (tables are immutable once registered):
//     the columnar store itself (built as the CSV loads), the policy
//     partition bitsets (dataset.Table caches the split, shared by every
//     session), and one derived histogram domain per attribute (up to
//     maxDerivedDomainKeys distinct values) — distinct
//     non-sensitive values plus the per-row bin-id vector
//     (histogram.Domain.Precompute), so data-derived GROUP BYs never
//     rescan strings at query time.
//   - Cached ACROSS queries (bounded LRUs): predicates compiled from
//     PredicateSpec trees and domains for explicit shapes (keys or
//     lo/width/bins), keyed by the canonical JSON of their spec. A reused
//     Domain carries its bin vector with it, so repeated shapes skip the
//     binning pass too. Workload queries ride the same LRUs: their
//     numeric synopsis domains are explicit shapes, so a repeated
//     workload shape reuses its compiled domain and bin vector.
//   - Computed PER QUERY: the WHERE bitset over the table's physical
//     rows, ANDed in place with the cached partition bitset (the
//     non-sensitive view's membership mask; see
//     dataset.Table.SelectPhysical), the noised counts, and everything
//     ε-bearing — including every fitted workload synopsis, which is a
//     noised release and must be drawn fresh per charge. Nothing derived
//     from noise is ever cached.
//
// derived is read-only after construction; the LRUs carry their own
// locks.
type artifacts struct {
	derived   map[string]*histogram.Domain // attr -> domain derived from ns values
	oversized map[string]struct{}          // attrs above the precompute cap
	domains   *lru[*histogram.Domain]      // spec-keyed explicit domains
	preds     *lru[dataset.Predicate]      // spec-keyed compiled predicates
}

// newArtifacts precompiles the registration-time artifacts for a dataset.
// table is the full table (owner of the column store); ns the
// non-sensitive view domains are derived from. met wires the LRUs'
// hit/miss counters (nil disables them).
func newArtifacts(table, ns *dataset.Table, met *serverMetrics) *artifacts {
	a := &artifacts{
		derived:   make(map[string]*histogram.Domain),
		oversized: make(map[string]struct{}),
		domains:   newLRU[*histogram.Domain](domainCacheSize),
		preds:     newLRU[dataset.Predicate](predCacheSize),
	}
	a.domains.hits, a.domains.misses = met.cacheCounters("domain")
	a.preds.hits, a.preds.misses = met.cacheCounters("predicate")
	for _, attr := range table.Schema().Names() {
		// The distinct pass stops at the (cap+1)-th value, so an
		// oversized attribute costs O(cap), not a sort of its column.
		keys, ok := ns.SortedKeysUpTo(attr, maxDerivedDomainKeys)
		switch {
		case !ok:
			// Too many distinct values to pin; remembered so queries
			// against it are rejected in O(1), not re-derived.
			a.oversized[attr] = struct{}{}
		case len(keys) == 0:
			// Empty derived domains stay unlisted; the per-query path
			// reports them precisely.
		default:
			d := histogram.NewCategoricalDomain(attr, keys)
			d.Precompute(table)
			a.derived[attr] = d
		}
	}
	return a
}

// domain resolves a DomainSpec against the cache: derived shapes come
// from the registration-time precompute, explicit shapes from the LRU.
func (a *artifacts) domain(spec DomainSpec, ns *dataset.Table) (*histogram.Domain, error) {
	derivedShape := len(spec.Keys) == 0 && spec.Bins == 0 && spec.Width == 0 && spec.Lo == 0
	if derivedShape {
		if d, ok := a.derived[spec.Attr]; ok {
			return d, nil
		}
		// Above-cap attributes are rejected outright rather than
		// re-derived per query: rebuilding >64k distinct values on
		// every request would hand an unauthenticated client a
		// CPU/allocation amplifier.
		if _, ok := a.oversized[spec.Attr]; ok {
			return nil, fmt.Errorf("derived domain over %q has more than %d distinct values; declare keys or buckets explicitly",
				spec.Attr, maxDerivedDomainKeys)
		}
		// Unknown attribute or empty derived domain: compileDomain
		// produces the precise error.
		return compileDomain(spec, ns)
	}
	key, err := specKey(spec)
	if err != nil {
		return compileDomain(spec, ns)
	}
	if d, ok := a.domains.get(key); ok {
		return d, nil
	}
	d, err := compileDomain(spec, ns)
	if err != nil {
		return nil, err
	}
	a.domains.put(key, d)
	return d, nil
}

// predicate resolves a PredicateSpec against the compiled-predicate LRU.
func (a *artifacts) predicate(spec PredicateSpec, schema *dataset.Schema) (dataset.Predicate, error) {
	key, kerr := specKey(spec)
	if kerr == nil {
		if p, ok := a.preds.get(key); ok {
			return p, nil
		}
	}
	p, err := compilePredicate(spec, schema)
	if err != nil {
		return nil, err
	}
	if kerr == nil {
		a.preds.put(key, p)
	}
	return p, nil
}

// specKey canonicalizes a spec for cache keying. JSON marshaling of these
// structs is deterministic (fields in declaration order); the rare
// unmarshalable PredicateSpec.Value simply bypasses the cache.
func specKey(spec any) (string, error) {
	b, err := json.Marshal(spec)
	return string(b), err
}
