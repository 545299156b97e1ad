package server

import (
	"fmt"
	"strings"
	"testing"

	"osdp/internal/dataset"
)

func artifactsTestServer(t *testing.T) (*Server, *ds) {
	t.Helper()
	s := New(Config{AllowSeededSessions: true})
	tb, err := dataset.ReadCSV(strings.NewReader(
		"City:string,Age:int,Score:float\n" +
			"ams,30,1.5\nbos,17,2.5\nams,40,3.5\ncdg,12,0.5\nbos,55,4.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	pol := dataset.NewPolicy("minors", dataset.Cmp("Age", dataset.OpLe, dataset.Int(17)))
	if err := s.RegisterTable("d", tb, pol); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	d := s.datasets["d"]
	s.mu.Unlock()
	return s, d
}

func TestArtifactsPrecompileDerivedDomains(t *testing.T) {
	_, d := artifactsTestServer(t)
	for _, attr := range []string{"City", "Age", "Score"} {
		dom, ok := d.art.derived[attr]
		if !ok {
			t.Fatalf("no derived domain precompiled for %q", attr)
		}
		if dom.Attr() != attr {
			t.Fatalf("derived domain for %q reports attr %q", attr, dom.Attr())
		}
	}
	// Derived from the NON-SENSITIVE partition only: the minors (ams is
	// fine, the age-12 cdg row is sensitive) must not leak into labels.
	city := d.art.derived["City"]
	for _, l := range city.Labels() {
		if l == "cdg" {
			t.Error("derived domain leaked a sensitive-only value")
		}
	}
	// Typed ordering from the SortedKeys fix: ages sort numerically.
	age := d.art.derived["Age"]
	labels := age.Labels()
	if len(labels) != 3 || labels[0] != "30" || labels[1] != "40" || labels[2] != "55" {
		t.Errorf("derived Age labels = %v, want [30 40 55]", labels)
	}
}

func TestArtifactsDomainAndPredicateCaches(t *testing.T) {
	_, d := artifactsTestServer(t)

	// Derived shapes resolve to the precompiled Domain, not a fresh one.
	spec := DomainSpec{Attr: "City"}
	d1, err := d.art.domain(spec, d.ns)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d.art.derived["City"] {
		t.Error("derived shape did not reuse the precompiled domain")
	}

	// Explicit shapes land in the LRU once and are reused.
	exp := DomainSpec{Attr: "Age", Lo: 0, Width: 10, Bins: 8}
	e1, err := d.art.domain(exp, d.ns)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := d.art.domain(exp, d.ns)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("explicit domain recompiled on repeat")
	}
	if d.art.domains.len() != 1 {
		t.Errorf("domain LRU holds %d entries, want 1", d.art.domains.len())
	}

	// Compiled predicates are cached by spec.
	where := PredicateSpec{Op: "cmp", Attr: "Age", Cmp: ">=", Value: float64(18)}
	p1, err := d.art.predicate(where, d.table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d.art.predicate(where, d.table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if d.art.preds.len() != 1 {
		t.Errorf("predicate LRU holds %d entries, want 1", d.art.preds.len())
	}
	// Cached predicate still evaluates correctly.
	if got := d.table.Count(p1); got != 3 || d.table.Count(p2) != 3 {
		t.Errorf("cached predicate counts %d adults, want 3", got)
	}

	// Bad specs stay uncached errors.
	if _, err := d.art.domain(DomainSpec{Attr: "Nope"}, d.ns); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := d.art.predicate(PredicateSpec{Op: "cmp", Attr: "Nope", Cmp: "=", Value: "x"}, d.table.Schema()); err == nil {
		t.Error("unknown predicate attribute accepted")
	}
}

// Derived domains over high-cardinality attributes are rejected in O(1)
// with an actionable error, not re-derived per query. The cap counts the
// NON-SENSITIVE partition, so an attribute over the cap in the whole table
// but within it among non-sensitive rows is still derived and served.
func TestOversizedDerivedDomainRejected(t *testing.T) {
	s := New(Config{AllowSeededSessions: true})
	schema := dataset.NewSchema(
		dataset.Field{Name: "ID", Kind: dataset.KindInt},
		dataset.Field{Name: "Score", Kind: dataset.KindFloat},
		dataset.Field{Name: "Name", Kind: dataset.KindString},
		dataset.Field{Name: "City", Kind: dataset.KindString},
	)
	tb := dataset.NewTable(schema)
	for i := 0; i < maxDerivedDomainKeys+10; i++ {
		tb.AppendValues(dataset.Int(int64(i)), dataset.Float(float64(i)/3), dataset.Str(fmt.Sprintf("n%d", i)), dataset.Str("x"))
	}
	if err := s.RegisterTable("big", tb, dataset.AllNonSensitive()); err != nil {
		t.Fatal(err)
	}
	d := registeredDataset(s, "big")
	for _, attr := range []string{"ID", "Score", "Name"} {
		if _, ok := d.art.derived[attr]; ok {
			t.Errorf("high-cardinality %s was pinned at registration", attr)
		}
		if _, ok := d.art.oversized[attr]; !ok {
			t.Errorf("high-cardinality %s not recorded as oversized", attr)
		}
		_, err := d.art.domain(DomainSpec{Attr: attr}, d.ns)
		if err == nil {
			t.Errorf("oversized derived domain over %s accepted", attr)
			continue
		}
		for _, want := range []string{"more than 65536 distinct values", "declare keys or buckets"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s rejection %q does not say %q", attr, err, want)
			}
		}
	}
	// The low-cardinality attribute still works.
	if _, err := d.art.domain(DomainSpec{Attr: "City"}, d.ns); err != nil {
		t.Errorf("small derived domain rejected: %v", err)
	}

	// Rows with ID >= 2^16 are sensitive, so exactly 2^16 IDs are
	// non-sensitive: at the cap, not above it.
	pol := dataset.NewPolicy("tail", dataset.Cmp("ID", dataset.OpGe, dataset.Int(maxDerivedDomainKeys)))
	if err := s.RegisterTable("split", tb, pol); err != nil {
		t.Fatal(err)
	}
	d = registeredDataset(s, "split")
	if _, ok := d.art.oversized["ID"]; ok {
		t.Fatal("cap counted sensitive rows: ID marked oversized")
	}
	dom, err := d.art.domain(DomainSpec{Attr: "ID"}, d.ns)
	if err != nil {
		t.Fatalf("derived domain within the non-sensitive cap rejected: %v", err)
	}
	if dom.Size() != maxDerivedDomainKeys {
		t.Errorf("derived ID domain has %d keys, want %d", dom.Size(), maxDerivedDomainKeys)
	}
	seed := int64(3)
	si, err := s.OpenSession("", OpenSessionRequest{Dataset: "split", Budget: 0, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Query("", si.ID, QueryRequest{Kind: KindHistogram, Eps: 1, Dims: []DomainSpec{{Attr: "ID"}}})
	if err != nil {
		t.Fatalf("histogram over the derived ID domain: %v", err)
	}
	n := maxDerivedDomainKeys
	if len(resp.Counts) != n || len(resp.Labels) != n || resp.Labels[n-1] != fmt.Sprint(n-1) {
		t.Errorf("served %d counts and %d labels, want %d ending at %d", len(resp.Counts), len(resp.Labels), n, n-1)
	}
}

func registeredDataset(s *Server, name string) *ds {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.datasets[name]
}

func TestLRUEviction(t *testing.T) {
	c := newLRU[int](2)
	c.put("a", 1)
	c.put("b", 2)
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatal("missing fresh entry")
	}
	c.put("c", 3) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Error("LRU kept the least-recently-used entry")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("LRU evicted the recently-used entry")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("LRU lost the newest entry")
	}
	c.put("a", 9)
	if v, _ := c.get("a"); v != 9 {
		t.Error("put did not refresh an existing key")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}
