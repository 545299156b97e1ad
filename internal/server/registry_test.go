package server

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"osdp/internal/dataset"
)

// countingPredicate counts its Eval calls. Being a Predicate from outside
// the dataset package, it has no split-cache identity, so every split
// under it evaluates every row.
type countingPredicate struct{ evals atomic.Int64 }

func (c *countingPredicate) Eval(dataset.Record) bool { c.evals.Add(1); return false }
func (c *countingPredicate) String() string           { return "counting" }

// A registration under a taken name fails with ErrConflict before the
// split and artifact precompute touch a single row.
func TestRegisterTakenNameFailsFast(t *testing.T) {
	s := New(Config{})
	tb := dataset.NewTable(dataset.NewSchema(dataset.Field{Name: "Age", Kind: dataset.KindInt}))
	for i := 0; i < 1000; i++ {
		tb.AppendValues(dataset.Int(int64(i % 90)))
	}
	if err := s.RegisterTable("people", tb, dataset.AllNonSensitive()); err != nil {
		t.Fatal(err)
	}
	pred := &countingPredicate{}
	err := s.RegisterTable("people", tb, dataset.NewPolicy("counting", pred))
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second registration: got %v, want ErrConflict", err)
	}
	if n := pred.evals.Load(); n != 0 {
		t.Errorf("conflicting registration evaluated the policy %d times before failing", n)
	}
}

// RegisterDataset checks the name before it parses the CSV: a malformed
// upload under a taken name is a conflict, not a parse error, so the 409
// costs no O(rows) parse.
func TestRegisterDatasetTakenNameBeforeParse(t *testing.T) {
	s := New(Config{})
	pol := PolicySpec{Name: "none", SensitiveWhen: PredicateSpec{Op: "false"}}
	if _, err := s.RegisterDataset(RegisterDatasetRequest{Name: "people", CSV: "Age:int\n34\n", Policy: pol}); err != nil {
		t.Fatal(err)
	}
	_, err := s.RegisterDataset(RegisterDatasetRequest{Name: "people", CSV: "Age:int\nnot-a-number\n", Policy: pol})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("malformed CSV under a taken name: got %v, want ErrConflict", err)
	}
	_, err = s.RegisterDataset(RegisterDatasetRequest{Name: "other", CSV: "Age:int\nnot-a-number\n", Policy: pol})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("malformed CSV under a free name: got %v, want ErrBadRequest", err)
	}
}

// Registering a float column with 4x2^16 distinct values allocates
// O(cap) objects, not O(rows): the distinct pass stops at the (cap+1)-th
// value instead of rendering and sorting every distinct float. Measured
// on linux/amd64: ~550 allocations with the capped pass, ~527k when every
// distinct value was rendered into a map first. The bound sits well
// between the two.
func TestRegisterOversizedColumnAllocs(t *testing.T) {
	tb := dataset.NewTable(dataset.NewSchema(dataset.Field{Name: "Score", Kind: dataset.KindFloat}))
	for i := 0; i < 4*maxDerivedDomainKeys; i++ {
		tb.AppendValues(dataset.Float(float64(i) + 0.5))
	}
	s := New(Config{})
	n := 0
	allocs := testing.AllocsPerRun(3, func() {
		n++
		if err := s.RegisterTable(fmt.Sprintf("d%d", n), tb, dataset.AllNonSensitive()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4096 {
		t.Errorf("registering a 4x2^16-distinct float column allocates %.0f objects; the distinct pass no longer stops at the cap", allocs)
	}
}
