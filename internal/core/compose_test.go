package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"osdp/internal/dataset"
)

func TestAccountantSpendAndComposite(t *testing.T) {
	a := NewAccountant(2)
	p1 := dataset.NewPolicy("minors", dataset.Cmp("Age", dataset.OpLe, dataset.Int(17)))
	p2 := dataset.NewPolicy("seniors", dataset.Cmp("Age", dataset.OpGe, dataset.Int(65)))
	if err := a.Spend(Guarantee{Policy: p1, Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(Guarantee{Policy: p2, Epsilon: 1.0}); err != nil {
		t.Fatal(err)
	}
	if a.Spent() != 1.5 {
		t.Errorf("Spent = %v", a.Spent())
	}
	if math.Abs(a.Remaining()-0.5) > 1e-12 {
		t.Errorf("Remaining = %v", a.Remaining())
	}
	comp := a.Composite()
	if comp.Epsilon != 1.5 {
		t.Errorf("composite eps = %v", comp.Epsilon)
	}
	// Composite policy = minimum relaxation: sensitive only under BOTH.
	s := testSchema()
	for _, c := range []struct {
		age  int64
		sens bool
	}{{10, false}, {70, false}, {40, false}} {
		// No record is both a minor and a senior, so nothing is sensitive.
		if comp.Policy.Sensitive(rec(s, 0, c.age)) != c.sens {
			t.Errorf("composite sensitivity of age %d wrong", c.age)
		}
	}
}

func TestAccountantBudgetEnforced(t *testing.T) {
	a := NewAccountant(1)
	g := Guarantee{Policy: dataset.AllSensitive(), Epsilon: 0.6}
	if err := a.Spend(g); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(g); err == nil {
		t.Fatal("over-budget spend succeeded")
	}
	// Failed spend must not consume budget.
	if a.Spent() != 0.6 {
		t.Errorf("Spent after failed charge = %v", a.Spent())
	}
	if err := a.Spend(Guarantee{Policy: dataset.AllSensitive(), Epsilon: 0.4}); err != nil {
		t.Errorf("exact-fit spend failed: %v", err)
	}
}

func TestAccountantRejectsNonPositiveEps(t *testing.T) {
	a := NewAccountant(0)
	if err := a.Spend(Guarantee{Policy: dataset.AllSensitive(), Epsilon: 0}); err == nil {
		t.Error("zero epsilon accepted")
	}
	if err := a.Spend(Guarantee{Policy: dataset.AllSensitive(), Epsilon: -1}); err == nil {
		t.Error("negative epsilon accepted")
	}
}

func TestAccountantUnlimited(t *testing.T) {
	a := NewAccountant(0)
	for i := 0; i < 100; i++ {
		if err := a.Spend(Guarantee{Policy: dataset.AllSensitive(), Epsilon: 10}); err != nil {
			t.Fatalf("unlimited accountant rejected charge: %v", err)
		}
	}
	if a.Spent() != 1000 {
		t.Errorf("Spent = %v", a.Spent())
	}
}

func TestAccountantNegativeBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative budget did not panic")
		}
	}()
	NewAccountant(-1)
}

func TestAccountantEmptyComposite(t *testing.T) {
	comp := NewAccountant(1).Composite()
	if comp.Epsilon != 0 || comp.Policy.Name() != "P_all" {
		t.Errorf("empty composite = %v", comp)
	}
}

func TestAccountantString(t *testing.T) {
	a := NewAccountant(2)
	_ = a.Spend(Guarantee{Policy: dataset.AllSensitive(), Epsilon: 0.5})
	if got := a.String(); !strings.Contains(got, "0.5/2") || !strings.Contains(got, "1 charges") {
		t.Errorf("String = %q", got)
	}
}

func TestSplitBudget(t *testing.T) {
	a, b := SplitBudget(1.0, 0.1)
	if math.Abs(a-0.1) > 1e-12 || math.Abs(b-0.9) > 1e-12 {
		t.Errorf("SplitBudget = %v, %v", a, b)
	}
	for _, rho := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rho=%v did not panic", rho)
				}
			}()
			SplitBudget(1, rho)
		}()
	}
}

// Concurrent spends on a shared budget must never over-commit: with a
// budget of exactly N×ε and 2N racing goroutines, exactly N must succeed.
func TestAccountantConcurrentSpends(t *testing.T) {
	const n = 50
	a := NewAccountant(n * 0.1)
	g := Guarantee{Policy: dataset.AllSensitive(), Epsilon: 0.1}
	results := make(chan error, 2*n)
	for i := 0; i < 2*n; i++ {
		go func() { results <- a.Spend(g) }()
	}
	succeeded := 0
	for i := 0; i < 2*n; i++ {
		if err := <-results; err == nil {
			succeeded++
		}
	}
	if succeeded != n {
		t.Errorf("%d spends succeeded, want exactly %d", succeeded, n)
	}
	if math.Abs(a.Spent()-n*0.1) > 1e-9 {
		t.Errorf("Spent = %v", a.Spent())
	}
	if len(a.Charges()) != n {
		t.Errorf("Charges = %d", len(a.Charges()))
	}
}

// Lemma 3.1 / 3.2 in executable form: a DP guarantee (P_all) composed under
// any policy stays valid; composition of (P_all, ε₁) and (P, ε₂) has a
// composite policy equal to P (relaxing P_all toward P).
func TestCompositeRelaxesTowardWeakest(t *testing.T) {
	a := NewAccountant(0)
	p := dataset.NewPolicy("minors", dataset.Cmp("Age", dataset.OpLe, dataset.Int(17)))
	_ = a.Spend(Guarantee{Policy: dataset.AllSensitive(), Epsilon: 1})
	_ = a.Spend(Guarantee{Policy: p, Epsilon: 1})
	comp := a.Composite()
	s := testSchema()
	// Minor: sensitive under both => stays sensitive.
	if !comp.Policy.Sensitive(rec(s, 0, 10)) {
		t.Error("minor should stay sensitive in composite")
	}
	// Adult: non-sensitive under p => non-sensitive in composite.
	if comp.Policy.Sensitive(rec(s, 0, 40)) {
		t.Error("adult should be non-sensitive in composite")
	}
}

// referenceComposite is the composite as the charges define it: ε summed
// in charge order and the minimum relaxation of every charged policy.
func referenceComposite(charges []Guarantee) Guarantee {
	if len(charges) == 0 {
		return Guarantee{Policy: dataset.AllSensitive(), Epsilon: 0}
	}
	policies := make([]dataset.Policy, len(charges))
	var eps float64
	for i, c := range charges {
		policies[i] = c.Policy
		eps += c.Epsilon
	}
	return Guarantee{Policy: dataset.MinimumRelaxation(policies...), Epsilon: eps}
}

// TestCompositeMatchesChargesUnderRefunds drives random spends, restores
// and refunds over policies that share names, predicates or neither, and
// after every step checks the kept composite against one rebuilt from
// Charges(): the same String, the same ε bit for bit, and the same
// sensitive records.
func TestCompositeMatchesChargesUnderRefunds(t *testing.T) {
	minors := dataset.Cmp("Age", dataset.OpLt, dataset.Int(18))
	seniors := dataset.Cmp("Age", dataset.OpGe, dataset.Int(65))
	even := dataset.FuncPredicate("even", func(r dataset.Record) bool { return r.Get("Age").AsFloat()/2 == math.Floor(r.Get("Age").AsFloat()/2) })
	policies := []dataset.Policy{
		dataset.NewPolicy("a", minors),
		dataset.NewPolicy("a", minors),  // equal to the first
		dataset.NewPolicy("a", seniors), // same name, other predicate
		dataset.NewPolicy("b", dataset.Or(minors, seniors)),
		dataset.NewPolicy("c", even),
		dataset.NewPolicy("c", dataset.Not(minors)),
		dataset.NewPolicy("d", keylessPredicate{}), // no Key: never deduped
	}
	schema := dataset.NewSchema(dataset.Field{Name: "Age", Kind: dataset.KindInt})
	universe := make([]dataset.Record, 100)
	for i := range universe {
		universe[i] = dataset.NewRecord(schema, dataset.Int(int64(i)))
	}
	epsilons := []float64{0.1, 0.2, 0.3}
	rng := rand.New(rand.NewSource(5))
	a := NewAccountant(0)
	for step := 0; step < 2000; step++ {
		g := Guarantee{Policy: policies[rng.Intn(len(policies))], Epsilon: epsilons[rng.Intn(len(epsilons))]}
		switch rng.Intn(4) {
		case 0, 1:
			if err := a.Spend(g); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := a.RestoreSpend(g); err != nil {
				t.Fatal(err)
			}
		default:
			_ = a.Refund(g) // no matching charge is fine
		}
		got, want := a.Composite(), referenceComposite(a.Charges())
		if got.String() != want.String() || math.Float64bits(got.Epsilon) != math.Float64bits(want.Epsilon) {
			t.Fatalf("step %d: composite %s (ε %v), charges give %s (ε %v)", step, got, got.Epsilon, want, want.Epsilon)
		}
		for _, r := range universe {
			if got.Policy.Sensitive(r) != want.Policy.Sensitive(r) {
				t.Fatalf("step %d: record %v sensitive=%v under the composite, %v under the charges", step, r.Key(), got.Policy.Sensitive(r), want.Policy.Sensitive(r))
			}
		}
	}
}

// keylessPredicate is a Predicate implemented outside package dataset,
// so its policies have no Policy.Key.
type keylessPredicate struct{}

func (keylessPredicate) Eval(r dataset.Record) bool { return r.Get("Age").AsFloat() > 90 }
func (keylessPredicate) String() string             { return "λr. keyless" }

// TestSnapshotCostIndependentOfCharges pins that a snapshot does not
// walk the charge history: a session answering thousands of queries
// under one policy reports its budget at the cost of its first query.
// A walk over the history can allocate as few objects as a constant
// snapshot, only larger ones, so the test also pins what the composite
// is built from: the one distinct policy, however many charges name it.
func TestSnapshotCostIndependentOfCharges(t *testing.T) {
	p := dataset.NewPolicy("minors", dataset.Cmp("Age", dataset.OpLt, dataset.Int(18)))
	costAt := func(charges int) float64 {
		a := NewAccountant(0)
		for i := 0; i < charges; i++ {
			if err := a.Spend(Guarantee{Policy: p, Epsilon: 0.1}); err != nil {
				t.Fatal(err)
			}
		}
		if len(a.policies) != 1 {
			t.Fatalf("%d charges under one policy keep %d policies for the composite", charges, len(a.policies))
		}
		return testing.AllocsPerRun(100, func() { a.Snapshot() })
	}
	few, many := costAt(10), costAt(10000)
	if many > few+2 {
		t.Errorf("Snapshot allocates %v objects at 10k charges, %v at 10", many, few)
	}
}
