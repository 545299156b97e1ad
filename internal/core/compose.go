package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"osdp/internal/dataset"
)

// ErrBudgetExceeded is wrapped by Spend rejections, so callers (e.g. a
// serving layer mapping errors to status codes) can test with errors.Is
// instead of matching message text.
var ErrBudgetExceeded = errors.New("exceeds remaining budget")

// Accountant tracks the cumulative OSDP guarantee of a sequence of
// mechanism executions on the same database, implementing the sequential
// composition theorem (Theorem 3.3): running (P₁,ε₁)…(Pk,εk)-OSDP
// mechanisms satisfies (P_mr, Σεᵢ)-OSDP, where P_mr is the minimum
// relaxation of the policies (a record stays sensitive only if *every*
// mechanism treated it as sensitive).
//
// An Accountant can also be given a budget; Spend rejects charges that
// would exceed it, the standard guard rail for interactive query answering.
// Accountants are safe for concurrent use: simultaneous Spend calls are
// serialised, so a shared budget can back multiple query threads without
// double-spending.
type Accountant struct {
	mu      sync.Mutex
	budget  float64 // 0 means unlimited
	spent   float64
	charges []Guarantee // every charge, in order: Charges and Refund read it

	// The composite's parts, kept as charges land so that Composite and
	// Snapshot cost O(distinct policies), not O(charges): each distinct
	// charged policy once (by Policy.Key, whose keys the set holds), in
	// first-charge order, and the charges' ε summed in charge order.
	policies []dataset.Policy
	keys     map[string]struct{}
	eps      float64
}

// NewAccountant returns an accountant with the given total ε budget.
// A budget of 0 means unlimited (pure bookkeeping).
func NewAccountant(budget float64) *Accountant {
	if budget < 0 {
		panic("core: negative privacy budget")
	}
	return &Accountant{budget: budget}
}

// Spend records an (P, ε)-OSDP charge. It returns an error — and records
// nothing — if the charge would exceed the budget.
func (a *Accountant) Spend(g Guarantee) error {
	// The !(> 0) form also rejects NaN, which would otherwise slip past
	// a <= 0 check and poison the spent total.
	if !(g.Epsilon > 0) {
		return fmt.Errorf("core: non-positive epsilon %g", g.Epsilon)
	}
	if math.IsInf(g.Epsilon, 1) {
		return fmt.Errorf("core: infinite epsilon")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.budget > 0 && a.spent+g.Epsilon > a.budget+1e-12 {
		return fmt.Errorf("core: charge %g %w %g", g.Epsilon, ErrBudgetExceeded, a.budget-a.spent)
	}
	a.spent += g.Epsilon
	a.record(g)
	return nil
}

// record appends g to the charges and folds it into the composite's
// parts. The caller holds a.mu.
func (a *Accountant) record(g Guarantee) {
	a.charges = append(a.charges, g)
	a.fold(g)
}

// fold adds g to the composite's parts. The caller holds a.mu.
func (a *Accountant) fold(g Guarantee) {
	a.eps += g.Epsilon
	// A policy without a key equals no other, so it is always kept.
	if key, ok := g.Policy.Key(); ok {
		if _, seen := a.keys[key]; seen {
			return
		}
		if a.keys == nil {
			a.keys = make(map[string]struct{})
		}
		a.keys[key] = struct{}{}
	}
	a.policies = append(a.policies, g.Policy)
}

// Spent returns the total ε consumed so far.
func (a *Accountant) Spent() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// Remaining returns the unspent budget, or +Inf semantics via the full
// budget when unlimited (budget 0 returns 0 spent-against-nothing; callers
// should check Budget() first).
func (a *Accountant) Remaining() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.budget == 0 {
		return 0
	}
	return a.budget - a.spent
}

// Budget returns the configured budget (0 = unlimited).
func (a *Accountant) Budget() float64 { return a.budget }

// Charges returns a copy of the recorded guarantees in order.
func (a *Accountant) Charges() []Guarantee {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Guarantee(nil), a.charges...)
}

// Composite returns the overall guarantee by Theorem 3.3: ε's add, and the
// effective policy is the minimum relaxation of all charged policies.
// With no charges it returns a zero guarantee under the all-sensitive
// policy (vacuously private).
func (a *Accountant) Composite() Guarantee {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.compositeLocked()
}

// compositeLocked relaxes over each distinct policy once: a repeated
// policy adds nothing to the minimum relaxation (its sensitive records
// are already required), and MinimumRelaxation names each policy name
// once, in first-charge order, either way.
func (a *Accountant) compositeLocked() Guarantee {
	if len(a.charges) == 0 {
		return Guarantee{Policy: dataset.AllSensitive(), Epsilon: 0}
	}
	return Guarantee{Policy: dataset.MinimumRelaxation(a.policies...), Epsilon: a.eps}
}

// Refund removes the most recent recorded charge matching g — same
// policy name and same ε — and returns its ε to the budget. It exists
// for serving layers that must reserve budget in an outer ledger BEFORE
// running a mechanism: when the mechanism fails before any noise is
// drawn, nothing was released and the reservation may be returned.
// Refunding after randomness has been observed would break the Theorem
// 3.3 composition this accountant certifies (see Session.Quantile for
// the canonical non-refundable case), so callers are responsible for
// only refunding pre-noise failures. It is an error if no matching
// charge exists; callers should treat that as "the charge stands" —
// erring toward counting more spend, never less.
func (a *Accountant) Refund(g Guarantee) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := len(a.charges) - 1; i >= 0; i-- {
		c := a.charges[i]
		if c.Epsilon == g.Epsilon && c.Policy.Name() == g.Policy.Name() {
			a.charges = append(a.charges[:i], a.charges[i+1:]...)
			// Rebuild the composite's parts from the charges that stand,
			// so first-charge order and the ε sum are exactly what they
			// would be had the refunded charge never landed. Refunds are
			// rare (pre-noise failures), so the O(charges) pass is too.
			a.policies, a.keys, a.eps = nil, nil, 0
			for _, c := range a.charges {
				a.fold(c)
			}
			a.spent -= g.Epsilon
			if a.spent < 0 { // float dust from non-associative sums
				a.spent = 0
			}
			return nil
		}
	}
	return fmt.Errorf("core: refund of %g under %s matches no recorded charge", g.Epsilon, g.Policy.Name())
}

// RestoreSpend seeds the accountant with ε that was already spent in an
// earlier process life, recorded as a single composite charge. Unlike
// Spend it never checks the budget: durable spend replayed from a
// ledger must be honoured even when it exceeds a budget an operator has
// since lowered — otherwise a restart would erase real leakage. A zero
// ε restore is a no-op; negative, NaN, and infinite values are rejected.
func (a *Accountant) RestoreSpend(g Guarantee) error {
	if math.IsNaN(g.Epsilon) || math.IsInf(g.Epsilon, 0) || g.Epsilon < 0 {
		return fmt.Errorf("core: restored spend %g must be finite and non-negative", g.Epsilon)
	}
	if g.Epsilon == 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spent += g.Epsilon
	a.record(g)
	return nil
}

// Snapshot returns the spent total and the composite guarantee under a
// single lock acquisition, so a charge landing between the two reads
// cannot produce a ledger where the guarantee's ε disagrees with the
// spent total. Serving layers use it for consistent budget reports.
func (a *Accountant) Snapshot() (spent float64, composite Guarantee) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent, a.compositeLocked()
}

// String summarises the account, e.g. "spent 1.1/2 over 3 charges".
func (a *Accountant) String() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "spent %g", a.spent)
	if a.budget > 0 {
		fmt.Fprintf(&b, "/%g", a.budget)
	}
	fmt.Fprintf(&b, " over %d charges", len(a.charges))
	return b.String()
}

// SplitBudget divides eps into (ρ·ε, (1−ρ)·ε), the budget split used by the
// DAWAz recipe (Algorithm 3, lines 1–2). It panics unless 0 < rho < 1.
func SplitBudget(eps, rho float64) (osdpPart, dpPart float64) {
	if rho <= 0 || rho >= 1 {
		panic(fmt.Sprintf("core: budget split rho=%g must lie in (0,1)", rho))
	}
	return rho * eps, (1 - rho) * eps
}
