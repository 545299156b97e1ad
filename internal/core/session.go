package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"osdp/internal/dataset"
	"osdp/internal/histogram"
	"osdp/internal/noise"
)

// TraceHook lets a serving layer observe the timed phases of one query
// without core importing a tracing package. Calling the hook with a
// phase name ("scan", "noise") opens the phase; calling the returned
// function closes it, with optional key/value attribute pairs. Session
// query methods accept the hook as a trailing variadic parameter so
// untraced callers are untouched and a traced call passes exactly one.
type TraceHook func(name string) func(kv ...string)

// beginPhase opens a named phase on the first hook, if any. It returns
// nil when tracing is disabled, so a call site pays one branch and
// never builds attribute strings for a trace nobody records.
func beginPhase(trace []TraceHook, name string) func(kv ...string) {
	if len(trace) == 0 || trace[0] == nil {
		return nil
	}
	return trace[0](name)
}

// endScan closes a scan phase, attaching the pool shape that executed
// it (row count, worker slots, dispatched chunks).
func endScan(end func(kv ...string), rows int) {
	if end == nil {
		return
	}
	end("rows", strconv.Itoa(rows),
		"workers", strconv.Itoa(dataset.ScanParallelism(rows)),
		"chunks", strconv.Itoa(dataset.ScanChunks(rows)))
}

// ErrEmptySample is wrapped by Quantile when the OsdpRR sample keeps
// zero records. The charge is still consumed (see Quantile); errors.Is
// lets callers distinguish this retriable outcome from budget exhaustion.
var ErrEmptySample = errors.New("sample came up empty")

// Session is an interactive OSDP query-answering endpoint over a fixed
// database — the online setting §7 flags as an open engineering problem.
// A session binds the data, the policy, a privacy-budget accountant, and
// a randomness source; every answer is charged to the accountant before
// any noise is drawn, so an exhausted budget can never leak a partial
// answer. All answers compose by Theorem 3.3: when the budget is spent,
// the transcript as a whole satisfies (P, budget)-OSDP.
//
// A Session is safe for concurrent use provided its noise.Source is —
// seeded sources must be wrapped with noise.Locked. The table, policy,
// and cached partition are never mutated after construction, and all
// budget accounting goes through the mutex-guarded Accountant.
//
// The non-sensitive partition is held as a bitset-backed VIEW over the
// database's column store, not a materialized copy: N sessions over one
// dataset share a single set of column vectors, and the policy split
// itself is computed at most once per (table, policy) — dataset.Table
// caches the partition bitsets, so even sessions opened concurrently
// with plain NewSession reuse one split pass. On tables above 64K rows
// that split pass, and every histogram/count scan a query performs,
// shards across the dataset scan worker pool (dataset.SetScanWorkers);
// parallel answers are bit-identical to serial ones, so the released
// noise distribution is untouched by the worker count.
type Session struct {
	db     *dataset.Table
	ns     *dataset.Table // non-sensitive partition: a selection view over db's columns
	policy dataset.Policy
	acct   *Accountant
	src    noise.Source
}

// NewSession opens a session over db with a total ε budget. A budget of 0
// means unlimited (useful for testing, unwise in production).
func NewSession(db *dataset.Table, policy dataset.Policy, budget float64, src noise.Source) *Session {
	_, ns := db.Split(policy)
	return NewSessionWithPartition(db, ns, policy, budget, src)
}

// NewSessionWithPartition opens a session reusing a precomputed
// non-sensitive partition, e.g. the view a serving layer derives once at
// dataset registration. ns must be exactly the non-sensitive records of
// db under policy; both tables are treated as immutable for the
// session's life.
func NewSessionWithPartition(db, ns *dataset.Table, policy dataset.Policy, budget float64, src noise.Source) *Session {
	return &Session{
		db:     db,
		ns:     ns,
		policy: policy,
		acct:   NewAccountant(budget),
		src:    src,
	}
}

// Remaining returns the unspent budget (0 when the session is unlimited).
func (s *Session) Remaining() float64 { return s.acct.Remaining() }

// Budget returns the total ε budget the session was opened with (0 means
// unlimited). Exposed so serving layers can report it alongside answers.
func (s *Session) Budget() float64 { return s.acct.Budget() }

// Policy returns the session's privacy policy.
func (s *Session) Policy() dataset.Policy { return s.policy }

// Spent returns the ε consumed so far.
func (s *Session) Spent() float64 { return s.acct.Spent() }

// Guarantee returns the cumulative guarantee of everything answered so far.
func (s *Session) Guarantee() Guarantee { return s.acct.Composite() }

// Snapshot returns the spent total and composite guarantee atomically;
// see Accountant.Snapshot.
func (s *Session) Snapshot() (spent float64, composite Guarantee) { return s.acct.Snapshot() }

// charge reserves eps from the budget or fails the query.
func (s *Session) charge(eps float64) error {
	return s.acct.Spend(Guarantee{Policy: s.policy, Epsilon: eps})
}

// Histogram answers a histogram query with OsdpLaplaceL1 at privacy level
// eps, charging the budget. The query is evaluated on the non-sensitive
// records only, as the mechanism requires.
func (s *Session) Histogram(q histogram.Query, eps float64, trace ...TraceHook) (*histogram.Histogram, error) {
	if err := s.charge(eps); err != nil {
		return nil, fmt.Errorf("core: histogram query rejected: %w", err)
	}
	end := beginPhase(trace, "scan")
	x := q.Eval(s.ns)
	endScan(end, s.ns.Len())
	end = beginPhase(trace, "noise")
	h := OsdpLaplaceL1(x, eps, s.src)
	if end != nil {
		end()
	}
	return h, nil
}

// IntHistogram answers a histogram query with OsdpGeometric (integer
// outputs) at privacy level eps, charging the budget.
func (s *Session) IntHistogram(q histogram.Query, eps float64, trace ...TraceHook) (*histogram.Histogram, error) {
	if err := s.charge(eps); err != nil {
		return nil, fmt.Errorf("core: histogram query rejected: %w", err)
	}
	end := beginPhase(trace, "scan")
	x := q.Eval(s.ns)
	endScan(end, s.ns.Len())
	end = beginPhase(trace, "noise")
	h := OsdpGeometric(x, eps, s.src)
	if end != nil {
		end()
	}
	return h, nil
}

// Sample releases a true sample of the non-sensitive records via OsdpRR at
// privacy level eps, charging the budget.
func (s *Session) Sample(eps float64, trace ...TraceHook) (*dataset.Table, error) {
	if err := s.charge(eps); err != nil {
		return nil, fmt.Errorf("core: sample rejected: %w", err)
	}
	// The keep draws are the whole mechanism execution: the
	// non-sensitive partition is already cached, so the release is one
	// "noise" phase.
	end := beginPhase(trace, "noise")
	kept := rrKeep(s.ns.Len(), eps, s.src)
	if end != nil {
		end("rows", strconv.Itoa(s.ns.Len()), "kept", strconv.Itoa(len(kept)))
	}
	return s.ns.Take(kept), nil
}

// Count answers a counting query (records matching pred) with one-sided
// Laplace noise at privacy level eps, charging the budget. Counts are
// computed over non-sensitive records; like all §5.1 primitives the answer
// never exceeds the true non-sensitive count.
func (s *Session) Count(pred dataset.Predicate, eps float64, trace ...TraceHook) (float64, error) {
	if err := s.charge(eps); err != nil {
		return 0, fmt.Errorf("core: count rejected: %w", err)
	}
	end := beginPhase(trace, "scan")
	n := s.ns.Count(pred)
	endScan(end, s.ns.Len())
	end = beginPhase(trace, "noise")
	c := float64(n) + noise.OneSidedLaplace(s.src, 1/eps)
	if end != nil {
		end()
	}
	if c < 0 {
		c = 0
	}
	return c, nil
}

// Quantile releases the q-quantile of a numeric attribute by drawing an
// OsdpRR sample at privacy level eps and returning the sample quantile —
// post-processing of the release, so the whole call costs exactly eps.
// It fails when the (random) sample is empty; callers should retry with a
// fresh budget slice or a larger eps. An unknown or non-numeric attr
// fails before anything is charged.
//
// The keep loop runs over the partition in VALUE order, not row order:
// position i is the i-th smallest value of attr (sort.Float64s order)
// among the non-sensitive records, read from the partition's cached
// dataset.SortedRuns. OsdpRR keeps every record independently with the
// same probability, so permuting the records before the loop leaves the
// law of the kept multiset unchanged. The kept positions come out
// ascending, so the sample quantile — the value at rank ⌈qK⌉ (at least
// 1) of the K kept records — is a lookup of the run holding kept
// position ⌈qK⌉−1: no kept value is gathered and nothing is sorted.
// The first quantile of an attribute builds its runs (one sort of the
// partition's values, traced as a "scan" phase); later ones reuse them.
//
// The ε charge is consumed even when the sample comes up empty. This is
// deliberate, not a bug: the keep draws ARE the OsdpRR mechanism
// execution, and "the sample was empty" is itself an observable outcome
// of that execution. Refunding the charge would let an analyst repeat the
// call until a non-empty sample appeared while paying for only one run,
// and the transcript of discarded runs would leak beyond the accounted
// budget — breaking the Theorem 3.3 composition the accountant certifies.
func (s *Session) Quantile(attr string, q, eps float64, trace ...TraceHook) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("core: quantile q=%v outside [0, 1]", q)
	}
	ci := s.ns.Schema().ColumnIndex(attr)
	if ci < 0 {
		return 0, fmt.Errorf("core: quantile of unknown attribute %q", attr)
	}
	if kind, _ := s.ns.Schema().KindOf(attr); kind != dataset.KindInt && kind != dataset.KindFloat {
		return 0, fmt.Errorf("core: quantile needs a numeric attribute; %q is %s", attr, kind)
	}
	if err := s.charge(eps); err != nil {
		return 0, fmt.Errorf("core: quantile rejected: %w", err)
	}
	runs := s.ns.CachedSortedRuns(ci)
	if runs == nil {
		end := beginPhase(trace, "scan")
		runs, _ = s.ns.SortedRuns(ci)
		if end != nil {
			end("rows", strconv.Itoa(runs.Rows()), "runs", strconv.Itoa(runs.Len()))
		}
	}
	// The keep draws ARE the mechanism execution, so drawing them and
	// looking up the answer trace as one "noise" phase.
	end := beginPhase(trace, "noise")
	kept := rrKeep(runs.Rows(), eps, s.src)
	var v float64
	if len(kept) > 0 {
		rank := max(int(math.Ceil(q*float64(len(kept)))), 1)
		v = runs.At(int(kept[rank-1]))
	}
	if end != nil {
		end("rows", strconv.Itoa(runs.Rows()), "kept", strconv.Itoa(len(kept)))
	}
	if len(kept) == 0 {
		return 0, fmt.Errorf("core: quantile %w (kept 0 of %d records)", ErrEmptySample, runs.Rows())
	}
	return v, nil
}
