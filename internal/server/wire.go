// Package server is the multi-tenant OSDP query service: the serving
// layer §7 of the paper flags as the open engineering problem. It
// registers datasets with their privacy policies, opens per-client
// core.Sessions — each with an independent ε budget and a goroutine-safe
// noise source — and answers histogram, int-histogram, count, quantile,
// sample, and range-workload queries over HTTP/JSON.
//
// The wire format is plain JSON. Predicates (query conditions and policy
// sensitivity rules) travel as expression trees (PredicateSpec) that are
// compiled against the dataset schema on arrival, so type errors are
// rejected at the boundary instead of corrupting answers. Histogram
// domains travel as DomainSpec. See client.go for a Go client speaking
// this format; the end-to-end tests exercise the real wire, not handler
// internals.
//
// Scope of the guarantee: each session's transcript is individually
// (P, budget)-OSDP, enforced by its accountant, and MaxSessionBudget
// bounds any one transcript. With Config.Ledger set the server also
// accounts composition ACROSS sessions: every /v1 request authenticates
// an analyst (bearer API key), every ε-bearing query is charged to the
// analyst's durable per-dataset ledger account before noise is drawn,
// and the Theorem 3.3 bound therefore covers the analyst's whole
// transcript over a dataset — N sessions draw from ONE budget, and the
// spend survives server restarts (see internal/ledger for the
// durability contract). Without a ledger the server runs in the legacy
// identity-free mode and cross-session composition is unaccounted.
// Seeded (reproducible) sessions are refused unless
// Config.AllowSeededSessions is set, because predictable noise voids
// the guarantee outright.
package server

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"time"

	"osdp/internal/audit"
	"osdp/internal/dataset"
	"osdp/internal/histogram"
	"osdp/internal/ledger"
	"osdp/internal/telemetry"
)

// PredicateSpec is the JSON form of a dataset.Predicate: an expression
// tree of comparisons and boolean connectives.
//
//	{"op":"cmp","attr":"Age","cmp":"<=","value":17}
//	{"op":"and","args":[...]}   {"op":"or","args":[...]}
//	{"op":"not","args":[x]}     {"op":"true"}  {"op":"false"}
type PredicateSpec struct {
	Op    string          `json:"op"`
	Attr  string          `json:"attr,omitempty"`
	Cmp   string          `json:"cmp,omitempty"`
	Value any             `json:"value,omitempty"`
	Args  []PredicateSpec `json:"args,omitempty"`
}

// PolicySpec is the JSON form of a dataset.Policy: records matching
// SensitiveWhen are sensitive (P(r)=0).
type PolicySpec struct {
	Name          string        `json:"name"`
	SensitiveWhen PredicateSpec `json:"sensitive_when"`
}

// DomainSpec is the JSON form of a histogram.Domain. Exactly one of the
// three shapes applies: explicit Keys (categorical), Bins > 0 with
// Lo/Width (numeric equi-width buckets), or neither field set — the
// domain is then derived from the distinct values present in the
// dataset. Mixed shapes are rejected rather than reinterpreted, because
// a silently-wrong domain would still charge the ε irrevocably.
type DomainSpec struct {
	Attr  string   `json:"attr"`
	Keys  []string `json:"keys,omitempty"`
	Lo    float64  `json:"lo,omitempty"`
	Width float64  `json:"width,omitempty"`
	Bins  int      `json:"bins,omitempty"`
}

// MaxQueryBins caps the total output arity of one histogram query (the
// product over dimensions). Bins are client-controlled and the server
// allocates a float64 per bin, so an uncapped request is a one-shot
// memory-exhaustion DoS from an unauthenticated client.
const MaxQueryBins = 1 << 20

// RegisterDatasetRequest registers a named dataset. CSV is the table in
// the typed-header format dataset.ReadCSV accepts.
type RegisterDatasetRequest struct {
	Name   string     `json:"name"`
	CSV    string     `json:"csv"`
	Policy PolicySpec `json:"policy"`
}

// DatasetInfo describes a registered dataset.
type DatasetInfo struct {
	Name         string   `json:"name"`
	Rows         int      `json:"rows"`
	NonSensitive int      `json:"non_sensitive_rows"`
	Attrs        []string `json:"attrs"`
	Policy       string   `json:"policy"`
}

// OpenSessionRequest opens a session over a registered dataset. Budget is
// the total ε the session may spend (0 = unlimited — unwise outside
// tests, and refused when the server sets MaxSessionBudget). Seed, when
// set, makes the session's noise reproducible; it is refused unless the
// server enables AllowSeededSessions, since predictable noise voids the
// guarantee. When nil the server draws from crypto/rand. Both paths are
// safe for concurrent queries: seeded sources are wrapped in
// noise.Locked, and secure sources carry their own internal mutex.
type OpenSessionRequest struct {
	Dataset string  `json:"dataset"`
	Budget  float64 `json:"budget"`
	Seed    *int64  `json:"seed,omitempty"`
}

// SessionInfo reports a session's identity and budget state. Analyst is
// the owning principal's id (empty on ledger-less servers). Budget
// figures are the SESSION accountant's; the analyst's cross-session
// ledger account is inspected via the admin API or /stats.
type SessionInfo struct {
	ID        string  `json:"id"`
	Dataset   string  `json:"dataset"`
	Analyst   string  `json:"analyst,omitempty"`
	Budget    float64 `json:"budget"`
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`
	Guarantee string  `json:"guarantee"`
	Policy    string  `json:"policy"`
}

// Query kinds accepted by QueryRequest.Kind.
const (
	KindHistogram    = "histogram"
	KindIntHistogram = "int-histogram"
	KindCount        = "count"
	KindQuantile     = "quantile"
	KindSample       = "sample"
	KindWorkload     = "workload"
)

// Estimator names accepted by QueryRequest.Estimator for workload
// queries. Empty defaults to EstimatorFlat.
const (
	EstimatorFlat  = "flat"  // per-bin OsdpLaplaceL1, no structural model
	EstimatorHier  = "hier"  // consistent interval tree (Hay et al.)
	EstimatorDAWA  = "dawa"  // data-aware contiguous partition (Li et al.)
	EstimatorAHP   = "ahp"   // value-based clustering (Zhang et al.)
	EstimatorAGrid = "agrid" // adaptive 2-D grid (Qardaji et al.)
)

// MaxWorkloadRanges caps the number of range queries one workload
// request may carry. Each answer is O(1) against the fitted synopsis
// and 8 output bytes, so the cap guards the response size, not CPU.
const MaxWorkloadRanges = 1 << 20

// RangeSpec is one range-count query of a workload: inclusive bin
// index ranges into the workload's declared domain(s). Lo/Hi index the
// FIRST dimension's bins. For 2-D workloads Lo2/Hi2 (both required)
// index the second dimension, and the answer is the rectangle sum;
// they must be absent on 1-D workloads.
type RangeSpec struct {
	Lo  int  `json:"lo"`
	Hi  int  `json:"hi"`
	Lo2 *int `json:"lo2,omitempty"`
	Hi2 *int `json:"hi2,omitempty"`
}

// QueryRequest is a query against an open session. Eps is the privacy
// level charged to the session budget. Which remaining fields apply
// depends on Kind:
//
//   - histogram / int-histogram: Dims (1 or 2), optional Where
//   - count: Where (the counted predicate; nil counts all records)
//   - quantile: Attr and Q in [0, 1]
//   - sample: no extra fields
//   - workload: Dims (1 or 2 numeric lo/width/bins shapes), Ranges
//     (the batch of range-count queries, answered under ONE composed ε
//     charge), optional Where, optional Estimator (default "flat")
type QueryRequest struct {
	Kind      string         `json:"kind"`
	Eps       float64        `json:"eps"`
	Where     *PredicateSpec `json:"where,omitempty"`
	Dims      []DomainSpec   `json:"dims,omitempty"`
	Attr      string         `json:"attr,omitempty"`
	Q         float64        `json:"q,omitempty"`
	Estimator string         `json:"estimator,omitempty"`
	Ranges    []RangeSpec    `json:"ranges,omitempty"`
}

// QueryResponse carries the answer for any query kind; unset fields are
// omitted. Budget reflects the session state after the charge, so clients
// can pace themselves without a second round trip.
//
// Histogram counts are flattened row-major with the FIRST dimension
// outermost: bin (i, j) of a 2-D query lives at index i*len(DimLabels[1])+j.
// DimLabels carries the per-dimension bin labels for every histogram
// answer — essential when the server derived a domain from the data,
// since the client has no other way to learn the bins it paid ε for.
type QueryResponse struct {
	Kind      string      `json:"kind"`
	Value     *float64    `json:"value,omitempty"`      // count, quantile
	Labels    []string    `json:"labels,omitempty"`     // 1-D histograms (legacy duplicate of DimLabels[0])
	DimLabels [][]string  `json:"dim_labels,omitempty"` // histograms: labels per dimension
	Counts    []float64   `json:"counts,omitempty"`     // histograms
	SampleCSV string      `json:"sample_csv,omitempty"` // sample
	Answers   []float64   `json:"answers,omitempty"`    // workload: one per RangeSpec, in request order
	Estimator string      `json:"estimator,omitempty"`  // workload: the estimator that fitted the synopsis
	Budget    SessionInfo `json:"budget"`
}

// MinQueryEps is the smallest ε a query may charge. Subnormal ε values
// overflow 1/ε to +Inf inside the samplers, which can surface NaN counts;
// rejecting them at the boundary keeps every charged query answerable.
const MinQueryEps = 1e-9

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// StatsResponse is GET /stats: coarse service aggregates safe to expose
// without credentials. Ledger fields are zero on ledger-less servers.
// SpentEps is a pointer so a ledger server with nothing spent still
// emits "spent_eps":0 — a plain float64 with omitempty made 0.0 spend
// indistinguishable on the wire from "no ledger at all".
type StatsResponse struct {
	Datasets      int      `json:"datasets"`
	Sessions      int      `json:"sessions"`
	LedgerEnabled bool     `json:"ledger"`
	LedgerDurable bool     `json:"ledger_durable,omitempty"`
	Analysts      int      `json:"analysts,omitempty"`
	Accounts      int      `json:"accounts,omitempty"`
	SpentEps      *float64 `json:"spent_eps,omitempty"`
}

// CreateAnalystRequest mints an analyst principal (admin only).
// SessionCap, when > 0, overrides the server's per-analyst concurrent
// session cap for this analyst.
type CreateAnalystRequest struct {
	Name       string `json:"name"`
	SessionCap int    `json:"session_cap,omitempty"`
}

// AnalystCreated is the one-time answer to analyst creation: Key is the
// plaintext API key, returned exactly once — the server stores only its
// hash.
type AnalystCreated struct {
	ledger.AnalystInfo
	Key string `json:"key"`
}

// BudgetGrantRequest sets the ε budget of one (analyst, dataset)
// account, replacing the server default. Lowering a budget below the
// spent total freezes the account without erasing history.
type BudgetGrantRequest struct {
	Analyst string  `json:"analyst"`
	Dataset string  `json:"dataset"`
	Budget  float64 `json:"budget"`
}

// SpendReport is GET /admin/spend: every touched ledger account plus
// totals, the operator's audit view of cumulative leakage.
type SpendReport struct {
	Analysts        int                  `json:"analysts"`
	TouchedAccounts int                  `json:"touched_accounts"`
	TotalSpent      float64              `json:"total_spent_eps"`
	Accounts        []ledger.AccountInfo `json:"accounts"`
}

// AdmissionDefaults reports the server-wide admission configuration in
// effect (GET /admin/limits), with every "0 = default" field resolved
// to its concrete value.
type AdmissionDefaults struct {
	MaxConcurrent      int     `json:"max_concurrent"`
	AnalystConcurrency int     `json:"analyst_concurrency,omitempty"`
	RatePerSec         float64 `json:"rate_per_sec,omitempty"`
	Burst              float64 `json:"burst,omitempty"`
	MaxQueued          int     `json:"max_queued"`
	Weight             float64 `json:"weight"`
}

// AnalystLimits is one analyst's admission override (POST
// /admin/limits). Zero-valued fields inherit the server default; a
// request with every numeric field zero clears the override. Overrides
// live in server memory only — they do not survive a restart (re-apply
// them from the operator's config on boot).
type AnalystLimits struct {
	Analyst string `json:"analyst"`
	// Weight is the analyst's share of contended capacity relative to
	// the default weight 1: weight 3 receives 3x the service of a
	// weight-1 analyst while both are backlogged.
	Weight float64 `json:"weight,omitempty"`
	// RatePerSec / Burst override the analyst's token bucket.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      float64 `json:"burst,omitempty"`
	// MaxConcurrent / MaxQueued override the analyst's execution and
	// queue caps.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	MaxQueued     int `json:"max_queued,omitempty"`
}

// LimitsResponse is GET /admin/limits: whether admission control is on,
// the resolved defaults, and every stored per-analyst override.
type LimitsResponse struct {
	Enabled   bool               `json:"enabled"`
	Defaults  *AdmissionDefaults `json:"defaults,omitempty"`
	Overrides []AnalystLimits    `json:"overrides,omitempty"`
}

// CompilePolicy turns a PolicySpec into a dataset.Policy against a
// schema. cmd/osdp-server uses it for policies loaded from disk; the
// HTTP registration path compiles specs the same way.
func CompilePolicy(spec PolicySpec, schema *dataset.Schema) (dataset.Policy, error) {
	if spec.Name == "" {
		return dataset.Policy{}, badf("policy name must not be empty")
	}
	pred, err := compilePredicate(spec.SensitiveWhen, schema)
	if err != nil {
		return dataset.Policy{}, fmt.Errorf("%w: policy %q: %v", ErrBadRequest, spec.Name, err)
	}
	return dataset.NewPolicy(spec.Name, pred), nil
}

// compilePredicate turns a PredicateSpec into a dataset.Predicate, typing
// comparison values against the schema.
func compilePredicate(spec PredicateSpec, schema *dataset.Schema) (dataset.Predicate, error) {
	switch spec.Op {
	case "true":
		return dataset.True(), nil
	case "false":
		return dataset.False(), nil
	case "not":
		if len(spec.Args) != 1 {
			return nil, fmt.Errorf("\"not\" takes exactly 1 argument, got %d", len(spec.Args))
		}
		p, err := compilePredicate(spec.Args[0], schema)
		if err != nil {
			return nil, err
		}
		return dataset.Not(p), nil
	case "and", "or":
		ps := make([]dataset.Predicate, len(spec.Args))
		for i, a := range spec.Args {
			p, err := compilePredicate(a, schema)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		if spec.Op == "and" {
			return dataset.And(ps...), nil
		}
		return dataset.Or(ps...), nil
	case "cmp":
		op, err := parseCmpOp(spec.Cmp)
		if err != nil {
			return nil, err
		}
		kind, ok := schema.KindOf(spec.Attr)
		if !ok {
			return nil, fmt.Errorf("unknown attribute %q in predicate", spec.Attr)
		}
		v, err := coerceValue(spec.Value, kind)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", spec.Attr, err)
		}
		return dataset.Cmp(spec.Attr, op, v), nil
	default:
		return nil, fmt.Errorf("unknown predicate op %q", spec.Op)
	}
}

func parseCmpOp(s string) (dataset.CmpOp, error) {
	switch s {
	case "=", "==":
		return dataset.OpEq, nil
	case "!=":
		return dataset.OpNe, nil
	case "<":
		return dataset.OpLt, nil
	case "<=":
		return dataset.OpLe, nil
	case ">":
		return dataset.OpGt, nil
	case ">=":
		return dataset.OpGe, nil
	default:
		return 0, fmt.Errorf("unknown comparison operator %q", s)
	}
}

// coerceValue converts a decoded JSON value (string, float64, or bool) to
// a typed dataset.Value of the schema-declared kind.
func coerceValue(raw any, kind dataset.Kind) (dataset.Value, error) {
	switch kind {
	case dataset.KindInt:
		f, ok := raw.(float64)
		if !ok {
			return dataset.Value{}, fmt.Errorf("expected a number, got %T", raw)
		}
		if f != math.Trunc(f) {
			return dataset.Value{}, fmt.Errorf("expected an integer, got %v", f)
		}
		return dataset.Int(int64(f)), nil
	case dataset.KindFloat:
		f, ok := raw.(float64)
		if !ok {
			return dataset.Value{}, fmt.Errorf("expected a number, got %T", raw)
		}
		return dataset.Float(f), nil
	case dataset.KindBool:
		b, ok := raw.(bool)
		if !ok {
			return dataset.Value{}, fmt.Errorf("expected a bool, got %T", raw)
		}
		return dataset.Bool(b), nil
	default:
		s, ok := raw.(string)
		if !ok {
			return dataset.Value{}, fmt.Errorf("expected a string, got %T", raw)
		}
		return dataset.Str(s), nil
	}
}

// compileDomain turns a DomainSpec into a histogram.Domain. The table is
// consulted only when the domain is derived from present values; callers
// must pass the NON-SENSITIVE partition there, because derived bin labels
// are echoed back to the client and must not reveal values that occur
// only in sensitive records.
func compileDomain(spec DomainSpec, t *dataset.Table) (*histogram.Domain, error) {
	if _, ok := t.Schema().KindOf(spec.Attr); !ok {
		return nil, fmt.Errorf("unknown attribute %q in domain", spec.Attr)
	}
	numericFields := spec.Bins != 0 || spec.Width != 0 || spec.Lo != 0
	switch {
	case len(spec.Keys) > 0:
		if numericFields {
			return nil, fmt.Errorf("domain over %q mixes keys with lo/width/bins; pick one shape", spec.Attr)
		}
		if len(spec.Keys) > MaxQueryBins {
			return nil, fmt.Errorf("domain over %q has %d keys, cap is %d", spec.Attr, len(spec.Keys), MaxQueryBins)
		}
		seen := make(map[string]struct{}, len(spec.Keys))
		for _, k := range spec.Keys {
			if _, dup := seen[k]; dup {
				return nil, fmt.Errorf("duplicate domain key %q", k)
			}
			seen[k] = struct{}{}
		}
		return histogram.NewCategoricalDomain(spec.Attr, spec.Keys), nil
	case spec.Bins > 0:
		if spec.Width <= 0 {
			return nil, fmt.Errorf("numeric domain over %q needs positive width", spec.Attr)
		}
		if spec.Bins > MaxQueryBins {
			return nil, fmt.Errorf("domain over %q has %d bins, cap is %d", spec.Attr, spec.Bins, MaxQueryBins)
		}
		return histogram.NewNumericDomain(spec.Attr, spec.Lo, spec.Width, spec.Bins), nil
	default:
		if numericFields {
			return nil, fmt.Errorf("numeric domain over %q needs bins > 0 (lo/width alone is not a shape)", spec.Attr)
		}
		keys, ok := t.SortedKeysUpTo(spec.Attr, MaxQueryBins)
		if !ok {
			return nil, fmt.Errorf("derived domain over %q has more than %d distinct values; declare keys or buckets explicitly", spec.Attr, MaxQueryBins)
		}
		if len(keys) == 0 {
			return nil, fmt.Errorf("no non-sensitive values to derive a domain for %q; declare keys or buckets explicitly", spec.Attr)
		}
		return histogram.NewCategoricalDomain(spec.Attr, keys), nil
	}
}

// SpanInfo is the wire form of one timed phase inside a trace.
type SpanInfo struct {
	// Name is the phase name ("auth", "compile", "ledger.charge", ...).
	Name string `json:"name"`
	// OffsetMicros is the span start relative to the request start.
	OffsetMicros int64 `json:"offset_us"`
	// DurationMicros is the phase duration.
	DurationMicros int64 `json:"duration_us"`
	// Attrs carries optional key/value detail (scan worker count, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// TraceInfo is the wire form of one finished request trace, served by
// GET /admin/traces and /admin/traces/{id}.
type TraceInfo struct {
	// ID is the request id (X-Request-Id).
	ID string `json:"id"`
	// Start is when the request began.
	Start time.Time `json:"start"`
	// DurationMicros is the end-to-end request duration.
	DurationMicros int64 `json:"duration_us"`
	// Kind is the query kind, when the request was a query.
	Kind string `json:"kind,omitempty"`
	// Analyst is the authenticated analyst ID, when auth resolved.
	Analyst string `json:"analyst,omitempty"`
	// Route is the matched route pattern.
	Route string `json:"route,omitempty"`
	// Status is the HTTP status produced.
	Status int `json:"status"`
	// Slow marks traces past the tracer's slow threshold (pinned in
	// the slow ring and promoted to the access log).
	Slow bool `json:"slow,omitempty"`
	// Spans is the timed phase breakdown, in completion order.
	Spans []SpanInfo `json:"spans"`
}

// AuditReport is the wire form of GET /admin/audit: the most recent
// audit events (newest first) plus trail-level facts.
type AuditReport struct {
	// Durable reports whether events are fsync'd to an audit
	// directory (false: in-memory ring only, lost on restart).
	Durable bool `json:"durable"`
	// Total is the total number of events ever appended (the ring may
	// hold fewer).
	Total uint64 `json:"total"`
	// Events are the matching recent events, newest first.
	Events []audit.Event `json:"events"`
}

// traceInfo converts a telemetry snapshot to its wire form.
func traceInfo(v telemetry.TraceView) TraceInfo {
	info := TraceInfo{
		ID:             v.ID,
		Start:          v.Start,
		DurationMicros: v.Duration.Microseconds(),
		Kind:           v.Kind,
		Analyst:        v.Analyst,
		Route:          v.Route,
		Status:         v.Status,
		Slow:           v.Slow,
		Spans:          make([]SpanInfo, len(v.Spans)),
	}
	for i, sp := range v.Spans {
		si := SpanInfo{
			Name:           sp.Name,
			OffsetMicros:   sp.Offset.Microseconds(),
			DurationMicros: sp.Dur.Microseconds(),
		}
		if len(sp.Attrs) > 0 {
			si.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				si.Attrs[a.Name] = a.Value
			}
		}
		info.Spans[i] = si
	}
	return info
}

// queryInt parses an optional non-negative integer query parameter.
func queryInt(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%w: bad limit %q", ErrBadRequest, v)
	}
	return n, nil
}

// queryTime parses an optional RFC 3339 time query parameter. The
// parameter is named "param" rather than "key" so the secretflow lint
// can tell URL parameter names apart from credentials.
func queryTime(q url.Values, param string) (time.Time, error) {
	v := q.Get(param)
	if v == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return time.Time{}, fmt.Errorf("%w: bad %s %q (want RFC 3339): %v", ErrBadRequest, param, v, err)
	}
	return t, nil
}
