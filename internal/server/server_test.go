package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osdp/internal/core"
	"osdp/internal/dataset"
)

// ctx is shared by tests that don't exercise cancellation; the client
// threads it into every request.
var ctx = context.Background()

// peopleCSV is a small typed dataset: minors and opted-out users are the
// sensitive records under testPolicy.
func peopleCSV(rows int) string {
	var b strings.Builder
	b.WriteString("Age:int,OptIn:bool,City:string\n")
	cities := []string{"irvine", "tustin", "orange"}
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%v,%s\n", (i*7)%80+5, i%4 != 0, cities[i%len(cities)])
	}
	return b.String()
}

func testPolicy() PolicySpec {
	return PolicySpec{
		Name: "gdpr",
		SensitiveWhen: PredicateSpec{Op: "or", Args: []PredicateSpec{
			{Op: "cmp", Attr: "Age", Cmp: "<=", Value: float64(17)},
			{Op: "cmp", Attr: "OptIn", Cmp: "=", Value: false},
		}},
	}
}

// newTestClient spins up a full HTTP server and returns a wire client.
// Seeded sessions are enabled so tests are reproducible.
func newTestClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	cfg.AllowSeededSessions = true
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return NewClient(ts.URL, ts.Client())
}

func seed(n int64) *int64 { return &n }

// A released record whose only cell is the empty string reaches the
// client: the sample's CSV writes it as `""`, not as a blank line the
// client's CSV reader would skip.
func TestSampleKeepsEmptySingleColumnRecords(t *testing.T) {
	c := newTestClient(t, Config{})
	info, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
		Name: "notes", CSV: "Note:string\na\n\"\"\nb\n\"\"\nsecret\n",
		Policy: PolicySpec{Name: "secret", SensitiveWhen: PredicateSpec{Op: "cmp", Attr: "Note", Cmp: "=", Value: "secret"}},
	})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	sc, err := c.OpenSession(ctx, "notes", 0, seed(1))
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	// At ε = 40 every non-sensitive record is kept (1 − e^−40 rounds to 1).
	sample, err := sc.Sample(ctx, 40)
	if err != nil {
		t.Fatalf("sample: %v", err)
	}
	if sample.Len() != info.NonSensitive {
		t.Fatalf("client parsed %d of %d released records", sample.Len(), info.NonSensitive)
	}
	var got []string
	for _, r := range sample.Records() {
		got = append(got, r.At(0).AsString())
	}
	if strings.Join(got, "|") != "a||b|" {
		t.Fatalf("released notes %q, want [a  b ]", got)
	}
}

// TestEndToEndAllQueryKinds drives every query kind over the real wire
// and checks the budget ledger after each answer.
func TestEndToEndAllQueryKinds(t *testing.T) {
	c := newTestClient(t, Config{})

	info, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
		Name: "people", CSV: peopleCSV(400), Policy: testPolicy(),
	})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if info.Rows != 400 || info.NonSensitive >= info.Rows || info.NonSensitive == 0 {
		t.Fatalf("unexpected dataset info: %+v", info)
	}

	sc, err := c.OpenSession(ctx, "people", 5, seed(1))
	if err != nil {
		t.Fatalf("open session: %v", err)
	}

	// histogram over derived categorical domain
	h, err := sc.Histogram(ctx, 0.5, nil, DomainSpec{Attr: "City"})
	if err != nil {
		t.Fatalf("histogram: %v", err)
	}
	if len(h.Counts) != 3 || len(h.Labels) != 3 {
		t.Fatalf("histogram arity: %d counts, %d labels", len(h.Counts), len(h.Labels))
	}
	if got := h.Budget.Spent; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("spent %g after histogram, want 0.5", got)
	}

	// int-histogram over numeric buckets, with a condition
	adults := &PredicateSpec{Op: "cmp", Attr: "Age", Cmp: ">=", Value: float64(18)}
	ih, err := sc.IntHistogram(ctx, 0.5, adults, DomainSpec{Attr: "Age", Lo: 0, Width: 20, Bins: 5})
	if err != nil {
		t.Fatalf("int-histogram: %v", err)
	}
	if len(ih.Counts) != 5 {
		t.Fatalf("int-histogram bins = %d, want 5", len(ih.Counts))
	}
	for _, cnt := range ih.Counts {
		if cnt != math.Trunc(cnt) {
			t.Fatalf("int-histogram returned non-integer count %v", cnt)
		}
	}

	// 2-D histogram over derived domains: counts flatten row-major and
	// DimLabels tells the client what bins it paid for.
	h2, err := sc.Histogram(ctx, 0.5, nil, DomainSpec{Attr: "City"}, DomainSpec{Attr: "OptIn"})
	if err != nil {
		t.Fatalf("2-D histogram: %v", err)
	}
	if len(h2.DimLabels) != 2 {
		t.Fatalf("2-D histogram DimLabels arity = %d, want 2", len(h2.DimLabels))
	}
	if want := len(h2.DimLabels[0]) * len(h2.DimLabels[1]); len(h2.Counts) != want {
		t.Fatalf("2-D counts = %d, want %d (product of dim sizes)", len(h2.Counts), want)
	}
	if len(h2.Labels) != 0 {
		t.Fatalf("2-D histogram set legacy 1-D Labels: %v", h2.Labels)
	}

	// count
	n, err := sc.Count(ctx, 0.5, &PredicateSpec{Op: "cmp", Attr: "City", Cmp: "=", Value: "irvine"})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if n < 0 || n > 400 {
		t.Fatalf("count %g out of range", n)
	}

	// quantile
	med, err := sc.Quantile(ctx, 1, "Age", 0.5)
	if err != nil {
		t.Fatalf("quantile: %v", err)
	}
	if med < 18 || med > 85 {
		t.Fatalf("median age %g outside the non-sensitive range", med)
	}

	// sample
	sample, err := sc.Sample(ctx, 1)
	if err != nil {
		t.Fatalf("sample: %v", err)
	}
	if sample.Len() == 0 || sample.Len() > info.NonSensitive {
		t.Fatalf("sample size %d, want in (0, %d]", sample.Len(), info.NonSensitive)
	}
	// OsdpRR releases true records: every sampled record must be
	// non-sensitive (adult + opted in).
	for _, r := range sample.Records() {
		if r.Get("Age").AsInt() <= 17 || !r.Get("OptIn").AsBool() {
			t.Fatalf("sample leaked a sensitive record: %v %v", r.Get("Age").AsInt(), r.Get("OptIn").AsBool())
		}
	}

	st, err := sc.Info(ctx)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if want := 0.5 + 0.5 + 0.5 + 0.5 + 1 + 1; math.Abs(st.Spent-want) > 1e-9 {
		t.Fatalf("total spent %g, want %g", st.Spent, want)
	}
	if !strings.Contains(st.Guarantee, "OSDP") {
		t.Fatalf("guarantee %q does not mention OSDP", st.Guarantee)
	}

	// closing twice: second close is a 404
	if _, err := sc.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := sc.Close(ctx); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double close: got %v, want ErrNotFound", err)
	}
}

// TestConcurrentClientsSharedSession is the acceptance test: many
// concurrent clients hammer ONE session whose budget admits only a
// fraction of their demand, and the accountant must never over-spend.
// Run under -race this also exercises the Locked noise source and the
// registry locking.
func TestConcurrentClientsSharedSession(t *testing.T) {
	c := newTestClient(t, Config{})
	if _, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
		Name: "people", CSV: peopleCSV(300), Policy: testPolicy(),
	}); err != nil {
		t.Fatalf("register: %v", err)
	}

	const (
		budget  = 2.0
		clients = 12
		rounds  = 10
		eps     = 0.05 // total demand 12*10*0.05 = 6.0 >> budget
	)
	owner, err := c.OpenSession(ctx, "people", budget, seed(7))
	if err != nil {
		t.Fatalf("open session: %v", err)
	}

	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine is its own client process sharing the
			// session id — the multi-tenant shape of the serving layer.
			sc := c.Session(owner.ID())
			for j := 0; j < rounds; j++ {
				var err error
				switch j % 3 {
				case 0:
					_, err = sc.Count(ctx, eps, nil)
				case 1:
					_, err = sc.Histogram(ctx, eps, nil, DomainSpec{Attr: "City"})
				default:
					_, err = sc.IntHistogram(ctx, eps, nil, DomainSpec{Attr: "Age", Lo: 0, Width: 20, Bins: 5})
				}
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, core.ErrBudgetExceeded):
					rejected.Add(1)
				default:
					t.Errorf("client %d round %d: unexpected error %v", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	st, err := owner.Info(ctx)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if st.Spent > budget+1e-9 {
		t.Fatalf("session over-spent: %g > %g", st.Spent, budget)
	}
	if want := float64(accepted.Load()) * eps; math.Abs(st.Spent-want) > 1e-9 {
		t.Fatalf("spent %g but %d accepted charges total %g", st.Spent, accepted.Load(), want)
	}
	// The budget admits exactly 40 of the 120 attempts.
	if accepted.Load() != int64(budget/eps) {
		t.Fatalf("accepted %d charges, want %d", accepted.Load(), int64(budget/eps))
	}
	if rejected.Load() == 0 {
		t.Fatal("expected some charges to be rejected over budget")
	}
}

// TestIndependentSessionBudgets checks tenant isolation: exhausting one
// session's budget leaves another untouched.
func TestIndependentSessionBudgets(t *testing.T) {
	c := newTestClient(t, Config{})
	if _, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
		Name: "people", CSV: peopleCSV(100), Policy: testPolicy(),
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	a, err := c.OpenSession(ctx, "people", 1, seed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.OpenSession(ctx, "people", 1, seed(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Count(ctx, 1, nil); err != nil {
		t.Fatalf("exhausting session a: %v", err)
	}
	if _, err := a.Count(ctx, 0.1, nil); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("session a should be exhausted, got %v", err)
	}
	if _, err := b.Count(ctx, 0.5, nil); err != nil {
		t.Fatalf("session b should be unaffected: %v", err)
	}
}

// TestQuantileEmptySampleOverWire pins the wire behaviour of the
// documented Quantile budget semantics: an all-sensitive dataset keeps
// zero records, the answer is 409/ErrEmptySample, and the charge stands.
func TestQuantileEmptySampleOverWire(t *testing.T) {
	c := newTestClient(t, Config{})
	if _, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
		Name: "vault", CSV: peopleCSV(50),
		Policy: PolicySpec{Name: "P_all", SensitiveWhen: PredicateSpec{Op: "true"}},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	sc, err := c.OpenSession(ctx, "vault", 2, seed(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sc.Quantile(ctx, 0.5, "Age", 0.5)
	if !errors.Is(err, core.ErrEmptySample) {
		t.Fatalf("got %v, want ErrEmptySample", err)
	}
	st, err := sc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Spent-0.5) > 1e-12 {
		t.Fatalf("spent %g after empty-sample quantile, want the charge to stand at 0.5", st.Spent)
	}
}

// TestErrorMapping checks each failure class surfaces with the right
// sentinel through the wire.
func TestErrorMapping(t *testing.T) {
	c := newTestClient(t, Config{MaxSessions: 1})
	if _, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
		Name: "people", CSV: peopleCSV(50), Policy: testPolicy(),
	}); err != nil {
		t.Fatalf("register: %v", err)
	}

	// duplicate dataset -> 409
	if _, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
		Name: "people", CSV: peopleCSV(50), Policy: testPolicy(),
	}); !errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate register: got %v, want ErrConflict", err)
	}
	// bad policy attribute -> 400
	if _, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
		Name: "bad", CSV: peopleCSV(5),
		Policy: PolicySpec{Name: "p", SensitiveWhen: PredicateSpec{Op: "cmp", Attr: "Nope", Cmp: "=", Value: "x"}},
	}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad policy: got %v, want ErrBadRequest", err)
	}
	// unknown dataset -> 404
	if _, err := c.OpenSession(ctx, "ghost", 1, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown dataset: got %v, want ErrNotFound", err)
	}
	sc, err := c.OpenSession(ctx, "people", 1, seed(1))
	if err != nil {
		t.Fatal(err)
	}
	// session cap -> 429
	if _, err := c.OpenSession(ctx, "people", 1, nil); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("session cap: got %v, want ErrTooManySessions", err)
	}
	// unknown query kind -> 400
	if _, err := sc.Query(ctx, QueryRequest{Kind: "mean", Eps: 0.1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown kind: got %v, want ErrBadRequest", err)
	}
	// non-positive eps -> 400, nothing charged
	if _, err := sc.Count(ctx, 0, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero eps: got %v, want ErrBadRequest", err)
	}
	// subnormal eps -> 400: 1/eps would overflow to +Inf in the samplers
	if _, err := sc.Count(ctx, 1e-320, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("subnormal eps: got %v, want ErrBadRequest", err)
	}
	// string quantile -> 400
	if _, err := sc.Quantile(ctx, 0.1, "City", 0.5); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("string quantile: got %v, want ErrBadRequest", err)
	}
	// unknown session -> 404
	if _, err := c.Session("deadbeef").Count(ctx, 0.1, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown session: got %v, want ErrNotFound", err)
	}
	if st, err := sc.Info(ctx); err != nil || st.Spent != 0 {
		t.Fatalf("rejected queries must not charge: spent %g, err %v", st.Spent, err)
	}
}

// TestHardeningGates checks the production-posture knobs: seeded
// sessions are refused unless explicitly enabled, MaxSessionBudget
// bounds per-transcript leakage (including forbidding unlimited
// sessions), and dataset names that would break URL routing are
// rejected at registration.
func TestHardeningGates(t *testing.T) {
	// Default server: no seeds allowed. Bypass newTestClient, which
	// turns them on.
	srv := New(Config{MaxSessionBudget: 2})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := NewClient(ts.URL, ts.Client())

	if _, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
		Name: "people", CSV: peopleCSV(50), Policy: testPolicy(),
	}); err != nil {
		t.Fatalf("register: %v", err)
	}

	if _, err := c.OpenSession(ctx, "people", 1, seed(42)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("seeded session without AllowSeededSessions: got %v, want ErrBadRequest", err)
	}
	if _, err := c.OpenSession(ctx, "people", 5, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("budget above MaxSessionBudget: got %v, want ErrBadRequest", err)
	}
	if _, err := c.OpenSession(ctx, "people", 0, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unlimited budget under MaxSessionBudget: got %v, want ErrBadRequest", err)
	}
	sc, err := c.OpenSession(ctx, "people", 2, nil)
	if err != nil {
		t.Fatalf("compliant session: %v", err)
	}
	if _, err := sc.Count(ctx, 0.1, nil); err != nil {
		t.Fatalf("query on secure-source session: %v", err)
	}

	for _, name := range []string{"us/census", "a b", "x%2fy", "", ".", ".."} {
		if _, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
			Name: name, CSV: peopleCSV(5), Policy: testPolicy(),
		}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("name %q: got %v, want ErrBadRequest", name, err)
		}
	}
}

// TestSessionTTLEviction checks both lazy eviction on access and the
// Sweep path, with a stubbed clock.
func TestSessionTTLEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	srv := New(Config{SessionTTL: time.Minute, AllowSeededSessions: true, now: clock})
	tbl, err := dataset.ReadCSV(strings.NewReader(peopleCSV(20)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterTable("people", tbl, dataset.AllNonSensitive()); err != nil {
		t.Fatal(err)
	}

	open := func() string {
		t.Helper()
		info, err := srv.OpenSession("", OpenSessionRequest{Dataset: "people", Budget: 1, Seed: seed(1)})
		if err != nil {
			t.Fatal(err)
		}
		return info.ID
	}

	// Lazy path: expired id is rejected and removed on access.
	stale := open()
	advance(2 * time.Minute)
	if _, err := srv.SessionInfo("", stale); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired session: got %v, want ErrNotFound", err)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions after lazy eviction, want 0", n)
	}

	// Sweep path: activity keeps a session alive, idleness kills it.
	live, idle := open(), open()
	advance(45 * time.Second)
	if _, err := srv.SessionInfo("", live); err != nil { // bumps lastUsed
		t.Fatal(err)
	}
	advance(30 * time.Second) // live idle 30s, idle idle 75s
	if n := srv.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	if _, err := srv.SessionInfo("", idle); !errors.Is(err, ErrNotFound) {
		t.Fatalf("idle session should be gone, got %v", err)
	}
	if _, err := srv.SessionInfo("", live); err != nil {
		t.Fatalf("active session should survive: %v", err)
	}
}

// TestOpenSessionRejectsNonFiniteBudget guards the Go-level API (JSON
// cannot carry NaN/Inf, but embedders call OpenSession directly): NaN
// passes every <, ==, > comparison and would bypass both the cap and
// the unlimited-session ban.
func TestOpenSessionRejectsNonFiniteBudget(t *testing.T) {
	srv := New(Config{MaxSessionBudget: 1})
	tbl, err := dataset.ReadCSV(strings.NewReader(peopleCSV(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterTable("people", tbl, dataset.AllNonSensitive()); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := srv.OpenSession("", OpenSessionRequest{Dataset: "people", Budget: budget}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("budget %v: got %v, want ErrBadRequest", budget, err)
		}
	}
}

// TestExpiredSessionsDoNotHoldCap checks that abandoned sessions past
// their TTL are evicted when the MaxSessions cap is hit, instead of
// denying service until the janitor's next pass.
func TestExpiredSessionsDoNotHoldCap(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	srv := New(Config{SessionTTL: time.Minute, MaxSessions: 1, now: clock})
	tbl, err := dataset.ReadCSV(strings.NewReader(peopleCSV(10)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterTable("people", tbl, dataset.AllNonSensitive()); err != nil {
		t.Fatal(err)
	}

	if _, err := srv.OpenSession("", OpenSessionRequest{Dataset: "people", Budget: 1}); err != nil {
		t.Fatalf("first session: %v", err)
	}
	// Cap is full and the occupant is live: refuse.
	if _, err := srv.OpenSession("", OpenSessionRequest{Dataset: "people", Budget: 1}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("cap with live occupant: got %v, want ErrTooManySessions", err)
	}
	// Occupant expires: the cap must make way without a janitor.
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if _, err := srv.OpenSession("", OpenSessionRequest{Dataset: "people", Budget: 1}); err != nil {
		t.Fatalf("cap held by expired session: %v", err)
	}
	if n := srv.SessionCount(); n != 1 {
		t.Fatalf("%d sessions after eviction + open, want 1", n)
	}
}
