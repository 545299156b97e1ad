package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"osdp/internal/dataset"
	"osdp/internal/ledger"
	"osdp/internal/telemetry"
)

// scrape fetches /metrics and returns the body plus the set of distinct
// series names (metric name without labels, histogram _bucket/_sum/
// _count collapsed to the family name).
func scrape(t *testing.T, base string) (string, map[string]bool) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		names[name] = true
	}
	return string(body), names
}

// expositionLine matches one valid sample line of the text format.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*",?)*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// TestMetricsEndpoint drives every query kind through the full HTTP
// stack and asserts GET /metrics exposes a well-formed Prometheus text
// exposition covering the server, ledger, and dataset layers — the
// PR's ≥12-series acceptance bar, pinned with room to spare.
func TestMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	dataset.SetScanMetrics(dataset.NewScanMetrics(reg))
	t.Cleanup(func() { dataset.SetScanMetrics(nil) })
	c, srv := newLedgerServer(t, "", ledger.Config{DefaultBudget: 100, Telemetry: reg},
		Config{Telemetry: reg, Tracer: telemetry.NewTracer(telemetry.TracerConfig{})})
	registerPeople(t, srv, 200)
	ac, _ := mintAnalyst(t, c, "alice", 0)
	sc, err := ac.OpenSession(ctx, "people", 0, seed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Count(ctx, 0.1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Histogram(ctx, 0.1, nil, DomainSpec{Attr: "City"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Quantile(ContextWithRequestID(ctx, "000000000000a001"), 0.1, "Age", 0.5); err != nil {
		t.Fatal(err)
	}
	checkQuantilePhases(t, c, "000000000000a001", true)
	if _, err := sc.Workload(ctx, 0.1, EstimatorHier, nil,
		[]DomainSpec{{Attr: "Age", Lo: 0, Width: 10, Bins: 10}},
		[]RangeSpec{{Lo: 0, Hi: 4}, {Lo: 2, Hi: 9}}); err != nil {
		t.Fatal(err)
	}

	body, names := scrape(t, c.base)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	want := []string{
		// server / HTTP layer
		"osdp_http_requests_total",
		"osdp_http_request_duration_seconds",
		"osdp_http_in_flight_requests",
		"osdp_query_duration_seconds",
		"osdp_queries_total",
		"osdp_query_errors_total",
		"osdp_query_eps_charged_total",
		"osdp_sessions_active",
		"osdp_sessions_opened_total",
		"osdp_sessions_closed_total",
		"osdp_datasets_registered",
		"osdp_cache_hits_total",
		"osdp_cache_misses_total",
		// ledger layer
		"osdp_ledger_charges_total",
		"osdp_ledger_spent_eps",
		"osdp_ledger_analysts",
		"osdp_ledger_accounts",
		// dataset layer
		"osdp_scan_chunks_processed_total",
		"osdp_scan_active_workers",
	}
	for _, name := range want {
		if !names[name] {
			t.Errorf("series %s missing from /metrics", name)
		}
	}
	if len(names) < 12 {
		t.Fatalf("only %d distinct series, acceptance bar is 12:\n%s", len(names), body)
	}
	// Per-kind counters actually counted the four successful queries.
	for _, kind := range []string{"count", "histogram", "quantile", "workload"} {
		if !strings.Contains(body, `osdp_queries_total{kind="`+kind+`"} 1`) {
			t.Errorf("osdp_queries_total{kind=%q} did not reach 1", kind)
		}
	}
	// The four charges each spent 0.1 ε; the ledger gauge agrees.
	if !strings.Contains(body, "osdp_ledger_charges_total 4") {
		t.Errorf("osdp_ledger_charges_total != 4 in:\n%s", body)
	}

	// A second quantile of Age reuses the partition's sorted runs.
	if _, err := sc.Quantile(ContextWithRequestID(ctx, "000000000000a002"), 0.1, "Age", 0.9); err != nil {
		t.Fatal(err)
	}
	checkQuantilePhases(t, c, "000000000000a002", false)
}

// checkQuantilePhases fetches the trace of quantile request id and
// checks that its mechanism time is attributed: a "noise" phase with
// the keep loop's rows and kept count, and, on the first quantile of
// an attribute (firstUse), a "scan" phase before it that built the
// sorted runs, with their rows and run count. Later quantiles have no
// scan phase.
func checkQuantilePhases(t *testing.T, c *Client, id string, firstUse bool) {
	t.Helper()
	tr, err := c.WithToken(adminToken).Trace(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	scan, noise := -1, -1
	for i, sp := range tr.Spans {
		switch sp.Name {
		case "scan":
			scan = i
			if sp.Attrs["rows"] == "" || sp.Attrs["runs"] == "" {
				t.Errorf("quantile scan span missing rows/runs attrs: %+v", sp)
			}
		case "noise":
			noise = i
			if sp.Attrs["rows"] == "" || sp.Attrs["kept"] == "" {
				t.Errorf("quantile noise span missing rows/kept attrs: %+v", sp)
			}
		}
	}
	if noise < 0 {
		t.Errorf("quantile %s has no noise span: %+v", id, tr.Spans)
	}
	if firstUse && (scan < 0 || scan > noise) {
		t.Errorf("first quantile %s: scan span at %d, noise at %d; want the runs build traced before the noise: %+v", id, scan, noise, tr.Spans)
	}
	if !firstUse && scan >= 0 {
		t.Errorf("quantile %s with cached runs has a scan span: %+v", id, tr.Spans)
	}
}

// TestRequestIDMiddleware pins the tracing contract: every response
// carries an X-Request-Id, and distinct requests get distinct ids.
func TestRequestIDMiddleware(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, _ := newLedgerServer(t, "", ledger.Config{}, Config{Telemetry: reg})
	ids := make(map[string]bool)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(c.base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if len(id) != 16 {
			t.Fatalf("X-Request-Id = %q, want 16 hex chars", id)
		}
		ids[id] = true
	}
	if len(ids) != 3 {
		t.Fatalf("request ids not unique: %v", ids)
	}
}

// TestStatsSpentEpsWire pins the satellite fix: a ledger server that has
// spent NOTHING still says "spent_eps":0 on the wire, so clients can
// tell 0.0 spend from "no ledger at all", which omits the field.
func TestStatsSpentEpsWire(t *testing.T) {
	get := func(base string) string {
		resp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	c, _ := newLedgerServer(t, "", ledger.Config{DefaultBudget: 1}, Config{})
	if body := get(c.base); !strings.Contains(body, `"spent_eps":0`) {
		t.Fatalf("fresh ledger /stats omits spent_eps: %s", body)
	}

	plain := New(Config{})
	ts := httptest.NewServer(plain.Handler())
	defer ts.Close()
	if body := get(ts.URL); strings.Contains(body, "spent_eps") {
		t.Fatalf("ledger-less /stats leaks spent_eps: %s", body)
	}
}

// TestMetricsConcurrentScrape scrapes /metrics while queries, ledger
// charges, session churn, and TTL sweeps run concurrently. Run under
// -race (CI does) it proves the whole telemetry plane is data-race
// free; functionally it asserts scrapes never fail mid-flight.
func TestMetricsConcurrentScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	dataset.SetScanMetrics(dataset.NewScanMetrics(reg))
	t.Cleanup(func() { dataset.SetScanMetrics(nil) })
	c, srv := newLedgerServer(t, "", ledger.Config{DefaultBudget: 1e9, Telemetry: reg},
		Config{Telemetry: reg, SessionTTL: 10 * time.Millisecond})
	registerPeople(t, srv, 200)
	ac, _ := mintAnalyst(t, c, "alice", 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sc, err := ac.OpenSession(ctx, "people", 0, seed(int64(w*1000+i)))
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				// Expiry may race the query: a not-found/expired session
				// after eviction is the TTL contract working, not a failure.
				if _, err := sc.Count(ctx, 0.1, nil); err != nil && !strings.Contains(err.Error(), "session") {
					t.Errorf("count: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.Sweep()
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, names := scrape(t, c.base); len(names) < 12 {
			t.Errorf("scrape shrank to %d series", len(names))
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestPprofBehindAdminRealm checks pprof is mounted, admin-only: no
// token and analyst tokens are refused, the operator token reaches the
// real pprof handlers.
func TestPprofBehindAdminRealm(t *testing.T) {
	c, _ := newLedgerServer(t, "", ledger.Config{}, Config{})
	get := func(token string) int {
		req, err := http.NewRequest(http.MethodGet, c.base+"/admin/pprof/goroutine?debug=1", nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			if !strings.Contains(string(body), "goroutine") {
				t.Fatalf("pprof goroutine dump looks wrong: %.120s", body)
			}
		}
		return resp.StatusCode
	}
	if code := get(""); code != http.StatusUnauthorized {
		t.Fatalf("tokenless pprof = %d, want 401", code)
	}
	if code := get("not-the-admin-token"); code != http.StatusForbidden {
		t.Fatalf("bad-token pprof = %d, want 403", code)
	}
	if code := get(adminToken); code != http.StatusOK {
		t.Fatalf("admin pprof = %d, want 200", code)
	}
}
