package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"osdp/internal/core"
	"osdp/internal/dataset"
	"osdp/internal/ledger"
)

// agesCSV builds an OptIn-all-true table with the given ages, so the
// non-sensitive partition under testPolicy is exactly the ages > 17.
func agesCSV(ages []int) string {
	var b strings.Builder
	b.WriteString("Age:int,OptIn:bool,City:string\n")
	for _, a := range ages {
		fmt.Fprintf(&b, "%d,true,irvine\n", a)
	}
	return b.String()
}

// TestQuantileEdgeCasesThroughServer drives the q=0 / q=1 / all-equal
// edge cases over the real wire. At eps=30 the OsdpRR keep probability
// is 1 − e⁻³⁰, so with a seeded session the sample is the whole
// non-sensitive partition and the extreme quantiles are exact order
// statistics.
func TestQuantileEdgeCasesThroughServer(t *testing.T) {
	c := newTestClient(t, Config{})
	ages := []int{25, 90, 31, 18, 77, 45, 60, 33, 52, 41}
	if _, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
		Name: "ages", CSV: agesCSV(ages), Policy: testPolicy(),
	}); err != nil {
		t.Fatal(err)
	}
	sc, err := c.OpenSession(ctx, "ages", 0, seed(4))
	if err != nil {
		t.Fatal(err)
	}
	// q=0 must be the minimum non-sensitive value (rank clamps to 1)…
	if v, err := sc.Quantile(ctx, 30, "Age", 0); err != nil || v != 18 {
		t.Fatalf("q=0: got %g, %v; want the minimum 18", v, err)
	}
	// …and q=1 the maximum (rank = n exactly, no off-by-one overflow).
	if v, err := sc.Quantile(ctx, 30, "Age", 1); err != nil || v != 90 {
		t.Fatalf("q=1: got %g, %v; want the maximum 90", v, err)
	}
	// q outside [0, 1] is rejected BEFORE any charge.
	before, err := sc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// (NaN is unrepresentable in JSON, so the wire cannot even carry
	// it; the out-of-range values exercise the server-side guard.)
	for _, q := range []float64{-0.01, 1.01} {
		if _, err := sc.Quantile(ctx, 1, "Age", q); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("q=%g: got %v, want ErrBadRequest", q, err)
		}
	}
	after, err := sc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Spent != before.Spent {
		t.Fatalf("rejected q values charged the session: %g -> %g", before.Spent, after.Spent)
	}

	// All-equal values: every quantile is that value.
	equal := make([]int, 50)
	for i := range equal {
		equal[i] = 42
	}
	if _, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
		Name: "equal", CSV: agesCSV(equal), Policy: testPolicy(),
	}); err != nil {
		t.Fatal(err)
	}
	ec, err := c.OpenSession(ctx, "equal", 0, seed(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.37, 0.5, 1} {
		if v, err := ec.Quantile(ctx, 30, "Age", q); err != nil || v != 42 {
			t.Fatalf("all-equal q=%g: got %g, %v; want 42", q, v, err)
		}
	}
}

// TestQuantileEmptySampleNeverRefunds pins the no-refund contract
// documented in query.go: an empty quantile sample fails AFTER the
// Bernoulli draws — the randomness was observed, so neither the
// session accountant nor the durable ledger gives the ε back.
// (Refunding would let an analyst retry until a favourable sample
// appeared while paying once; see core.Session.Quantile.)
func TestQuantileEmptySampleNeverRefunds(t *testing.T) {
	c, srv := newLedgerServer(t, "", ledger.Config{DefaultBudget: 10}, Config{})
	// All-sensitive policy: the non-sensitive partition is empty, so
	// every quantile sample is deterministically empty.
	tbl, err := dataset.ReadCSV(strings.NewReader(agesCSV([]int{30, 40, 50})))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterTable("closed", tbl, dataset.AllSensitive()); err != nil {
		t.Fatal(err)
	}
	ac, _ := mintAnalyst(t, c, "dave", 0)
	sc, err := ac.OpenSession(ctx, "closed", 0, seed(6))
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.7
	_, err = sc.Quantile(ctx, eps, "Age", 0.5)
	if !errors.Is(err, core.ErrEmptySample) {
		t.Fatalf("got %v, want ErrEmptySample", err)
	}
	// The charge stands on BOTH ledgers.
	info, err := sc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(info.Spent-eps) > 1e-12 {
		t.Fatalf("session spent %g after empty sample, want %g (no refund after noise)", info.Spent, eps)
	}
	if got := srv.cfg.Ledger.TotalSpent(); math.Abs(got-eps) > 1e-12 {
		t.Fatalf("ledger spent %g after empty sample, want %g (no refund after noise)", got, eps)
	}
}

// TestQuantileNonFiniteReachesAnalyst: a float column holding NaN and
// ±Inf makes extreme quantiles non-finite. The answer is charged, so it
// must come back 200 with the exact value (JSON has no NaN or Inf, so
// the wire carries it as a string), and finite answers keep the plain
// JSON number. At ε = 30 every non-sensitive row is kept, and the
// quantile orders values as sort.Float64s does: NaN first.
func TestQuantileNonFiniteReachesAnalyst(t *testing.T) {
	c := newTestClient(t, Config{})
	csv := "Age:int,OptIn:bool,Score:float\n" +
		"30,true,1.5\n40,true,NaN\n50,true,+Inf\n60,true,-Inf\n70,true,2.5\n"
	if _, err := c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{
		Name: "scores", CSV: csv, Policy: testPolicy(),
	}); err != nil {
		t.Fatal(err)
	}
	sc, err := c.OpenSession(ctx, "scores", 0, seed(7))
	if err != nil {
		t.Fatal(err)
	}
	// Sorted: NaN, -Inf, 1.5, 2.5, +Inf.
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0, math.NaN()}, {0.4, math.Inf(-1)}, {0.6, 1.5}, {1, math.Inf(1)}} {
		v, err := sc.Quantile(ctx, 30, "Score", tc.q)
		if err != nil {
			t.Fatalf("q=%g: %v", tc.q, err)
		}
		if v != tc.want && !(math.IsNaN(v) && math.IsNaN(tc.want)) {
			t.Fatalf("q=%g: got %g, want %g", tc.q, v, tc.want)
		}
	}

	// The raw wire: 200, and the value is a string only when not finite.
	for q, want := range map[float64]string{0: `"value":"NaN"`, 1: `"value":"+Inf"`, 0.6: `"value":1.5`} {
		body := fmt.Sprintf(`{"kind":"quantile","eps":30,"attr":"Score","q":%g}`, q)
		code, raw := rawPost(t, c, "/v1/sessions/"+sc.ID()+"/query", body)
		if code != 200 || !strings.Contains(raw, want) {
			t.Fatalf("q=%g: HTTP %d %s, want 200 with %s", q, code, raw, want)
		}
	}
}

// rawPost posts body to path on c's server and returns the status and
// the body as sent, bypassing the client's decoding.
func rawPost(t *testing.T, c *Client, path, body string) (int, string) {
	t.Helper()
	resp, err := c.hc.Post(c.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}
