package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"osdp/internal/audit"
	"osdp/internal/dataset"
	"osdp/internal/telemetry"
)

// barTable builds the serving-shaped table the performance bars run on:
// a 64-ary string "Group", an integer "Age" (0..99) and a float "Score"
// payload, deterministic in its fixed seed.
func barTable(rows int) *dataset.Table {
	rng := rand.New(rand.NewSource(1))
	tb := dataset.NewTable(dataset.NewSchema(
		dataset.Field{Name: "Group", Kind: dataset.KindString},
		dataset.Field{Name: "Age", Kind: dataset.KindInt},
		dataset.Field{Name: "Score", Kind: dataset.KindFloat},
	))
	for i := 0; i < rows; i++ {
		tb.AppendValues(
			dataset.Str(fmt.Sprintf("group-%03d", rng.Intn(64))),
			dataset.Int(int64(rng.Intn(100))),
			dataset.Float(rng.Float64()*1000),
		)
	}
	return tb
}

// barPolicy marks minors sensitive, so the bars pay the same split and
// partition costs a production table does.
func barPolicy() dataset.Policy {
	return dataset.NewPolicy("bench-minors", dataset.Cmp("Age", dataset.OpLt, dataset.Int(18)))
}

// TestTracingOverheadBar enforces the observability acceptance bar:
// request tracing plus the durable audit trail, on top of the full
// metrics plane, must cost under 2% of query latency against a server
// with telemetry disabled. Best-of-7 windows cancel most scheduler
// noise, but a loaded small container still jitters more than the bar
// itself, so the bar self-skips below 4 CPUs and CI enforces it on the
// multi-core runner.
func TestTracingOverheadBar(t *testing.T) {
	if testing.Short() {
		t.Skip("tracing overhead bar skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("tracing overhead bar needs >=4 CPUs, have %d", runtime.NumCPU())
	}
	res := measureTracingOverhead(t, 200_000, 250*time.Millisecond)
	pct := (res.tracedNs - res.baseNs) / res.baseNs * 100
	t.Logf("base %.1f µs/op, traced+audited %.1f µs/op (%+.2f%%)", res.baseNs/1e3, res.tracedNs/1e3, pct)
	if pct >= 2.0 {
		t.Fatalf("tracing+audit overhead %.2f%% (base %.1f µs/op, traced %.1f µs/op), bar is <2%%",
			pct, res.baseNs/1e3, res.tracedNs/1e3)
	}
}

// TestTelemetryOverheadSmoke runs the bar's measurement at tiny scale
// on every machine, so the two-engine plumbing (traced middleware
// replica, audit append, metrics rendering) cannot rot where the bar
// skips itself. It enforces no timing.
func TestTelemetryOverheadSmoke(t *testing.T) {
	res := measureTracingOverhead(t, 2_000, 5*time.Millisecond)
	if res.baseNs <= 0 || res.tracedNs <= 0 {
		t.Fatalf("non-positive ns/op: base %v, traced %v", res.baseNs, res.tracedNs)
	}
	if res.auditEvents == 0 {
		t.Fatal("traced engine appended no audit events")
	}
	if !strings.Contains(res.exposition, `osdp_queries_total{kind="histogram"}`) {
		t.Fatalf("instrumented engine rendered no query series:\n%s", res.exposition)
	}
}

// overheadResult is what measureTracingOverhead observed.
type overheadResult struct {
	baseNs, tracedNs float64 // best-of-7 ns per histogram query
	auditEvents      uint64  // events the traced engine appended
	exposition       string  // the instrumented registry, rendered
}

// measureTracingOverhead times a 64-group histogram query through two
// servers over the same rows-long table: one with a nil telemetry
// registry (every metric update compiles down to a nil check), and one
// with metrics, the scan-pool hookup, per-request span tracing and a
// durable fsync'd audit trail. The traced op replicates what the HTTP
// middleware does around a query: mint a trace, plant it in the
// context, finish it into the ring. Each engine's ns/op is the minimum
// over seven interleaved windows of at least window each; the minimum
// converges to the noise floor, which is what an overhead comparison
// needs. It flips the process-global scan metrics, so its callers must
// not run in parallel.
func measureTracingOverhead(t *testing.T, rows int, window time.Duration) overheadResult {
	t.Helper()
	tb := barTable(rows)
	reg := telemetry.NewRegistry()
	scan := dataset.NewScanMetrics(reg)
	tracer := telemetry.NewTracer(telemetry.TracerConfig{})
	trail, err := audit.Open(audit.Config{Dir: t.TempDir(), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer trail.Close()
	defer dataset.SetScanMetrics(nil)

	req := QueryRequest{Kind: KindHistogram, Eps: 0.1, Dims: []DomainSpec{{Attr: "Group"}}}
	engine := func(cfg Config) func(ctx context.Context) {
		cfg.AllowSeededSessions = true
		srv := New(cfg)
		t.Cleanup(srv.Close)
		if err := srv.RegisterTable("bench", tb, barPolicy()); err != nil {
			t.Fatal(err)
		}
		info, err := srv.OpenSession("", OpenSessionRequest{Dataset: "bench", Seed: seed(1)})
		if err != nil {
			t.Fatal(err)
		}
		// Sanity: the engine answers with the full group arity.
		resp, err := srv.Query("", info.ID, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Counts) != 64 {
			t.Fatalf("%d bins, want 64", len(resp.Counts))
		}
		return func(ctx context.Context) {
			if _, err := srv.QueryContext(ctx, "", info.ID, req); err != nil {
				t.Error(err)
			}
		}
	}
	base := engine(Config{})
	traced := engine(Config{Telemetry: reg, Tracer: tracer, Audit: trail})
	tracedQuery := func() {
		// The fixed id is fine: the ring retains snapshots, not keys.
		tr := tracer.Start("benchbenchbench0")
		traced(telemetry.ContextWithTrace(context.Background(), tr))
		tr.Finish("/v1/sessions/{id}/query", 200)
	}

	res := overheadResult{baseNs: math.Inf(1), tracedNs: math.Inf(1)}
	for r := 0; r < 7; r++ {
		dataset.SetScanMetrics(nil)
		res.baseNs = math.Min(res.baseNs, timePerOp(window, func() { base(context.Background()) }))
		dataset.SetScanMetrics(scan)
		res.tracedNs = math.Min(res.tracedNs, timePerOp(window, tracedQuery))
	}
	res.auditEvents = trail.Seq()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	res.exposition = b.String()
	return res
}

// timePerOp runs f repeatedly for at least d and returns ns per call.
func timePerOp(d time.Duration, f func()) float64 {
	f() // warm-up
	var ops int
	start := time.Now()
	for time.Since(start) < d {
		f()
		ops++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}
