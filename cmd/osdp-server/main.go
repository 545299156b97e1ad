// Command osdp-server serves OSDP queries over HTTP/JSON: the online,
// multi-tenant setting §7 of the paper flags as the open engineering
// problem. Datasets are loaded from typed CSV files at startup (and can
// also be registered at runtime via POST /v1/datasets); clients open
// budgeted sessions and answer histogram, int-histogram, count,
// quantile, and sample queries against them. See internal/server for the
// API and wire format.
//
// Usage:
//
//	osdp-server [-addr :8080] [-ttl 30m] [-max-sessions N]
//	            [-max-session-eps E] [-allow-seeds] [-scan-workers N]
//	            [-ledger DIR] [-admin-token TOK]
//	            [-default-analyst-eps E] [-max-analyst-sessions N]
//	            [-access-log=false] [-trace-ring N] [-trace-slow D]
//	            [-audit DIR] [-admit-concurrency N] [-admit-rate R]
//	            [-admit-burst N] [-admit-queue N]
//	            [-admit-analyst-concurrency N]
//	            [-data NAME=FILE.csv]... [-policy NAME=FILE.json]...
//
// -scan-workers caps the data-plane scan parallelism: vectorized
// predicate evaluation, policy splits, and histogram passes over tables
// above 64K rows shard across this many goroutines (default: the number
// of CPUs). 1 forces serial scans; answers are bit-identical either
// way, so the knob trades latency against CPU share, never correctness.
//
// -ledger DIR turns on the privacy-budget control plane: analyst
// identity (bearer API keys), durable per-(analyst, dataset) ε accounts
// replayed from DIR on startup, and the /admin API (guarded by
// -admin-token, or the OSDP_ADMIN_TOKEN environment variable — prefer
// the env var, which keeps the secret out of process listings). With a
// ledger every /v1 request must authenticate; -default-analyst-eps is
// the budget an analyst gets per dataset without an explicit grant, and
// -max-analyst-sessions caps one analyst's concurrent sessions.
//
// Durable charges are group-committed: concurrent charges share one
// WAL fsync instead of paying one each, so whatever arrives during an
// fsync rides the next one.
//
// Each -data flag registers a dataset; its privacy policy is taken from
// the matching -policy flag (a JSON PolicySpec, e.g.
//
//	{"name": "gdpr", "sensitive_when":
//	    {"op": "cmp", "attr": "Age", "cmp": "<=", "value": 17}}
//
// ). A dataset without a policy defaults to all-sensitive, the safe
// choice: under P_all, OSDP degenerates to standard DP and nothing is
// released in the clear by accident.
//
// Observability is always on: GET /metrics serves the process's
// counters, gauges, and latency histograms in the Prometheus text
// format (credential-free, like /stats — it carries only pre-aggregated
// operational series), runtime profiles hang off /admin/pprof/ behind
// the admin token, and every response carries an X-Request-Id that the
// structured access log (one slog line per request on stderr;
// -access-log=false silences it) repeats for correlation. A valid
// 16-hex inbound X-Request-Id is honored, so clients can pick the id
// they will later look up.
//
// Every request is also traced: timed spans (auth, compile, ledger
// charge, scan, noise, encode) land in a fixed-size ring served by
// GET /admin/traces and /admin/traces/{id}. -trace-ring sizes the ring
// (0 disables tracing); requests slower than -trace-slow are promoted
// to the access log and pinned in a separate slow ring so one burst of
// fast traffic cannot evict the evidence of an outlier.
//
// -audit DIR keeps a durable append-only JSONL privacy-audit trail: one
// event per ε-bearing decision (charged, refunded, retained, denied),
// group-fsynced with the same torn-tail discipline as the ledger WAL,
// served by GET /admin/audit. Without the flag the trail is in-memory
// only (recent events still queryable, nothing survives a restart).
//
// -admit-concurrency turns on admission control: at most N queries
// execute at once and the surplus waits in a weighted-fair queue, so
// one flooding analyst cannot starve the rest (each analyst's share of
// the pipe tracks their weight, default 1, settable per analyst at
// runtime via POST /admin/limits). -admit-rate/-admit-burst add a
// per-analyst token bucket; over-rate and over-queue requests are
// rejected with 429 and a Retry-After header rather than queued
// forever. -admit-queue caps one analyst's waiting requests (default
// 64) and -admit-analyst-concurrency caps one analyst's in-flight
// share of the pipe (0 = no per-analyst cap). All the caps are
// defaults that /admin/limits can override per analyst without a
// restart. Without -admit-concurrency none of this runs and queries
// execute unqueued, exactly as before.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// queries before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"osdp/internal/audit"
	"osdp/internal/dataset"
	"osdp/internal/ledger"
	"osdp/internal/server"
	"osdp/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	ttl := flag.Duration("ttl", 30*time.Minute, "idle session time-to-live (0 = never expire)")
	maxSessions := flag.Int("max-sessions", 0, "cap on concurrently open sessions (0 = unlimited)")
	maxEps := flag.Float64("max-session-eps", 0, "cap on any one session's ε budget; also forbids unlimited sessions (0 = no cap)")
	allowSeeds := flag.Bool("allow-seeds", false, "let clients open seeded (reproducible) sessions — predictable noise voids the OSDP guarantee, test/demo use only")
	scanWorkers := flag.Int("scan-workers", runtime.NumCPU(), "data-plane scan parallelism: goroutines per vectorized pass on large tables (1 = serial)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	ledgerDir := flag.String("ledger", "", "durable privacy-budget ledger directory; enables analyst auth and cross-session ε accounting")
	adminToken := flag.String("admin-token", "", "bearer token for the /admin API (default $OSDP_ADMIN_TOKEN); empty disables /admin")
	defaultEps := flag.Float64("default-analyst-eps", 1.0, "default per-(analyst, dataset) ε budget when no explicit grant exists (0 = unlimited)")
	maxAnalystSessions := flag.Int("max-analyst-sessions", 0, "cap on one analyst's concurrently open sessions (0 = unlimited)")
	accessLog := flag.Bool("access-log", true, "emit one structured (slog) line per HTTP request on stderr")
	traceRing := flag.Int("trace-ring", telemetry.DefaultTraceRing, "finished request traces retained for /admin/traces (0 disables tracing)")
	traceSlow := flag.Duration("trace-slow", telemetry.DefaultSlowThreshold, "requests at least this slow are logged and pinned in the slow-trace ring (-1ns disables promotion)")
	auditDir := flag.String("audit", "", "durable privacy-audit trail directory (empty = in-memory only)")
	admitConcurrency := flag.Int("admit-concurrency", 0, "enable admission control with this many execution slots; surplus queries wait in a weighted-fair queue (0 = admission control off)")
	admitRate := flag.Float64("admit-rate", 0, "per-analyst sustained query rate, tokens/second (0 = no rate limit; needs -admit-concurrency)")
	admitBurst := flag.Float64("admit-burst", 0, "per-analyst token-bucket burst (0 = 2x rate; needs -admit-rate)")
	admitQueue := flag.Int("admit-queue", 0, "per-analyst queued-request cap before 429 (0 = default 64; needs -admit-concurrency)")
	admitAnalystConcurrency := flag.Int("admit-analyst-concurrency", 0, "per-analyst in-flight query cap (0 = no per-analyst cap; needs -admit-concurrency)")
	data := map[string]string{}
	policies := map[string]string{}
	flag.Func("data", "NAME=FILE.csv dataset to register at startup (repeatable)", kvInto(data))
	flag.Func("policy", "NAME=FILE.json policy for the dataset NAME (repeatable)", kvInto(policies))
	flag.Parse()

	// Set scan parallelism before any dataset loads so registration-time
	// precompute (splits, bin vectors) already uses the pool.
	if eff := dataset.SetScanWorkers(*scanWorkers); eff != *scanWorkers {
		log.Printf("scan workers clamped to %d (requested %d)", eff, *scanWorkers)
	}

	// One process-wide metrics registry feeds GET /metrics. Installed
	// before any dataset loads so registration-time scans already count.
	reg := telemetry.NewRegistry()
	dataset.SetScanMetrics(dataset.NewScanMetrics(reg))

	var led *ledger.Ledger
	if *ledgerDir != "" {
		// The env fallback applies only in ledger mode: an exported
		// OSDP_ADMIN_TOKEN must not break a ledger-less invocation that
		// never asked for an admin API.
		if *adminToken == "" {
			*adminToken = os.Getenv("OSDP_ADMIN_TOKEN")
		}
		var err error
		led, err = ledger.Open(ledger.Config{
			Dir:           *ledgerDir,
			DefaultBudget: *defaultEps,
			Telemetry:     reg,
		})
		if err != nil {
			fatal(err)
		}
		defer led.Close()
		log.Printf("ledger open at %s: %s", *ledgerDir, ledgerSummary(led))
		if *adminToken == "" {
			log.Printf("warning: ledger enabled without -admin-token / $OSDP_ADMIN_TOKEN; the /admin API is disabled and no analysts can be created")
		}
	} else if *adminToken != "" {
		fatal(errors.New("-admin-token requires -ledger (the admin API administers the ledger)"))
	}

	cfg := server.Config{
		SessionTTL:            *ttl,
		MaxSessions:           *maxSessions,
		MaxSessionBudget:      *maxEps,
		AllowSeededSessions:   *allowSeeds,
		Ledger:                led,
		AdminToken:            *adminToken,
		MaxSessionsPerAnalyst: *maxAnalystSessions,
		Telemetry:             reg,
	}
	if *accessLog {
		cfg.AccessLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if *admitConcurrency > 0 {
		cfg.Admission = &server.AdmissionConfig{
			MaxConcurrent:      *admitConcurrency,
			AnalystConcurrency: *admitAnalystConcurrency,
			RatePerSec:         *admitRate,
			Burst:              *admitBurst,
			MaxQueued:          *admitQueue,
		}
		queueCap := *admitQueue
		if queueCap == 0 {
			queueCap = server.DefaultMaxQueued
		}
		log.Printf("admission control on: %d slot(s), per-analyst rate %.4g/s, queue cap %d",
			*admitConcurrency, *admitRate, queueCap)
	} else if *admitRate > 0 || *admitBurst > 0 || *admitQueue > 0 || *admitAnalystConcurrency > 0 {
		fatal(errors.New("-admit-rate/-admit-burst/-admit-queue/-admit-analyst-concurrency require -admit-concurrency"))
	}
	if *traceRing > 0 {
		cfg.Tracer = telemetry.NewTracer(telemetry.TracerConfig{
			RingSize:      *traceRing,
			SlowThreshold: *traceSlow,
		})
	}
	aud, err := audit.Open(audit.Config{Dir: *auditDir, Telemetry: reg})
	if err != nil {
		fatal(err)
	}
	defer aud.Close()
	if *auditDir != "" {
		log.Printf("audit trail open at %s: %d event(s) replayed", *auditDir, aud.Seq())
	}
	cfg.Audit = aud
	srv := server.New(cfg)
	for name, path := range data {
		if err := loadDataset(srv, name, path, policies[name]); err != nil {
			fatal(err)
		}
	}
	for name := range policies {
		if _, ok := data[name]; !ok {
			fatal(fmt.Errorf("-policy %s given but no matching -data flag", name))
		}
	}
	if *ttl > 0 {
		srv.StartJanitor(*ttl / 4)
	}

	hs := newHTTPServer(*addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("osdp-server listening on %s with %d dataset(s)", *addr, len(data))

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		log.Printf("osdp-server draining (up to %s)", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("osdp-server shutdown: %v", err)
		}
		srv.Close()
	}
}

// newHTTPServer wraps the handler in an http.Server with every timeout
// set. The zero-value timeouts http.Server ships with let one
// slow-loris client pin a connection (and its goroutine) forever by
// trickling header bytes; a fleet of them exhausts the server without
// ever completing a request. Read/Write are generous because request
// bodies legitimately reach the 64 MB CSV-registration cap and sample
// responses can exceed it.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// loadDataset reads a CSV table and its policy file (all-sensitive when
// policyPath is empty) and registers both.
func loadDataset(srv *server.Server, name, csvPath, policyPath string) error {
	f, err := os.Open(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := dataset.ReadCSV(f)
	if err != nil {
		return fmt.Errorf("dataset %s: %w", name, err)
	}

	policy := dataset.AllSensitive()
	if policyPath != "" {
		raw, err := os.ReadFile(policyPath)
		if err != nil {
			return err
		}
		var spec server.PolicySpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("policy %s: %w", policyPath, err)
		}
		if policy, err = server.CompilePolicy(spec, t.Schema()); err != nil {
			return err
		}
	}
	if err := srv.RegisterTable(name, t, policy); err != nil {
		return err
	}
	log.Printf("registered dataset %s: %d rows, policy %s", name, t.Len(), policy.Name())
	return nil
}

// kvInto parses repeated NAME=VALUE flags into dst.
func kvInto(dst map[string]string) func(string) error {
	return func(s string) error {
		name, value, ok := strings.Cut(s, "=")
		if !ok || name == "" || value == "" {
			return errors.New("expected NAME=FILE")
		}
		if _, dup := dst[name]; dup {
			return fmt.Errorf("duplicate flag for %s", name)
		}
		dst[name] = value
		return nil
	}
}

// ledgerSummary renders the replayed state for the startup log line.
func ledgerSummary(l *ledger.Ledger) string {
	analysts, accounts := l.Counts()
	return fmt.Sprintf("%d analyst(s), %d account(s), %.4g ε spent", analysts, accounts, l.TotalSpent())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "osdp-server:", err)
	os.Exit(1)
}
