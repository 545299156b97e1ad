package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"osdp/internal/audit"
	"osdp/internal/dataset"
	"osdp/internal/ledger"
	"osdp/internal/server"
	"osdp/internal/telemetry"
)

// adminToken guards the /admin routes the operator loop polls.
const adminToken = "bench-admin-token"

// analystBudget is every analyst's ledger and session budget: finite, as
// production budgets are, and large enough never to bind in a run.
const analystBudget = 1e6

// sessionTTL and the janitor mirror cmd/osdp-server's defaults.
const sessionTTL = 30 * time.Minute

// env is one server built the way cmd/osdp-server builds it: durable
// ledger and audit trail, telemetry with scan metrics, the access log
// written to io.Discard, admission on with default slots, and unseeded
// (CSPRNG) sessions. Requests reach Handler().ServeHTTP in-process.
type env struct {
	dir    string // holds ledger/ and audit/
	led    *ledger.Ledger
	aud    *audit.Log
	srv    *server.Server
	h      http.Handler
	tracer *telemetry.Tracer // nil on untraced runs

	keys     []string // analyst bearer keys
	sessions []string // one session per analyst
	ids      atomic.Uint64
}

// setupTimes splits one set-up into the phases the per-layer metrics
// report.
type setupTimes struct {
	ledgerOpen, auditOpen, register, sessions time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.ledgerOpen + t.auditOpen + t.register + t.sessions
}

// setup builds a fresh env for w under workdir. The table is cloned so
// every set-up pays the partition and artifact precompute itself; data
// generation is not timed.
func setup(w *workload, workdir string, traced bool) (*env, setupTimes, error) {
	dir, err := os.MkdirTemp(workdir, "env-")
	if err != nil {
		return nil, setupTimes{}, err
	}
	table := w.table.Clone()
	e := &env{dir: dir}
	if traced {
		e.tracer = telemetry.NewTracer(telemetry.TracerConfig{RingSize: 1024})
	}
	var st setupTimes
	runtime.GC()

	t0 := time.Now()
	reg := telemetry.NewRegistry()
	dataset.SetScanMetrics(dataset.NewScanMetrics(reg))
	e.led, err = ledger.Open(ledger.Config{
		Dir: filepath.Join(dir, "ledger"), DefaultBudget: analystBudget, Telemetry: reg,
	})
	if err != nil {
		e.close()
		return nil, st, err
	}
	t1 := time.Now()
	e.aud, err = audit.Open(audit.Config{Dir: filepath.Join(dir, "audit"), Telemetry: reg})
	if err != nil {
		e.close()
		return nil, st, err
	}
	t2 := time.Now()
	e.srv = server.New(server.Config{
		SessionTTL: sessionTTL,
		Ledger:     e.led,
		AdminToken: adminToken,
		Telemetry:  reg,
		AccessLog:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		Tracer:     e.tracer,
		Audit:      e.aud,
		Admission:  &server.AdmissionConfig{},
	})
	e.srv.StartJanitor(sessionTTL / 4)
	e.h = e.srv.Handler()
	var spec server.PolicySpec
	err = json.Unmarshal(w.policy, &spec)
	if err == nil {
		var pol dataset.Policy
		if pol, err = server.CompilePolicy(spec, table.Schema()); err == nil {
			err = e.srv.RegisterTable(datasetName, table, pol)
		}
	}
	if err != nil {
		e.close()
		return nil, st, err
	}
	t3 := time.Now()
	for i := 0; i < w.analysts; i++ {
		info, key, err := e.led.CreateAnalyst(fmt.Sprintf("analyst-%02d", i), 0)
		if err != nil {
			e.close()
			return nil, st, err
		}
		s, err := e.srv.OpenSession(info.ID, server.OpenSessionRequest{Dataset: datasetName, Budget: analystBudget})
		if err != nil {
			e.close()
			return nil, st, err
		}
		e.keys = append(e.keys, key)
		e.sessions = append(e.sessions, s.ID)
	}
	t4 := time.Now()
	st = setupTimes{ledgerOpen: t1.Sub(t0), auditOpen: t2.Sub(t1), register: t3.Sub(t2), sessions: t4.Sub(t3)}
	return e, st, nil
}

// close shuts the server, ledger and audit trail down in the order
// cmd/osdp-server does. The directory stays for recovery.
func (e *env) close() error {
	if e.srv != nil {
		e.srv.Close()
	}
	var err error
	if e.led != nil {
		err = e.led.Close()
	}
	if e.aud != nil {
		if aerr := e.aud.Close(); err == nil {
			err = aerr
		}
	}
	return err
}

// nextID mints the X-Request-Id a request carries, so a traced run can
// look its trace up.
func (e *env) nextID() string {
	return fmt.Sprintf("%016x", e.ids.Add(1))
}

// do serves one request in-process and returns its status, body and the
// time ServeHTTP took.
func (e *env) do(method, path, bearer, id string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if bearer != "" {
		req.Header.Set("Authorization", "Bearer "+bearer)
	}
	req.Header.Set("X-Request-Id", id)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	e.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(t0)
}

// scrape reads the program's own GET /metrics.
func (e *env) scrape() (promSample, error) {
	code, body, _ := e.do(http.MethodGet, "/metrics", "", e.nextID(), nil)
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parseProm(bytes.NewReader(body))
}

// recovery is one re-open of a closed env's durable state.
type recovery struct {
	ledgerOpen, auditOpen time.Duration
	spent                 float64 // ledger TotalSpent after replay
	records               int     // ledger WAL records plus audit events replayed
}

// reopen times ledger.Open and audit.Open on the closed env's
// directories, the work a restart does before serving.
func (e *env) reopen() (recovery, error) {
	var r recovery
	reg := telemetry.NewRegistry()
	t0 := time.Now()
	led, err := ledger.Open(ledger.Config{
		Dir: filepath.Join(e.dir, "ledger"), DefaultBudget: analystBudget, Telemetry: reg,
	})
	if err != nil {
		return r, err
	}
	// Re-opened state is only read, so close errors are dropped.
	defer led.Close()
	t1 := time.Now()
	aud, err := audit.Open(audit.Config{Dir: filepath.Join(e.dir, "audit"), Telemetry: reg})
	t2 := time.Now()
	if err != nil {
		return r, err
	}
	defer aud.Close()
	r.ledgerOpen, r.auditOpen = t1.Sub(t0), t2.Sub(t1)
	r.spent = led.TotalSpent()
	var sb bytes.Buffer
	if err := reg.WritePrometheus(&sb); err != nil {
		return r, err
	}
	p, err := parseProm(&sb)
	if err != nil {
		return r, err
	}
	r.records = int(p.family("osdp_ledger_replayed_records_total")) + int(aud.Seq())
	return r, nil
}

// releasedEvents counts the audit trail's "released" events.
func (e *env) releasedEvents() (int, error) {
	n := 0
	_, _, err := audit.Replay(filepath.Join(e.dir, "audit"), func(ev audit.Event) error {
		if ev.Outcome == audit.OutcomeReleased {
			n++
		}
		return nil
	})
	return n, err
}
