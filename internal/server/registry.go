package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"osdp/internal/audit"
	"osdp/internal/core"
	"osdp/internal/dataset"
	"osdp/internal/ledger"
	"osdp/internal/noise"
	"osdp/internal/telemetry"
)

// Config tunes a Server. The zero value is usable: sessions never expire
// and the session count is uncapped.
type Config struct {
	// SessionTTL evicts sessions idle longer than this. 0 disables
	// eviction. Eviction forgets the session id, not the spent budget —
	// a new session starts with a fresh budget by design, which is why
	// TTLs should be generous and budgets per-client, not per-session.
	SessionTTL time.Duration
	// MaxSessions caps concurrently open sessions (0 = unlimited).
	MaxSessions int
	// MaxSessionBudget caps the ε budget any one session may be opened
	// with; when set it also forbids unlimited (budget 0) sessions.
	// 0 disables the cap. It bounds per-transcript leakage only —
	// composition ACROSS sessions is not yet accounted (that needs
	// client identity; see the package comment).
	MaxSessionBudget float64
	// AllowSeededSessions permits clients to supply a noise seed when
	// opening a session. Seeded noise is fully predictable: an analyst
	// who knows the seed can replay the generator and subtract the
	// noise, voiding the OSDP guarantee. Leave this off in production;
	// turn it on for reproducible tests and demos.
	AllowSeededSessions bool
	// Ledger, when set, turns on the privacy-budget control plane: every
	// /v1 request must authenticate with an analyst API key, every
	// ε-bearing query is charged to the analyst's durable per-dataset
	// ledger account BEFORE any noise is drawn, and sessions are bound
	// to the analyst that opened them. Without it the server runs in the
	// legacy per-session-budget mode with no identity (composition
	// across sessions unaccounted).
	Ledger *ledger.Ledger
	// AdminToken guards the /admin API (analyst creation, budget grants,
	// spend inspection). Empty disables /admin entirely. It is a bearer
	// token distinct from every analyst key.
	AdminToken string
	// MaxSessionsPerAnalyst caps one analyst's concurrently open
	// sessions (0 = unlimited). An analyst's own SessionCap, when set,
	// takes precedence. Only meaningful with Ledger.
	MaxSessionsPerAnalyst int
	// Telemetry, when non-nil, registers the serving layer's metric
	// series on the given registry and enables the HTTP observability
	// middleware. The same registry should be handed to the ledger
	// (ledger.Config.Telemetry) and the scan pool
	// (dataset.NewScanMetrics) so one GET /metrics scrape covers every
	// layer. Nil disables collection at zero query-path cost.
	Telemetry *telemetry.Registry
	// AccessLog, when non-nil, receives one structured log line per
	// served HTTP request (request id, method, route, status, bytes,
	// duration, and the authenticated analyst once auth resolves)
	// from the middleware, plus a warn line for requests past the
	// tracer's slow threshold.
	AccessLog *slog.Logger
	// Tracer, when non-nil, records a per-request span trace (auth,
	// compile, artifact lookups, ledger charge, scan, noise, encode)
	// into its ring buffers, served by GET /admin/traces. Nil disables
	// tracing at one branch per span site.
	Tracer *telemetry.Tracer
	// Audit, when non-nil, receives one event per ε-bearing decision
	// the query path makes (released/retained/refunded/denied), served
	// by GET /admin/audit. The server does not close it.
	Audit *audit.Log
	// Admission, when non-nil, turns on the admission layer in front of
	// query execution: per-analyst token buckets and concurrency caps
	// plus a weighted-fair queue (see AdmissionConfig and DESIGN.md
	// "Admission control"). Nil disables admission entirely — every
	// query runs immediately, as before.
	Admission *AdmissionConfig
	// now is stubbed by tests; defaults to time.Now.
	now func() time.Time
}

// ds is a registered dataset: the columnar table, its policy, the cached
// non-sensitive partition view (used to derive histogram domains without
// leaking sensitive-only values), and the precompiled query artifacts.
// All fields are immutable after registration; art's caches carry their
// own synchronization.
type ds struct {
	table  *dataset.Table
	ns     *dataset.Table
	policy dataset.Policy
	art    *artifacts
}

// session is one client's budgeted OSDP endpoint plus bookkeeping for
// TTL eviction. analyst is the owning principal's id ("" when the
// server runs without a ledger).
type session struct {
	id       string
	dataset  string
	analyst  string
	sess     *core.Session
	created  time.Time
	lastUsed time.Time
}

// Server is the multi-tenant query service: a dataset registry plus a
// session registry, both guarded by one mutex. Query execution itself
// happens outside the lock — core.Session is safe for concurrent use
// (its noise source is wrapped with noise.Locked at session open), so
// the mutex only protects the maps.
type Server struct {
	cfg Config
	met *serverMetrics // nil when Config.Telemetry is nil
	adm *admitter      // nil when Config.Admission is nil

	mu         sync.Mutex
	datasets   map[string]*ds
	sessions   map[string]*session
	perAnalyst map[string]int // live sessions per analyst id

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New returns a Server with the given config. If cfg.SessionTTL > 0 the
// caller should also call StartJanitor (expired sessions are additionally
// rejected lazily on access, so the janitor is an optimisation, not a
// correctness requirement).
func New(cfg Config) *Server {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Server{
		cfg:        cfg,
		met:        newServerMetrics(cfg.Telemetry),
		datasets:   make(map[string]*ds),
		sessions:   make(map[string]*session),
		perAnalyst: make(map[string]int),
	}
	if cfg.Admission != nil {
		s.adm = newAdmitter(*cfg.Admission, cfg.now, cfg.Telemetry)
	}
	if reg := cfg.Telemetry; reg != nil {
		// Registry sizes are collected at scrape time rather than
		// counted on mutation — they are exact either way, and a
		// GaugeFunc cannot drift from the maps it reads.
		reg.NewGaugeFunc("osdp_sessions_active",
			"Sessions currently open.", func() float64 { return float64(s.SessionCount()) })
		reg.NewGaugeFunc("osdp_datasets_registered",
			"Datasets currently registered.", func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(len(s.datasets))
			})
		if l := cfg.Ledger; l != nil {
			reg.NewGaugeFunc("osdp_ledger_spent_eps",
				"Total ε spent across all ledger accounts.", l.TotalSpent)
			reg.NewGaugeFunc("osdp_ledger_analysts",
				"Analyst principals in the ledger.", func() float64 {
					analysts, _ := l.Counts()
					return float64(analysts)
				})
			reg.NewGaugeFunc("osdp_ledger_accounts",
				"Touched (analyst, dataset) budget accounts.", func() float64 {
					_, accounts := l.Counts()
					return float64(accounts)
				})
		}
	}
	return s
}

// StartJanitor begins periodic eviction of expired sessions, sweeping at
// the given interval. It is a no-op when SessionTTL is 0. Close stops it.
func (s *Server) StartJanitor(interval time.Duration) {
	if s.cfg.SessionTTL <= 0 || s.janitorStop != nil {
		return
	}
	s.janitorStop = make(chan struct{})
	s.janitorDone = make(chan struct{})
	go func() {
		defer close(s.janitorDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Sweep()
			case <-s.janitorStop:
				return
			}
		}
	}()
}

// Close stops the janitor (if running) and drops all sessions.
func (s *Server) Close() {
	if s.janitorStop != nil {
		close(s.janitorStop)
		<-s.janitorDone
		s.janitorStop = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions = make(map[string]*session)
	s.perAnalyst = make(map[string]int)
}

// Sweep evicts every session idle longer than SessionTTL and returns how
// many were evicted.
func (s *Server) Sweep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepLocked()
}

func (s *Server) sweepLocked() int {
	if s.cfg.SessionTTL <= 0 {
		return 0
	}
	cutoff := s.cfg.now().Add(-s.cfg.SessionTTL)
	n := 0
	for id, se := range s.sessions {
		if se.lastUsed.Before(cutoff) {
			s.dropSessionLocked(id, se)
			n++
		}
	}
	return n
}

// dropSessionLocked forgets a session and releases its slot in the
// per-analyst count. Every eviction/close path goes through it so the
// analyst cap can never leak slots.
func (s *Server) dropSessionLocked(id string, se *session) {
	delete(s.sessions, id)
	s.met.sessionDropped()
	if se.analyst != "" {
		if n := s.perAnalyst[se.analyst] - 1; n > 0 {
			s.perAnalyst[se.analyst] = n
		} else {
			delete(s.perAnalyst, se.analyst)
		}
	}
}

// RegisterTable registers an in-memory table under name. Used by
// cmd/osdp-server for datasets loaded from disk; the HTTP path goes
// through RegisterDataset.
func (s *Server) RegisterTable(name string, t *dataset.Table, p dataset.Policy) error {
	if err := s.checkNameFree(name); err != nil {
		return err
	}
	// Precompute the serving artifacts outside the lock: the policy
	// partition (bitsets cached on the table, shared by every session),
	// and per-attribute derived domains with their bin-id vectors. See
	// the artifacts type for the full caching contract. On large tables
	// the partition and the bin-id vectors shard across the dataset scan
	// worker pool (dataset.SetScanWorkers; cmd/osdp-server exposes
	// -scan-workers); the distinct pass that derives each domain is
	// serial and stops at the domain cap.
	_, ns := t.Split(p)
	art := newArtifacts(t, ns, s.met)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[name]; dup {
		return fmt.Errorf("%w: dataset %q already registered", ErrConflict, name)
	}
	s.datasets[name] = &ds{table: t, ns: ns, policy: p, art: art}
	return nil
}

// checkNameFree rejects an invalid or taken dataset name. Registration
// calls it before any O(rows) work (parsing, precompute); the recheck
// under the lock in RegisterTable settles racing registrations.
func (s *Server) checkNameFree(name string) error {
	if !validName(name) {
		return badf("dataset name %q must be non-empty [A-Za-z0-9._-]+ (it becomes a URL path segment)", name)
	}
	s.mu.Lock()
	_, taken := s.datasets[name]
	s.mu.Unlock()
	if taken {
		return fmt.Errorf("%w: dataset %q already registered", ErrConflict, name)
	}
	return nil
}

// RegisterDataset parses and registers a dataset from a wire request.
// An invalid or taken name fails before the CSV is parsed.
func (s *Server) RegisterDataset(req RegisterDatasetRequest) (DatasetInfo, error) {
	if err := s.checkNameFree(req.Name); err != nil {
		return DatasetInfo{}, err
	}
	t, err := dataset.ReadCSV(strings.NewReader(req.CSV))
	if err != nil {
		return DatasetInfo{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	p, err := CompilePolicy(req.Policy, t.Schema())
	if err != nil {
		return DatasetInfo{}, err
	}
	if err := s.RegisterTable(req.Name, t, p); err != nil {
		return DatasetInfo{}, err
	}
	return s.DatasetInfo(req.Name)
}

// DatasetInfo describes a registered dataset.
func (s *Server) DatasetInfo(name string) (DatasetInfo, error) {
	s.mu.Lock()
	d, ok := s.datasets[name]
	s.mu.Unlock()
	if !ok {
		return DatasetInfo{}, fmt.Errorf("%w: unknown dataset %q", ErrNotFound, name)
	}
	return datasetInfo(name, d), nil
}

// Datasets lists registered datasets sorted by name.
func (s *Server) Datasets() []DatasetInfo {
	s.mu.Lock()
	out := make([]DatasetInfo, 0, len(s.datasets))
	for name, d := range s.datasets {
		out = append(out, datasetInfo(name, d))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// datasetInfo needs no lock beyond the map access: registered tables and
// policies are immutable.
func datasetInfo(name string, d *ds) DatasetInfo {
	return DatasetInfo{
		Name:         name,
		Rows:         d.table.Len(),
		NonSensitive: d.ns.Len(),
		Attrs:        d.table.Schema().Names(),
		Policy:       d.policy.String(),
	}
}

// OpenSession opens a budgeted session over a registered dataset for
// the given analyst and returns its info (including the fresh session
// id). analyst is the authenticated principal's id; pass "" only on a
// server running without a ledger. Opening is free — ε is charged per
// query — but counts against the analyst's session cap.
func (s *Server) OpenSession(analyst string, req OpenSessionRequest) (SessionInfo, error) {
	if err := s.checkAnalyst(analyst); err != nil {
		return SessionInfo{}, err
	}
	// NaN slips past <, ==, and > alike, which would bypass both the
	// cap and the unlimited-session ban below.
	if math.IsNaN(req.Budget) || math.IsInf(req.Budget, 0) || req.Budget < 0 {
		return SessionInfo{}, badf("budget %g must be finite and non-negative", req.Budget)
	}
	if s.cfg.MaxSessionBudget > 0 {
		if req.Budget == 0 {
			return SessionInfo{}, badf("unlimited sessions are disabled; budget must be in (0, %g]", s.cfg.MaxSessionBudget)
		}
		if req.Budget > s.cfg.MaxSessionBudget {
			return SessionInfo{}, badf("budget %g exceeds the per-session cap %g", req.Budget, s.cfg.MaxSessionBudget)
		}
	}
	var src noise.Source
	if req.Seed != nil {
		if !s.cfg.AllowSeededSessions {
			return SessionInfo{}, badf("seeded sessions are disabled: predictable noise voids the OSDP guarantee")
		}
		src = noise.Locked(noise.NewSource(*req.Seed))
	} else {
		// Secure sources carry their own mutex; wrapping in Locked
		// would double the lock traffic on every draw.
		src = noise.NewSecureSource()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[req.Dataset]
	if !ok {
		return SessionInfo{}, fmt.Errorf("%w: unknown dataset %q", ErrNotFound, req.Dataset)
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		// Expired-but-unswept sessions must not hold the cap; evict
		// them before refusing, or abandoned sessions would deny
		// service until the janitor's next pass.
		s.sweepLocked()
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		return SessionInfo{}, fmt.Errorf("%w: limit %d reached", ErrTooManySessions, s.cfg.MaxSessions)
	}
	if cap := s.analystSessionCap(analyst); cap > 0 && s.perAnalyst[analyst] >= cap {
		// Abandoned-but-unswept sessions must not hold the analyst's
		// cap any more than the global one.
		s.sweepLocked()
		if s.perAnalyst[analyst] >= cap {
			return SessionInfo{}, fmt.Errorf("%w: analyst %s at its cap of %d concurrent sessions", ErrTooManySessions, analyst, cap)
		}
	}
	id, err := newSessionID()
	if err != nil {
		return SessionInfo{}, err
	}
	now := s.cfg.now()
	se := &session{
		id:      id,
		dataset: req.Dataset,
		analyst: analyst,
		// Reuse the partition cached at registration: opening N
		// sessions must not split the table N times.
		sess:     core.NewSessionWithPartition(d.table, d.ns, d.policy, req.Budget, src),
		created:  now,
		lastUsed: now,
	}
	s.sessions[id] = se
	if analyst != "" {
		s.perAnalyst[analyst]++
	}
	s.met.sessionOpened()
	return infoFor(se), nil
}

// checkAnalyst validates the analyst/ledger pairing: ledger-backed
// servers require a principal on every session operation, ledger-less
// servers forbid one (there is nothing to charge).
func (s *Server) checkAnalyst(analyst string) error {
	if s.cfg.Ledger == nil {
		if analyst != "" {
			return fmt.Errorf("%w: server has no ledger; analyst identity is not accepted", ErrBadRequest)
		}
		return nil
	}
	if analyst == "" {
		return fmt.Errorf("%w: missing analyst identity", ErrUnauthorized)
	}
	return nil
}

// analystSessionCap resolves the effective concurrent-session cap for
// an analyst: their own SessionCap when set, else the server default,
// else the ledger default. 0 = unlimited. Callers hold s.mu.
func (s *Server) analystSessionCap(analyst string) int {
	if analyst == "" || s.cfg.Ledger == nil {
		return 0
	}
	if info, err := s.cfg.Ledger.Analyst(analyst); err == nil && info.SessionCap > 0 {
		return info.SessionCap
	}
	if s.cfg.MaxSessionsPerAnalyst > 0 {
		return s.cfg.MaxSessionsPerAnalyst
	}
	return s.cfg.Ledger.DefaultSessionCap()
}

// lookup fetches a live session and its dataset, bumping lastUsed and
// enforcing ownership: a session is only visible to the analyst that
// opened it. Expired sessions are evicted here even when no janitor
// runs — an evicted session fails closed with ErrNotFound.
func (s *Server) lookup(analyst, id string) (*session, *ds, error) {
	if err := s.checkAnalyst(analyst); err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.sessions[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: unknown session %q", ErrNotFound, id)
	}
	if se.analyst != analyst {
		return nil, nil, fmt.Errorf("%w: session %q belongs to another analyst", ErrForbidden, id)
	}
	now := s.cfg.now()
	if s.cfg.SessionTTL > 0 && se.lastUsed.Before(now.Add(-s.cfg.SessionTTL)) {
		s.dropSessionLocked(id, se)
		return nil, nil, fmt.Errorf("%w: session %q expired", ErrNotFound, id)
	}
	se.lastUsed = now
	d, ok := s.datasets[se.dataset]
	if !ok {
		return nil, nil, fmt.Errorf("server: dataset %q for session %q is gone", se.dataset, id)
	}
	return se, d, nil
}

// SessionInfo reports a session's budget state to its owning analyst.
func (s *Server) SessionInfo(analyst, id string) (SessionInfo, error) {
	se, _, err := s.lookup(analyst, id)
	if err != nil {
		return SessionInfo{}, err
	}
	return infoFor(se), nil
}

// CloseSession forgets a session and returns its final budget state,
// removed and snapshotted under one registry lock so no new query can
// slip between the read and the removal. A query already executing when
// the close lands may still charge the accountant after the snapshot, so
// the returned state can trail the transcript by those in-flight charges;
// audits needing exactness must quiesce clients before closing. Closing
// an unknown id is an error so clients notice double-closes.
func (s *Server) CloseSession(analyst, id string) (SessionInfo, error) {
	if err := s.checkAnalyst(analyst); err != nil {
		return SessionInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.sessions[id]
	if !ok {
		return SessionInfo{}, fmt.Errorf("%w: unknown session %q", ErrNotFound, id)
	}
	if se.analyst != analyst {
		return SessionInfo{}, fmt.Errorf("%w: session %q belongs to another analyst", ErrForbidden, id)
	}
	s.dropSessionLocked(id, se)
	return infoFor(se), nil
}

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// infoFor snapshots a session's budget state. It takes no registry lock:
// id and dataset are immutable after creation, and the spent/guarantee
// pair comes from one atomic accountant read so a racing charge cannot
// make the reported ledger disagree with itself.
func infoFor(se *session) SessionInfo {
	budget := se.sess.Budget()
	spent, composite := se.sess.Snapshot()
	remaining := budget - spent
	if budget == 0 { // unlimited: mirror Session.Remaining's convention
		remaining = 0
	}
	return SessionInfo{
		ID:        se.id,
		Dataset:   se.dataset,
		Analyst:   se.analyst,
		Budget:    budget,
		Spent:     spent,
		Remaining: remaining,
		Guarantee: composite.String(),
		Policy:    se.sess.Policy().String(),
	}
}

// Stats reports coarse service health: registry sizes plus, when the
// control plane is on, ledger aggregates. Everything here is an
// aggregate an operator dashboard can poll — no per-analyst detail (the
// admin API has that).
func (s *Server) Stats() StatsResponse {
	s.mu.Lock()
	resp := StatsResponse{
		Datasets: len(s.datasets),
		Sessions: len(s.sessions),
	}
	s.mu.Unlock()
	if l := s.cfg.Ledger; l != nil {
		resp.LedgerEnabled = true
		resp.LedgerDurable = l.Durable()
		resp.Analysts, resp.Accounts = l.Counts()
		// Always a non-nil pointer on ledger servers: a fresh ledger
		// reports "spent_eps":0 on the wire, distinguishable from a
		// ledger-less server, which omits the field entirely.
		spent := l.TotalSpent()
		resp.SpentEps = &spent
	}
	return resp
}

// validName reports whether a dataset name is safe to embed as a URL
// path segment without escaping surprises. "." and ".." pass the
// character check but are collapsed by ServeMux path cleaning, which
// would make the dataset unreachable.
func validName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generating session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
