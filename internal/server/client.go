package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"osdp/internal/core"
	"osdp/internal/dataset"
	"osdp/internal/ledger"
)

// maxResponseBytes bounds how much of a response the client buffers. It
// is deliberately larger than the server's request-body cap: a sample of
// a big disk-loaded dataset can legitimately exceed that cap, and
// truncating it would discard an answer whose ε is already spent.
const maxResponseBytes = 1 << 30

// Client is a Go client for the HTTP API. Examples and the end-to-end
// tests use it so the real wire format is exercised, not handler
// internals. A Client is safe for concurrent use.
//
// Every method takes a context.Context and threads it into the HTTP
// request, so callers can cancel in-flight calls; WithTimeout adds a
// per-request deadline on top. Against a ledger-backed server, build an
// authenticated view with WithToken (an analyst API key for /v1, the
// admin token for /admin).
type Client struct {
	base    string
	hc      *http.Client
	token   string        // bearer credential; empty sends no Authorization header
	timeout time.Duration // per-request deadline; 0 relies on ctx alone
	ridHook func(method, path, requestID string)
}

// NewClient returns a client for a server at base (e.g.
// "http://localhost:8080"). A nil http.Client means http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// WithToken returns a copy of the client that authenticates every
// request with the given bearer token. The original client is
// unchanged, so one process can hold differently-privileged views (e.g.
// an analyst key and the admin token) over one connection pool.
func (c *Client) WithToken(token string) *Client {
	cp := *c
	cp.token = token
	return &cp
}

// WithTimeout returns a copy of the client that bounds every request to
// d (on top of whatever deadline the caller's context carries). 0
// removes the bound.
func (c *Client) WithTimeout(d time.Duration) *Client {
	cp := *c
	cp.timeout = d
	return &cp
}

// WithRequestIDHook returns a copy of the client that calls fn with the
// server's X-Request-Id after every response that carries one —
// including successes, which return no error to hang the id on. Callers
// use it to record the ids of ε-spending calls so they can later be
// joined against /admin/traces and /admin/audit. fn must be safe for
// concurrent use; nil removes the hook.
func (c *Client) WithRequestIDHook(fn func(method, path, requestID string)) *Client {
	cp := *c
	cp.ridHook = fn
	return &cp
}

// APIError is a non-2xx answer from the server. It maps back onto the
// package sentinels so callers can errors.Is against ErrBadRequest,
// ErrUnauthorized, ErrForbidden, ErrNotFound, ErrConflict,
// ErrTooManySessions, core.ErrBudgetExceeded, and core.ErrEmptySample
// across the wire.
type APIError struct {
	Status  int
	Message string
	// RequestID is the server's X-Request-Id for the failed request
	// ("" against servers without the observability middleware). Quote
	// it when reporting a failure: the operator can pull the matching
	// trace, audit events, and access-log lines by this id.
	RequestID string
	// RetryAfter is the server-advertised pause from a 429's
	// Retry-After header (0 when the server sent none). An admission
	// rejection charged nothing, so waiting this long and resending is
	// always safe.
	RetryAfter time.Duration
}

// Error renders the status code, the server's error message, the
// advertised retry pause on rate-limited answers, and the request id
// when the server assigned one.
func (e *APIError) Error() string {
	msg := fmt.Sprintf("server: HTTP %d: %s", e.Status, e.Message)
	if e.RetryAfter > 0 {
		msg += fmt.Sprintf(" (retry after %s)", e.RetryAfter)
	}
	if e.RequestID != "" {
		msg += fmt.Sprintf(" (request %s)", e.RequestID)
	}
	return msg
}

// Is classifies the error by its status code. 409 maps to both
// ErrConflict and ErrEmptySample, and 429 to both ErrTooManySessions
// and ErrRateLimited (the wire cannot distinguish them; the message
// and Retry-After can).
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrBadRequest:
		return e.Status == http.StatusBadRequest
	case ErrUnauthorized:
		return e.Status == http.StatusUnauthorized
	case ErrForbidden:
		return e.Status == http.StatusForbidden
	case ErrNotFound:
		return e.Status == http.StatusNotFound
	case ErrConflict, core.ErrEmptySample:
		return e.Status == http.StatusConflict
	case ErrTooManySessions, ErrRateLimited:
		return e.Status == http.StatusTooManyRequests
	case core.ErrBudgetExceeded:
		return e.Status == http.StatusPaymentRequired
	}
	return false
}

// parseRetryAfter reads a Retry-After header: delta-seconds (the form
// this server emits) or an HTTP-date, per RFC 9110 §10.2.3. 0 means
// absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// Healthz reports liveness.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := do[map[string]any](ctx, c, http.MethodGet, "/healthz", nil)
	return err
}

// Stats fetches the coarse service aggregates.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	return do[StatsResponse](ctx, c, http.MethodGet, "/stats", nil)
}

// RegisterDataset registers a dataset from an in-memory table.
func (c *Client) RegisterDataset(ctx context.Context, name string, t *dataset.Table, policy PolicySpec) (DatasetInfo, error) {
	var b strings.Builder
	if err := dataset.WriteCSV(&b, t); err != nil {
		return DatasetInfo{}, err
	}
	return c.RegisterDatasetCSV(ctx, RegisterDatasetRequest{Name: name, CSV: b.String(), Policy: policy})
}

// RegisterDatasetCSV registers a dataset from a raw wire request.
func (c *Client) RegisterDatasetCSV(ctx context.Context, req RegisterDatasetRequest) (DatasetInfo, error) {
	return do[DatasetInfo](ctx, c, http.MethodPost, "/v1/datasets", req)
}

// Datasets lists registered datasets.
func (c *Client) Datasets(ctx context.Context) ([]DatasetInfo, error) {
	return do[[]DatasetInfo](ctx, c, http.MethodGet, "/v1/datasets", nil)
}

// Dataset fetches one dataset's info.
func (c *Client) Dataset(ctx context.Context, name string) (DatasetInfo, error) {
	return do[DatasetInfo](ctx, c, http.MethodGet, "/v1/datasets/"+url.PathEscape(name), nil)
}

// OpenSession opens a budgeted session and returns a handle for querying
// it. seed, when non-nil, asks for reproducible noise.
func (c *Client) OpenSession(ctx context.Context, dataset string, budget float64, seed *int64) (*SessionClient, error) {
	info, err := do[SessionInfo](ctx, c, http.MethodPost, "/v1/sessions",
		OpenSessionRequest{Dataset: dataset, Budget: budget, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &SessionClient{c: c, id: info.ID}, nil
}

// Session returns a handle to an existing session by id (e.g. one shared
// between multiple client processes).
func (c *Client) Session(id string) *SessionClient { return &SessionClient{c: c, id: id} }

// SessionClient queries one open session. It is safe for concurrent use;
// the server's budget accountants arbitrate racing charges. It inherits
// the parent client's token and timeout.
type SessionClient struct {
	c  *Client
	id string
}

// ID returns the server-assigned session id.
func (s *SessionClient) ID() string { return s.id }

// Info fetches the current budget state.
func (s *SessionClient) Info(ctx context.Context) (SessionInfo, error) {
	return do[SessionInfo](ctx, s.c, http.MethodGet, "/v1/sessions/"+url.PathEscape(s.id), nil)
}

// Close closes the session, returning its final state.
func (s *SessionClient) Close(ctx context.Context) (SessionInfo, error) {
	return do[SessionInfo](ctx, s.c, http.MethodDelete, "/v1/sessions/"+url.PathEscape(s.id), nil)
}

// Query sends a raw QueryRequest.
func (s *SessionClient) Query(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	w, err := do[wireResponse](ctx, s.c, http.MethodPost, "/v1/sessions/"+url.PathEscape(s.id)+"/query", req)
	return w.response(), err
}

// Histogram answers a real-valued histogram query.
func (s *SessionClient) Histogram(ctx context.Context, eps float64, where *PredicateSpec, dims ...DomainSpec) (QueryResponse, error) {
	return s.Query(ctx, QueryRequest{Kind: KindHistogram, Eps: eps, Where: where, Dims: dims})
}

// IntHistogram answers an integer-valued histogram query.
func (s *SessionClient) IntHistogram(ctx context.Context, eps float64, where *PredicateSpec, dims ...DomainSpec) (QueryResponse, error) {
	return s.Query(ctx, QueryRequest{Kind: KindIntHistogram, Eps: eps, Where: where, Dims: dims})
}

// Count answers a counting query; a nil predicate counts all records.
func (s *SessionClient) Count(ctx context.Context, eps float64, where *PredicateSpec) (float64, error) {
	resp, err := s.Query(ctx, QueryRequest{Kind: KindCount, Eps: eps, Where: where})
	if err != nil {
		return 0, err
	}
	return *resp.Value, nil
}

// Quantile answers the q-quantile of a numeric attribute.
func (s *SessionClient) Quantile(ctx context.Context, eps float64, attr string, q float64) (float64, error) {
	resp, err := s.Query(ctx, QueryRequest{Kind: KindQuantile, Eps: eps, Attr: attr, Q: q})
	if err != nil {
		return 0, err
	}
	return *resp.Value, nil
}

// Workload answers a batch of range-count queries from ONE fitted
// synopsis under a single composed ε charge. estimator is one of the
// Estimator* names ("" = flat); dims declare the synopsis domain (1 or
// 2 numeric lo/width/bins shapes); ranges are inclusive bin intervals
// into those domains. Answers come back in request order.
func (s *SessionClient) Workload(ctx context.Context, eps float64, estimator string, where *PredicateSpec, dims []DomainSpec, ranges []RangeSpec) (QueryResponse, error) {
	return s.Query(ctx, QueryRequest{
		Kind: KindWorkload, Eps: eps, Estimator: estimator,
		Where: where, Dims: dims, Ranges: ranges,
	})
}

// Sample draws an OsdpRR release of the dataset and parses it back into
// a table.
func (s *SessionClient) Sample(ctx context.Context, eps float64) (*dataset.Table, error) {
	resp, err := s.Query(ctx, QueryRequest{Kind: KindSample, Eps: eps})
	if err != nil {
		return nil, err
	}
	return dataset.ReadCSV(strings.NewReader(resp.SampleCSV))
}

// Admin methods: the client must carry the ADMIN token (WithToken), not
// an analyst key.

// CreateAnalyst mints an analyst principal; the returned Key is shown
// exactly once.
func (c *Client) CreateAnalyst(ctx context.Context, req CreateAnalystRequest) (AnalystCreated, error) {
	return do[AnalystCreated](ctx, c, http.MethodPost, "/admin/analysts", req)
}

// Analysts lists principals.
func (c *Client) Analysts(ctx context.Context) ([]ledger.AnalystInfo, error) {
	return do[[]ledger.AnalystInfo](ctx, c, http.MethodGet, "/admin/analysts", nil)
}

// SetAnalystDisabled disables (revokes) or re-enables an analyst.
func (c *Client) SetAnalystDisabled(ctx context.Context, id string, disabled bool) (ledger.AnalystInfo, error) {
	verb := "enable"
	if disabled {
		verb = "disable"
	}
	return do[ledger.AnalystInfo](ctx, c, http.MethodPost, "/admin/analysts/"+url.PathEscape(id)+"/"+verb, nil)
}

// SetBudget grants an (analyst, dataset) ε budget.
func (c *Client) SetBudget(ctx context.Context, req BudgetGrantRequest) (ledger.AccountInfo, error) {
	return do[ledger.AccountInfo](ctx, c, http.MethodPost, "/admin/budgets", req)
}

// Budgets lists every touched ledger account.
func (c *Client) Budgets(ctx context.Context) ([]ledger.AccountInfo, error) {
	return do[[]ledger.AccountInfo](ctx, c, http.MethodGet, "/admin/budgets", nil)
}

// Spend fetches the operator audit view of cumulative ε leakage.
func (c *Client) Spend(ctx context.Context) (SpendReport, error) {
	return do[SpendReport](ctx, c, http.MethodGet, "/admin/spend", nil)
}

// Limits fetches the admission-control defaults and per-analyst
// overrides (Enabled false when the server runs without admission).
func (c *Client) Limits(ctx context.Context) (LimitsResponse, error) {
	return do[LimitsResponse](ctx, c, http.MethodGet, "/admin/limits", nil)
}

// SetAnalystLimits installs one analyst's admission override (weight,
// rate, burst, concurrency, queue cap); zero fields inherit the server
// default, and an all-zero request clears the override.
func (c *Client) SetAnalystLimits(ctx context.Context, req AnalystLimits) (AnalystLimits, error) {
	return do[AnalystLimits](ctx, c, http.MethodPost, "/admin/limits", req)
}

// TraceQuery filters Traces.
type TraceQuery struct {
	// Kind keeps only traces of this query kind.
	Kind string
	// Analyst keeps only traces for this analyst ID.
	Analyst string
	// MinDuration keeps only traces at least this slow.
	MinDuration time.Duration
	// Limit caps the number of traces returned (0 = server default).
	Limit int
}

// Traces lists recent request traces from the server's ring buffers,
// newest first.
func (c *Client) Traces(ctx context.Context, q TraceQuery) ([]TraceInfo, error) {
	v := url.Values{}
	if q.Kind != "" {
		v.Set("kind", q.Kind)
	}
	if q.Analyst != "" {
		v.Set("analyst", q.Analyst)
	}
	if q.MinDuration > 0 {
		v.Set("min_duration", q.MinDuration.String())
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	path := "/admin/traces"
	if enc := v.Encode(); enc != "" {
		path += "?" + enc
	}
	return do[[]TraceInfo](ctx, c, http.MethodGet, path, nil)
}

// Trace fetches one retained trace by its request id.
func (c *Client) Trace(ctx context.Context, id string) (TraceInfo, error) {
	return do[TraceInfo](ctx, c, http.MethodGet, "/admin/traces/"+url.PathEscape(id), nil)
}

// AuditQuery filters AuditEvents.
type AuditQuery struct {
	// Analyst keeps only events for this analyst ID.
	Analyst string
	// Since keeps only events at or after this time.
	Since time.Time
	// Until keeps only events at or before this time.
	Until time.Time
	// Limit caps the number of events returned (0 = server default).
	Limit int
}

// AuditEvents fetches recent privacy-audit events (newest first) plus
// trail-level facts.
func (c *Client) AuditEvents(ctx context.Context, q AuditQuery) (AuditReport, error) {
	v := url.Values{}
	if q.Analyst != "" {
		v.Set("analyst", q.Analyst)
	}
	if !q.Since.IsZero() {
		v.Set("since", q.Since.Format(time.RFC3339))
	}
	if !q.Until.IsZero() {
		v.Set("until", q.Until.Format(time.RFC3339))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	path := "/admin/audit"
	if enc := v.Encode(); enc != "" {
		path += "?" + enc
	}
	return do[AuditReport](ctx, c, http.MethodGet, path, nil)
}

// do sends one JSON round trip and decodes the answer or the error body.
func do[T any](ctx context.Context, c *Client, method, path string, body any) (T, error) {
	var zero T
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return zero, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return zero, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if id := RequestID(ctx); id != "" {
		// Propagate a caller-chosen id (ContextWithRequestID) so the
		// server's trace, audit events, and logs carry it end to end.
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return zero, err
	}
	defer resp.Body.Close()
	requestID := resp.Header.Get("X-Request-Id")
	if c.ridHook != nil && requestID != "" {
		c.ridHook(method, path, requestID)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return zero, err
	}
	if len(raw) > maxResponseBytes {
		return zero, fmt.Errorf("server: %s %s response exceeds %d bytes", method, path, maxResponseBytes)
	}
	if resp.StatusCode >= 300 {
		apiErr := &APIError{
			Status:     resp.StatusCode,
			RequestID:  requestID,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
		var e ErrorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(raw))
		}
		return zero, apiErr
	}
	if err := json.Unmarshal(raw, &zero); err != nil {
		return zero, fmt.Errorf("server: decoding %s %s response: %w", method, path, err)
	}
	return zero, nil
}
