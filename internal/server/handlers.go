package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"osdp/internal/telemetry"
)

// maxBodyBytes bounds request bodies (datasets travel inline as CSV, so
// this is generous but finite).
const maxBodyBytes = 64 << 20

// Handler returns the HTTP API:
//
//	GET    /healthz                 liveness (also GET /v1/healthz)
//	GET    /stats                   -> StatsResponse (coarse aggregates)
//	GET    /metrics                 Prometheus text exposition (empty without Config.Telemetry)
//	POST   /v1/datasets             RegisterDatasetRequest  -> DatasetInfo
//	GET    /v1/datasets             -> []DatasetInfo
//	GET    /v1/datasets/{name}      -> DatasetInfo
//	POST   /v1/sessions             OpenSessionRequest      -> SessionInfo
//	GET    /v1/sessions/{id}        -> SessionInfo
//	DELETE /v1/sessions/{id}        -> SessionInfo (final state)
//	POST   /v1/sessions/{id}/query  QueryRequest            -> QueryResponse
//
// plus the /admin control plane (see adminRoutes), which also mounts
// net/http/pprof under /admin/pprof/. With Config.Ledger set, every /v1
// route requires an analyst bearer key; /healthz, /stats, and /metrics
// stay open. The whole mux is wrapped by the observability middleware
// (see instrument) when telemetry or access logging is configured.
//
// Errors are JSON ErrorResponse bodies with a meaningful status: 400 for
// malformed requests, 401/403 for missing/forbidden credentials, 402
// when the ε budget (session or ledger) is exhausted, 404 for unknown
// ids, 409 for conflicts and empty quantile samples, 429 at a session
// cap.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	healthz := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "sessions": s.SessionCount()})
	}
	mux.HandleFunc("GET /healthz", healthz)
	mux.HandleFunc("GET /v1/healthz", healthz) // legacy path
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", s.metricsHandler)
	mux.HandleFunc("POST /v1/datasets", s.withAnalyst(func(w http.ResponseWriter, r *http.Request, _ string) {
		var req RegisterDatasetRequest
		if !readJSON(w, r, &req) {
			return
		}
		respond(w, http.StatusCreated)(s.RegisterDataset(req))
	}))
	mux.HandleFunc("GET /v1/datasets", s.withAnalyst(func(w http.ResponseWriter, r *http.Request, _ string) {
		writeJSON(w, http.StatusOK, s.Datasets())
	}))
	mux.HandleFunc("GET /v1/datasets/{name}", s.withAnalyst(func(w http.ResponseWriter, r *http.Request, _ string) {
		respond(w, http.StatusOK)(s.DatasetInfo(r.PathValue("name")))
	}))
	mux.HandleFunc("POST /v1/sessions", s.withAnalyst(func(w http.ResponseWriter, r *http.Request, analyst string) {
		var req OpenSessionRequest
		if !readJSON(w, r, &req) {
			return
		}
		respond(w, http.StatusCreated)(s.OpenSession(analyst, req))
	}))
	mux.HandleFunc("GET /v1/sessions/{id}", s.withAnalyst(func(w http.ResponseWriter, r *http.Request, analyst string) {
		respond(w, http.StatusOK)(s.SessionInfo(analyst, r.PathValue("id")))
	}))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.withAnalyst(func(w http.ResponseWriter, r *http.Request, analyst string) {
		respond(w, http.StatusOK)(s.CloseSession(analyst, r.PathValue("id")))
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/query", s.withAnalyst(func(w http.ResponseWriter, r *http.Request, analyst string) {
		var req QueryRequest
		if !readJSON(w, r, &req) {
			return
		}
		resp, err := s.QueryContext(r.Context(), analyst, r.PathValue("id"), req)
		if err != nil {
			writeErr(w, err)
			return
		}
		// Response encode is the last traced phase: large histogram or
		// sample payloads can dominate a fast query's wall time.
		sp := telemetry.TraceFrom(r.Context()).StartSpan("encode")
		writeJSON(w, http.StatusOK, toWire(resp))
		sp.End()
	}))
	s.adminRoutes(mux)
	return s.instrument(mux)
}

// respond curries the success status so handlers can pass a (value,
// error) pair straight through.
func respond(w http.ResponseWriter, ok int) func(any, error) {
	return func(v any, err error) {
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, ok, v)
	}
}

func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeErr(w, badf("reading body: %v", err))
		return false
	}
	if len(body) > maxBodyBytes {
		writeErr(w, badf("body exceeds %d bytes", maxBodyBytes))
		return false
	}
	if err := json.Unmarshal(body, dst); err != nil {
		writeErr(w, fmt.Errorf("%w: decoding JSON: %v", ErrBadRequest, err))
		return false
	}
	return true
}

func writeErr(w http.ResponseWriter, err error) {
	// Admission rejections advertise their pause: ceil to whole seconds
	// (the header's only portable form), floor at 1 so "Retry-After: 0"
	// never invites an immediate hammer.
	var ra retryAfterer
	if errors.As(err, &ra) {
		secs := int64(math.Ceil(ra.RetryAfter().Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, statusOf(err), ErrorResponse{Error: err.Error()})
}

// writeJSON writes v as one line of JSON. A json.Encoder marshals the
// whole value before its single Write, and the status goes out with that
// Write, so an encoding failure (e.g. a NaN float) becomes a clean 500
// instead of a success status with a truncated body; a large sample is
// written from the encoder's buffer rather than copied out of it first.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	hw := &headerOnWrite{w: w, status: status}
	if err := json.NewEncoder(hw).Encode(v); err != nil && !hw.wrote {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"server: encoding response failed"}` + "\n"))
	}
}

// headerOnWrite sends status just before the first Write.
type headerOnWrite struct {
	w      http.ResponseWriter
	status int
	wrote  bool
}

func (h *headerOnWrite) Write(p []byte) (int, error) {
	if !h.wrote {
		h.w.WriteHeader(h.status)
		h.wrote = true
	}
	return h.w.Write(p)
}
