package kv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// Server is the HTTP face of a Store. Routes:
//
//	GET    /kv/{key...}   -> 200 + value bytes | 404
//	PUT    /kv/{key...}   -> 204 (body = value; ?ttl=GoDuration for expiry)
//	DELETE /kv/{key...}   -> 204 | 404
//	GET    /scan          -> JSON page {pairs, next, done} (?cursor=&limit=)
//	GET    /stats         -> JSON: heap txn stats, store counters, jobs, HTTP
//	GET    /healthz       -> 200 "ok"
//
// Every data route is one Store call and therefore one heap transaction; the
// response observes a single committed state (see DESIGN.md "KV engine").
type Server struct {
	store   *Store
	jobs    JobsConfig
	metrics Metrics
	handler http.Handler
	logf    func(format string, args ...any)

	// jobsStats reads the live pipeline's counters; set by Serve once the
	// pipeline exists, nil before (httptest servers never start one).
	jobsStats func() JobStats

	// admission/governor implement load shedding when configured with
	// WithAdmissionControl; nil means every request is admitted.
	admission *AdmissionConfig
	governor  *Governor

	// reqTimeout caps each data request's store operation via a context
	// deadline (WithRequestTimeout); 0 means requests run unbounded.
	reqTimeout time.Duration

	// ShutdownGrace bounds how long Serve waits for in-flight requests after
	// its context is cancelled. Defaults to 10s.
	ShutdownGrace time.Duration
}

// ServerOption mutates a Server at construction.
type ServerOption func(*Server)

// WithJobs overrides the background-maintenance pipeline configuration.
func WithJobs(cfg JobsConfig) ServerOption { return func(sv *Server) { sv.jobs = cfg } }

// WithAdmissionControl enables load shedding: requests the Governor refuses
// (pool saturation, abort storm) are answered 503 + Retry-After without
// touching the engine. See AdmissionConfig for the knobs.
func WithAdmissionControl(cfg AdmissionConfig) ServerOption {
	return func(sv *Server) { sv.admission = &cfg }
}

// WithRequestTimeout bounds every data request's store operation with a
// context deadline; operations that exceed it abandon between retry attempts
// and answer 503 + Retry-After (ErrDeadline).
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(sv *Server) { sv.reqTimeout = d }
}

// WithRequestLog enables per-request logging through logf. A nil logf prints
// one line per request to stdout with fmt.Printf — the server's operator
// stream, and what kvserver -log selects.
func WithRequestLog(logf func(format string, args ...any)) ServerOption {
	return func(sv *Server) {
		if logf == nil {
			sv.logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
		} else {
			sv.logf = logf
		}
	}
}

// NewServer wraps store in the HTTP API with recovery and metrics middleware
// (plus request logging if enabled).
func NewServer(store *Store, opts ...ServerOption) *Server {
	sv := &Server{store: store, ShutdownGrace: 10 * time.Second}
	for _, o := range opts {
		o(sv)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /kv/{key...}", sv.handleGet)
	mux.HandleFunc("PUT /kv/{key...}", sv.handlePut)
	mux.HandleFunc("POST /kv/{key...}", sv.handlePut) // curl-friendly alias
	mux.HandleFunc("DELETE /kv/{key...}", sv.handleDelete)
	mux.HandleFunc("GET /scan", sv.handleScan)
	mux.HandleFunc("GET /stats", sv.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mws := []Middleware{WithMetrics(&sv.metrics)}
	if sv.admission != nil {
		// Admission sits inside metrics so shed responses are counted like
		// any other 5xx, and outside logging/recovery — a shed request never
		// reaches a handler.
		sv.governor = NewGovernor(store, *sv.admission)
		mws = append(mws, WithAdmission(sv.governor, &sv.metrics))
	}
	if sv.logf != nil {
		mws = append(mws, WithLogging(sv.logf))
	}
	mws = append(mws, WithRecovery(&sv.metrics, sv.logf))
	sv.handler = Chain(mux, mws...)
	return sv
}

// Store returns the underlying engine.
func (sv *Server) Store() *Store { return sv.store }

// Metrics returns the server's HTTP counters.
func (sv *Server) Metrics() *Metrics { return &sv.metrics }

// ServeHTTP implements http.Handler (httptest and embedding).
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sv.handler.ServeHTTP(w, r)
}

// Serve runs the HTTP server on ln plus the background job pipeline until
// ctx is cancelled, then shuts down gracefully: stop accepting, wait out
// in-flight requests (bounded by ShutdownGrace), stop the pipeline, and wait
// for every worker to release its queue context. Returns nil on a clean
// shutdown — the exit-0 contract cmd/kvserver's tests assert.
func (sv *Server) Serve(ctx context.Context, ln net.Listener) error {
	jobsCtx, stopJobs := context.WithCancel(context.Background())
	jobs := StartJobs(jobsCtx, sv.store, sv.jobs)
	defer func() {
		stopJobs()
		jobs.Wait()
	}()
	sv.jobsStats = jobs.Stats // live pipeline counters for /stats

	hs := &http.Server{Handler: sv.handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), sv.ShutdownGrace)
	defer cancel()
	if err := hs.Shutdown(grace); err != nil {
		return fmt.Errorf("kv: shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Handlers are drained and the pipeline stops on return: seal the store's
	// durable state (flush the commit log, write the clean-shutdown marker).
	// Idempotent and a no-op without durability, so restarting Serve on a
	// purely in-memory store keeps working.
	if err := sv.store.Close(); err != nil {
		return fmt.Errorf("kv: close store: %w", err)
	}
	return nil
}

// opCtx derives the store-operation context for a request: the request's own
// context (cancelled when the client goes away) tightened by the configured
// per-request timeout.
func (sv *Server) opCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if sv.reqTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), sv.reqTimeout)
}

// opError maps a store error onto an HTTP response. ErrDeadline answers 503 +
// Retry-After — the operation was abandoned, nothing took effect, and the
// client should retry against a hopefully calmer server.
func (sv *Server) opError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDeadline):
		sv.metrics.DeadlineHits.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrFull):
		http.Error(w, err.Error(), http.StatusInsufficientStorage)
	case errors.Is(err, ErrDurability):
		// The mutation committed in memory but could not be made durable;
		// the client must treat it as failed.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func (sv *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := []byte(r.PathValue("key"))
	ctx, cancel := sv.opCtx(r)
	defer cancel()
	val, ok, err := sv.store.Get(ctx, key)
	if err != nil {
		sv.opError(w, err)
		return
	}
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(val)
}

func (sv *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key := []byte(r.PathValue("key"))
	val, err := io.ReadAll(io.LimitReader(r.Body, int64(sv.store.cfg.MaxValueBytes)+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var ttl time.Duration
	if v := r.URL.Query().Get("ttl"); v != "" {
		ttl, err = time.ParseDuration(v)
		if err != nil {
			http.Error(w, "bad ttl: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	ctx, cancel := sv.opCtx(r)
	defer cancel()
	if err := sv.store.Put(ctx, key, val, ttl); err != nil {
		sv.opError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (sv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := sv.opCtx(r)
	defer cancel()
	existed, err := sv.store.Delete(ctx, []byte(r.PathValue("key")))
	if err != nil {
		sv.opError(w, err)
		return
	}
	if !existed {
		http.NotFound(w, r)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// scanResponse is the JSON page shape of GET /scan. Keys and values are
// base64 (encoding/json's []byte encoding): they are arbitrary bytes.
type scanResponse struct {
	Pairs []Pair `json:"pairs"`
	Next  uint64 `json:"next"`
	Done  bool   `json:"done"`
}

func (sv *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var cursor uint64
	var err error
	if v := q.Get("cursor"); v != "" {
		cursor, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad cursor: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	limit := 64
	if v := q.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit <= 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
	}
	ctx, cancel := sv.opCtx(r)
	defer cancel()
	pairs, next, err := sv.store.Scan(ctx, cursor, limit)
	if err != nil {
		sv.opError(w, err)
		return
	}
	if pairs == nil {
		pairs = []Pair{}
	}
	writeJSON(w, scanResponse{Pairs: pairs, Next: next, Done: next >= sv.store.Slots()})
}

// statsResponse aggregates every observable layer of the service.
type statsResponse struct {
	Heap      map[string]any  `json:"heap"`
	Store     map[string]any  `json:"store"`
	Jobs      *JobStats       `json:"jobs,omitempty"`
	HTTP      MetricsSnapshot `json:"http"`
	Admission map[string]any  `json:"admission,omitempty"`
	Wal       map[string]any  `json:"wal,omitempty"`
}

func (sv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hs := sv.store.heap.Stats()
	aborts := make(map[string]uint64, len(hs.Aborts))
	for code, n := range hs.Aborts {
		aborts[code.String()] = n
	}
	oc := sv.store.OpCounters()
	resp := statsResponse{
		Heap: map[string]any{
			"starts":           hs.Starts,
			"commits":          hs.Commits,
			"aborts":           aborts,
			"abort_rate":       hs.AbortRate(),
			"fallback_runs":    hs.FallbackRuns,
			"fallback_locks":   hs.FallbackLocks,
			"fallback_retries": hs.FallbackRetries,
			"fallback_waits":   hs.FallbackWaits,
			"fallback_stalls":  hs.FallbackStalls,
			"spurious_aborts":  hs.SpuriousAborts(),
			"live_words":       hs.LiveWords,
			"max_live_words":   hs.MaxLiveWords,
		},
		Store: map[string]any{
			"slots":         sv.store.Slots(),
			"count":         sv.store.Len(),
			"tombstones":    sv.store.Tombstones(),
			"gets":          oc.Gets,
			"puts":          oc.Puts,
			"deletes":       oc.Deletes,
			"scans":         oc.Scans,
			"expired":       oc.Expired,
			"compacted":     oc.Compacted,
			"deadline_hits": oc.Deadlines,
			"in_flight":     sv.store.InFlight(),
		},
		HTTP: sv.metrics.Snapshot(),
	}
	if sv.governor != nil {
		resp.Admission = map[string]any{
			"sheds":      sv.governor.Sheds(),
			"storming":   sv.governor.Storming(),
			"storm_rate": stormRate,
		}
	}
	if ws, ok := sv.store.WalStats(); ok {
		resp.Wal = map[string]any{
			"appends":   ws.Appends,
			"batches":   ws.Batches,
			"syncs":     ws.Syncs,
			"rotations": ws.Rotations,
			"bytes":     ws.Bytes,
			"snapshots": sv.store.Snapshots(),
			"failures":  sv.store.DurabilityFailures(),
			"seq":       sv.store.Seq(),
			"recovery":  sv.store.Recovery(),
		}
	}
	if sv.jobsStats != nil {
		js := sv.jobsStats()
		resp.Jobs = &js
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
