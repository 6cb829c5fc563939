package kv

import (
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// HTTP middleware for the KV service: small, composable wrappers in the
// usual func(http.Handler) http.Handler shape. The server chains
// metrics → logging → recovery → mux, outermost first: recovery sits
// innermost so the 503 it writes for a panicking handler flows back out
// through logging and metrics and is counted like any other response.

// Middleware wraps an http.Handler.
type Middleware func(http.Handler) http.Handler

// Chain composes middlewares outermost-first around h.
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// statusRecorder captures the response status for metrics and logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Metrics holds the server-level request counters surfaced by /stats. All
// fields are cumulative; latency is recorded as a running sum so the stats
// endpoint can report a true mean without histogram machinery (percentiles
// are the client's to measure — bench/ does).
type Metrics struct {
	Requests     atomic.Uint64
	Errors4xx    atomic.Uint64
	Errors5xx    atomic.Uint64
	Panics       atomic.Uint64
	BytesWritten atomic.Uint64
	LatencyNs    atomic.Uint64
	// Sheds counts requests rejected by admission control (503 + Retry-After)
	// before reaching the engine; DeadlineHits counts admitted requests whose
	// store operation was abandoned with ErrDeadline.
	Sheds        atomic.Uint64
	DeadlineHits atomic.Uint64
}

// MetricsSnapshot is the JSON form of Metrics.
type MetricsSnapshot struct {
	Requests      uint64  `json:"requests"`
	Errors4xx     uint64  `json:"errors_4xx"`
	Errors5xx     uint64  `json:"errors_5xx"`
	Panics        uint64  `json:"panics"`
	BytesWritten  uint64  `json:"bytes_written"`
	MeanLatencyUs float64 `json:"mean_latency_us"`
	Sheds         uint64  `json:"sheds"`
	DeadlineHits  uint64  `json:"deadline_hits"`
}

// Snapshot returns a point-in-time copy.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Requests:     m.Requests.Load(),
		Errors4xx:    m.Errors4xx.Load(),
		Errors5xx:    m.Errors5xx.Load(),
		Panics:       m.Panics.Load(),
		BytesWritten: m.BytesWritten.Load(),
		Sheds:        m.Sheds.Load(),
		DeadlineHits: m.DeadlineHits.Load(),
	}
	if s.Requests > 0 {
		s.MeanLatencyUs = float64(m.LatencyNs.Load()) / float64(s.Requests) / 1e3
	}
	return s
}

// WithMetrics counts requests, errors, bytes and latency into m.
func WithMetrics(m *Metrics) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := &statusRecorder{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(rec, r)
			m.Requests.Add(1)
			m.LatencyNs.Add(uint64(time.Since(start)))
			m.BytesWritten.Add(uint64(rec.bytes))
			switch {
			case rec.status >= 500:
				m.Errors5xx.Add(1)
			case rec.status >= 400:
				m.Errors4xx.Add(1)
			}
		})
	}
}

// WithRecovery converts handler panics into 503s. On this engine the panic
// that matters is heap-arena exhaustion (htm's allocator panics rather than
// returning nil, mirroring a real allocator's abort-on-OOM); the store's
// pooled thread is returned by Store.withThread's defer, so the service
// keeps running — reads and deletes still succeed, and deletes free space.
func WithRecovery(m *Metrics, logf func(format string, args ...any)) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if rec := recover(); rec != nil {
					if m != nil {
						m.Panics.Add(1)
					}
					if logf != nil {
						logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
					}
					http.Error(w, "service unavailable", http.StatusServiceUnavailable)
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// WithLogging emits one line per request; nil logf selects log.Printf.
func WithLogging(logf func(format string, args ...any)) Middleware {
	if logf == nil {
		logf = log.Printf
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := &statusRecorder{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(rec, r)
			logf("%s %s -> %d (%dB, %s)", r.Method, r.URL.Path, rec.status, rec.bytes, time.Since(start).Round(time.Microsecond))
		})
	}
}
