package kv

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/htm"
)

// Admission control: under injected (or real) adversity the engine's retry
// loops burn attempts instead of committing, and every queued request makes
// the storm worse. Shedding excess requests at the door — 503 + Retry-After,
// before they touch the engine — keeps the latency of ADMITTED requests
// bounded, which is the graceful-degradation property the chaos harness
// measures. Two signals gate admission:
//
//   - Saturation: every pooled execution context is checked out. One more
//     request would only queue behind the pool; its deadline is better spent
//     by the client retrying later.
//   - Abort storm: the heap-wide rate of conflict + spurious aborts over the
//     last sampling window exceeds AdmissionConfig.StormRate. A storm means
//     attempts are being killed faster than they commit; admitting more
//     traffic adds fuel.

// AdmissionConfig tunes the Governor. The zero value selects the defaults.
type AdmissionConfig struct {
	// Window is the abort-rate sampling cadence. Default 100ms.
	Window time.Duration
	// StormRate is the windowed (conflict+spurious)/starts ratio at or above
	// which requests are shed. Default 0.85.
	StormRate float64
	// MinStarts is the minimum transaction attempts a window must contain for
	// its rate to be meaningful; quieter windows clear the storm flag.
	// Default 64.
	MinStarts uint64
	// RetryAfter is the Retry-After header value, in seconds, on shed
	// responses. Default 1.
	RetryAfter int
	// Now overrides the sampling clock (unix nanoseconds); tests. Defaults to
	// time.Now-based.
	Now func() int64
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Window <= 0 {
		c.Window = 100 * time.Millisecond
	}
	if c.StormRate <= 0 {
		c.StormRate = 0.85
	}
	if c.MinStarts == 0 {
		c.MinStarts = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 1
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
	return c
}

// Governor decides request admission for a Store. It is safe for concurrent
// use; the abort-rate sample is time-gated by a CAS so at most one request
// per window pays for the stats snapshot.
type Governor struct {
	store *Store
	cfg   AdmissionConfig

	nextSample atomic.Int64
	lastStarts atomic.Uint64
	lastAborts atomic.Uint64
	storm      atomic.Bool
	sheds      atomic.Uint64
	retrySeq   atomic.Uint64 // steps the Retry-After jitter
}

// NewGovernor builds a Governor over s.
func NewGovernor(s *Store, cfg AdmissionConfig) *Governor {
	return &Governor{store: s, cfg: cfg.withDefaults()}
}

// Allow reports whether a new request should be admitted.
func (g *Governor) Allow() bool {
	g.maybeSample()
	if g.store.InFlight() >= g.store.PoolSize() {
		g.sheds.Add(1)
		return false
	}
	if g.storm.Load() {
		g.sheds.Add(1)
		return false
	}
	return true
}

// RetryAfterSeconds is the backoff hint attached to shed responses: jittered
// per call over [RetryAfter, 2·RetryAfter] so that a thundering herd shed in
// one window does not return in lockstep and re-trigger the shed that sent it
// away. The jitter is a counter sweep, not a PRNG — adjacent shed responses
// get different hints deterministically, which keeps chaos-harness runs
// reproducible.
func (g *Governor) RetryAfterSeconds() int {
	base := g.cfg.RetryAfter
	return base + int(g.retrySeq.Add(1)%uint64(base+1))
}

// Sheds returns the cumulative count of refused admissions.
func (g *Governor) Sheds() uint64 { return g.sheds.Load() }

// Storming reports the current abort-storm flag (diagnostics, /stats).
func (g *Governor) Storming() bool {
	g.maybeSample()
	return g.storm.Load()
}

// maybeSample refreshes the windowed abort rate if the window has elapsed.
// The CAS elects one sampler; losers use the flag as-is.
func (g *Governor) maybeSample() {
	now := g.cfg.Now()
	next := g.nextSample.Load()
	if now < next || !g.nextSample.CompareAndSwap(next, now+int64(g.cfg.Window)) {
		return
	}
	st := g.store.Heap().Stats()
	aborts := st.Aborts[htm.AbortConflict] + st.Aborts[htm.AbortSpurious]
	ds := st.Starts - g.lastStarts.Swap(st.Starts)
	da := aborts - g.lastAborts.Swap(aborts)
	g.storm.Store(ds >= g.cfg.MinStarts && float64(da) >= g.cfg.StormRate*float64(ds))
}

// WithAdmission sheds requests the governor refuses with 503 + Retry-After.
// Health and stats stay exempt: an operator diagnosing an overloaded server
// needs exactly those two endpoints to keep answering. The Retry-After value
// is computed per response — it jitters (see RetryAfterSeconds).
func WithAdmission(g *Governor, m *Metrics) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/healthz", "/stats":
				next.ServeHTTP(w, r)
				return
			}
			if !g.Allow() {
				if m != nil {
					m.Sheds.Add(1)
				}
				w.Header().Set("Retry-After", strconv.Itoa(g.RetryAfterSeconds()))
				http.Error(w, "overloaded: retry later", http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
