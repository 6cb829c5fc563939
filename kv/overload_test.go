package kv

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/htm"
)

// TestDeadlineAlreadyExpired hits the earliest abandon point: a dead context
// never reaches the engine, and the typed error surfaces from every op.
func TestDeadlineAlreadyExpired(t *testing.T) {
	s := NewStore(Config{Slots: 64, PoolThreads: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Put(ctx, []byte("k"), []byte("v"), 0); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Put on dead ctx = %v, want ErrDeadline", err)
	}
	if _, _, err := s.Get(ctx, []byte("k")); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Get on dead ctx = %v, want ErrDeadline", err)
	}
	if _, err := s.Delete(ctx, []byte("k")); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Delete on dead ctx = %v, want ErrDeadline", err)
	}
	if _, _, err := s.Scan(ctx, 0, 8); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Scan on dead ctx = %v, want ErrDeadline", err)
	}
	if got := s.DeadlineHits(); got != 4 {
		t.Errorf("DeadlineHits = %d, want 4", got)
	}
	// The abandoned ops must not have taken effect or leaked pool contexts.
	if _, ok, _ := s.Get(bg, []byte("k")); ok {
		t.Error("abandoned Put took effect")
	}
	if s.InFlight() != 0 {
		t.Errorf("InFlight = %d after quiescence", s.InFlight())
	}
}

// TestDeadlineMidRetry abandons between retry attempts: unconditional fault
// injection with no TLE escape hatch would retry forever, so only the
// context's expiry lets the operation return — with ErrDeadline, uncommitted.
func TestDeadlineMidRetry(t *testing.T) {
	s := NewStore(Config{
		Slots:       64,
		PoolThreads: 1,
		MaxRetries:  1 << 30,                               // fallback out of reach: only the deadline ends the loop
		Faults:      &htm.FaultPlan{Seed: 1, BeginProb: 1}, // kill every hardware attempt
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := s.Put(ctx, []byte("k"), []byte("v"), 0)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Put under 100%% injection = %v, want ErrDeadline", err)
	}
	// Verification must not run a transaction — on this store NO transaction
	// can ever commit (that is the point of the configuration) — so read the
	// directory count and heap accounting non-transactionally: the store is
	// quiescent now.
	if n := s.Heap().LoadNT(s.dir + dirCount); n != 0 {
		t.Errorf("abandoned Put published an entry (count=%d)", n)
	}
	// The staged entry block must have been reclaimed (no heap leak).
	if live := s.Heap().Stats().LiveWords; live != s.heapBaseline() {
		t.Errorf("LiveWords = %d after abandon, want baseline %d", live, s.heapBaseline())
	}
}

// heapBaseline is the live-word footprint of an empty store: index + directory.
func (s *Store) heapBaseline() uint64 {
	return uint64(s.cfg.Slots + dirWords)
}

// TestGovernorStormDetection drives the sampling window with a fake clock and
// real injected abort traffic.
func TestGovernorStormDetection(t *testing.T) {
	s := NewStore(Config{
		Slots:       64,
		PoolThreads: 2,
		Faults:      &htm.FaultPlan{Seed: 3, BeginProb: 1, MaxPerOp: 200}, // ~200 spurious aborts per op
	})
	var now atomic.Int64
	g := NewGovernor(s, AdmissionConfig{
		Window:    time.Millisecond,
		StormRate: 0.5,
		MinStarts: 10,
		Now:       now.Load,
	})
	if !g.Allow() {
		t.Fatal("fresh governor must admit")
	}
	// Generate a storm: each op burns ~200 killed attempts before committing.
	for i := 0; i < 5; i++ {
		if err := s.Put(bg, []byte{byte(i)}, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	now.Add(int64(2 * time.Millisecond)) // roll the window: next Allow samples
	if g.Allow() {
		t.Fatal("governor admitted during an abort storm")
	}
	if g.Sheds() == 0 {
		t.Error("refused admission not counted")
	}
	// Quiet window: no new attempts → rate resets → admission resumes.
	now.Add(int64(2 * time.Millisecond))
	if !g.Allow() {
		t.Fatal("governor still shedding after the storm passed")
	}
}

// TestGovernorSaturation checks the pool-occupancy signal directly.
func TestGovernorSaturation(t *testing.T) {
	s := NewStore(Config{Slots: 64, PoolThreads: 1})
	g := NewGovernor(s, AdmissionConfig{})
	release := make(chan struct{})
	started := make(chan struct{})
	go s.withThread(func(th *htm.Thread) { close(started); <-release })
	<-started
	if g.Allow() {
		t.Error("governor admitted at pool saturation")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("pool context never released")
		}
		time.Sleep(time.Millisecond)
	}
	if !g.Allow() {
		t.Error("governor still shedding after the pool drained")
	}
}

// TestAdmissionMiddleware checks the HTTP contract: shed requests answer 503
// with Retry-After and count into Metrics.Sheds, while /healthz and /stats
// stay reachable.
func TestAdmissionMiddleware(t *testing.T) {
	store := NewStore(Config{Slots: 256})
	var now atomic.Int64
	sv := NewServer(store, WithAdmissionControl(AdmissionConfig{Now: now.Load}))
	ts := httptest.NewServer(sv)
	defer ts.Close()

	// Normal operation admits.
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/kv/a", []byte("1")); resp.StatusCode != 204 {
		t.Fatalf("PUT while healthy: %d", resp.StatusCode)
	}
	// Force the storm flag directly: the governor's signal sources have their
	// own tests; here only the middleware contract is at stake.
	sv.governor.storm.Store(true)
	sv.governor.nextSample.Store(1 << 62) // freeze sampling
	resp, _ := doReq(t, http.MethodPut, ts.URL+"/kv/b", []byte("2"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT under storm = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != 200 {
		t.Errorf("/healthz shed: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/stats", nil); resp.StatusCode != 200 {
		t.Errorf("/stats shed: %d", resp.StatusCode)
	}
	if sv.Metrics().Sheds.Load() == 0 {
		t.Error("shed not counted into Metrics.Sheds")
	}
}

// TestRequestTimeoutMapsToRetryAfter drives a full HTTP request into an
// engine that cannot commit in time and checks the 503 + Retry-After mapping
// plus the deadline_hits counter.
func TestRequestTimeoutMapsToRetryAfter(t *testing.T) {
	store := NewStore(Config{
		Slots:      64,
		Faults:     &htm.FaultPlan{Seed: 5, BeginProb: 1},
		MaxRetries: 1 << 30, // fallback out of reach: only the deadline ends the loop
	})
	sv := NewServer(store, WithRequestTimeout(5*time.Millisecond))
	ts := httptest.NewServer(sv)
	defer ts.Close()
	resp, _ := doReq(t, http.MethodPut, ts.URL+"/kv/slow", []byte("v"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT past timeout = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("deadline response missing Retry-After")
	}
	if sv.Metrics().DeadlineHits.Load() == 0 {
		t.Error("deadline not counted into Metrics.DeadlineHits")
	}
}

// TestRetryAfterJitter checks the shed backoff hint spreads over
// [RetryAfter, 2·RetryAfter] instead of herding every client to the same
// second.
func TestRetryAfterJitter(t *testing.T) {
	s := NewStore(Config{Slots: 64})
	g := NewGovernor(s, AdmissionConfig{RetryAfter: 3})
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		v := g.RetryAfterSeconds()
		if v < 3 || v > 6 {
			t.Fatalf("RetryAfterSeconds = %d, want within [3, 6]", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("no jitter: every hint was the same value %v", seen)
	}
}
