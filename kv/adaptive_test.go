package kv

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/htm"
)

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

// TestGovernorTracksAbortMix drives the Tuner-client hook directly: the shed
// threshold must follow the workload's abort-mix average — tightening on a
// calm workload, loosening past the static default on a hot one — while idle
// epochs leave it alone.
func TestGovernorTracksAbortMix(t *testing.T) {
	s := NewStore(Config{Slots: 64})
	g := NewGovernor(s, AdmissionConfig{StormRate: 0.85})
	if got := g.StormRate(); got != 0.85 {
		t.Fatalf("initial StormRate = %v, want config value 0.85", got)
	}

	// A calm workload (2% aborts) converges the threshold to ~margin above
	// it — well below the static 0.85, so trouble is noticed sooner.
	for i := 0; i < 50; i++ {
		g.TrackAbortMix(htm.TunerEpoch{Starts: 1000, AbortRate: 0.02})
	}
	if got := g.StormRate(); got > 0.35 {
		t.Errorf("StormRate = %v after calm epochs, want tightened below 0.35", got)
	}

	// Idle epochs carry no evidence.
	before := g.StormRate()
	g.TrackAbortMix(htm.TunerEpoch{Starts: 0, AbortRate: 0})
	if got := g.StormRate(); got != before {
		t.Errorf("idle epoch moved StormRate %v -> %v", before, got)
	}

	// A permanently contended workload (90% aborts) pushes the threshold
	// above its own normal, up to the clamp — no permanent false storm.
	for i := 0; i < 50; i++ {
		g.TrackAbortMix(htm.TunerEpoch{Starts: 1000, AbortRate: 0.9})
	}
	if got := g.StormRate(); got < 0.9 {
		t.Errorf("StormRate = %v after hot epochs, want loosened above the workload's 0.9", got)
	}
	g.SetStormRate(5)
	if got := g.StormRate(); got != 0.99 {
		t.Errorf("SetStormRate(5) = %v, want clamped 0.99", got)
	}
}

// TestAdaptiveStoreLifecycle checks the Config.Adaptive plumb-through: the
// store owns a running Tuner, epochs tick against real traffic, and Close
// stops it (idempotently).
func TestAdaptiveStoreLifecycle(t *testing.T) {
	if NewStore(Config{Slots: 64}).Tuner() != nil {
		t.Fatal("store without Config.Adaptive grew a Tuner")
	}
	s := NewStore(Config{Slots: 64, Adaptive: &AdaptiveConfig{Interval: time.Millisecond}})
	tu := s.Tuner()
	if tu == nil {
		t.Fatal("adaptive store has no Tuner")
	}
	if err := s.Put(bg, []byte("k"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for tu.State().Epochs == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tu.State().Epochs == 0 {
		t.Error("tuner never ticked an epoch")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestStatsAdaptiveSection checks the /stats surface: an adaptive store
// reports the tuner block (and the admission block its live storm_rate); a
// store without a Tuner omits it.
func TestStatsAdaptiveSection(t *testing.T) {
	store := NewStore(Config{Slots: 256, Adaptive: &AdaptiveConfig{Pinned: true}})
	defer store.Close()
	sv := NewServer(store, WithAdmissionControl(AdmissionConfig{}))
	ts := httptest.NewServer(sv)
	defer ts.Close()

	resp, body := doReq(t, http.MethodGet, ts.URL+"/stats", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("/stats = %d", resp.StatusCode)
	}
	var st struct {
		Adaptive  map[string]any `json:"adaptive"`
		Admission map[string]any `json:"admission"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Adaptive == nil {
		t.Fatal("adaptive store /stats missing adaptive section")
	}
	if st.Adaptive["mode"] != "fine" {
		t.Errorf("adaptive.mode = %v, want fine", st.Adaptive["mode"])
	}
	if st.Adaptive["pinned"] != true {
		t.Errorf("adaptive.pinned = %v, want true", st.Adaptive["pinned"])
	}
	for _, k := range []string{"mode_switches", "epochs"} {
		if _, ok := st.Adaptive[k]; !ok {
			t.Errorf("adaptive section missing %q", k)
		}
	}
	if _, ok := st.Admission["storm_rate"]; !ok {
		t.Error("admission section missing storm_rate")
	}

	// No Tuner: no adaptive block.
	sv2 := NewServer(NewStore(Config{Slots: 64}))
	ts2 := httptest.NewServer(sv2)
	defer ts2.Close()
	resp2, body2 := doReq(t, http.MethodGet, ts2.URL+"/stats", nil)
	if resp2.StatusCode != 200 {
		t.Fatalf("/stats = %d", resp2.StatusCode)
	}
	var st2 struct {
		Adaptive map[string]any `json:"adaptive"`
	}
	if err := json.Unmarshal(body2, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Adaptive != nil {
		t.Error("/stats of a store without a Tuner grew an adaptive section")
	}
}
