package htm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTLEHeap builds a TLE heap that overflows quickly, so fallback traffic is
// easy to provoke.
func newTLEHeap(t testing.TB, cfg Config) *Heap {
	t.Helper()
	cfg.EnableTLE = true
	if cfg.StoreBufferSize == 0 {
		cfg.StoreBufferSize = 2
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	return newTestHeap(t, cfg)
}

// TestRuntimeControlsRequireTLE: the mode/spins setters and the Tuner work on
// any TLE heap and panic exactly when there is no fallback for them to act on.
func TestRuntimeControlsRequireTLE(t *testing.T) {
	for _, tle := range []bool{false, true} {
		h := newTestHeap(t, Config{EnableTLE: tle})
		for name, f := range map[string]func(){
			"SetFallbackMode":  func() { h.SetFallbackMode(ModeGlobal) },
			"SetFallbackSpins": func() { h.SetFallbackSpins(7) },
			"NewTuner":         func() { h.NewTuner(TunerConfig{}) },
			"StartTuner":       func() { h.StartTuner(TunerConfig{}).Stop() },
		} {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				f()
				return
			}()
			if panicked == tle {
				t.Errorf("EnableTLE=%v: %s panicked = %v", tle, name, panicked)
			}
		}
	}
}

func TestFallbackSpinsOverride(t *testing.T) {
	h := newTLEHeap(t, Config{})
	if got := h.FallbackSpins(); got != defaultFallbackSpins {
		t.Errorf("initial FallbackSpins = %d, want default %d", got, defaultFallbackSpins)
	}
	h.SetFallbackSpins(-5)
	if got := h.FallbackSpins(); got != 0 {
		t.Errorf("SetFallbackSpins(-5) → %d, want clamped 0", got)
	}
	h.SetFallbackSpins(999)
	if got := h.FallbackSpins(); got != 999 {
		t.Errorf("FallbackSpins = %d, want 999", got)
	}

	// A fine-grained fallback attempt picks the live value up as it starts.
	th := h.NewThread()
	a := th.Alloc(4)
	th.Atomic(func(tx *Txn) {
		for i := Addr(0); i < 4; i++ {
			tx.Store(a+i, 1) // overflows the 2-entry buffer
		}
	})
	if got := th.txn.fbSpins; got != 999 {
		t.Errorf("fallback attempt ran with fbSpins = %d, want the override 999", got)
	}
}

func TestAdaptiveModeSwitchVisibleAndCounted(t *testing.T) {
	h := newTLEHeap(t, Config{})
	if h.FallbackMode() != ModeFine {
		t.Fatalf("initial mode = %v, want fine", h.FallbackMode())
	}
	h.SetFallbackMode(ModeGlobal)
	h.SetFallbackMode(ModeGlobal) // same mode: not a switch
	h.SetFallbackMode(ModeFine)
	if got := h.ModeSwitches(); got != 2 {
		t.Errorf("ModeSwitches = %d, want 2", got)
	}
	if got := h.Stats().ModeSwitches; got != 2 {
		t.Errorf("Stats().ModeSwitches = %d, want 2", got)
	}
	hg := newTLEHeap(t, Config{GlobalFallback: true})
	if hg.FallbackMode() != ModeGlobal {
		t.Errorf("GlobalFallback seeds the initial mode: got %v", hg.FallbackMode())
	}
}

// TestAdaptiveFallbackBothModes runs the overflow workload after switching
// the runtime mode to each setting: both paths must preserve the multi-word
// invariant and count fallback runs.
func TestAdaptiveFallbackBothModes(t *testing.T) {
	for _, mode := range []FallbackMode{ModeFine, ModeGlobal} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newTLEHeap(t, Config{})
			h.SetFallbackMode(mode)
			th := h.NewThread()
			a := th.Alloc(8)
			th.Atomic(func(tx *Txn) {
				for i := Addr(0); i < 8; i++ {
					tx.Store(a+i, uint64(i)+1)
				}
			})
			for i := Addr(0); i < 8; i++ {
				if v := h.LoadNT(a + i); v != uint64(i)+1 {
					t.Errorf("word %d = %d, want %d", i, v, i+1)
				}
			}
			s := h.Stats()
			if s.FallbackRuns == 0 {
				t.Error("fallback was not engaged")
			}
			if mode == ModeGlobal && s.FallbackLocks != 0 {
				t.Errorf("global mode acquired %d per-word locks", s.FallbackLocks)
			}
			if mode == ModeFine && s.FallbackLocks == 0 {
				t.Error("fine mode acquired no per-word locks")
			}
		})
	}
}

// TestAdaptiveModeFlipStress is the acceptance stress: flip the fallback mode
// continuously under concurrent transactional + fallback load (run with
// -race). Writers maintain a multi-word invariant on a SHARED block through
// deliberately overflowing transactions — every attempt takes some fallback
// path, whichever mode is live — while readers verify the invariant and a
// dedicated goroutine toggles fine↔global. Afterwards the heap must be
// exactly quiescent: clean SweepMeta, even fallback sequence, flags drained.
func TestAdaptiveModeFlipStress(t *testing.T) {
	h := newTLEHeap(t, Config{MaxRetries: 1})
	setup := h.NewThread()
	shared := setup.Alloc(4)

	const (
		writers = 4
		readers = 2
		iters   = 400
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Mode flipper: as fast as the scheduler allows.
	flip := make(chan struct{})
	go func() {
		defer close(flip)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				h.SetFallbackMode(ModeGlobal)
			} else {
				h.SetFallbackMode(ModeFine)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var total atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := h.NewThread()
			for i := 0; i < iters; i++ {
				v := seed*uint64(iters) + uint64(i)
				th.Atomic(func(tx *Txn) {
					// 4 distinct stores overflow the 2-entry buffer: the body
					// completes only on a fallback path.
					for k := Addr(0); k < 4; k++ {
						tx.Store(shared+k, v)
					}
				})
				total.Add(1)
			}
		}(uint64(w) + 1)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			for i := 0; i < iters; i++ {
				var vals [4]uint64
				th.Atomic(func(tx *Txn) {
					for k := Addr(0); k < 4; k++ {
						vals[k] = tx.Load(shared + k)
					}
				})
				for k := 1; k < 4; k++ {
					if vals[k] != vals[0] {
						t.Errorf("torn read: %v", vals)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-flip

	if got := total.Load(); got != writers*iters {
		t.Errorf("completed %d writes, want %d", got, writers*iters)
	}
	var final [4]uint64
	for k := Addr(0); k < 4; k++ {
		final[k] = h.LoadNT(shared + k)
	}
	for k := 1; k < 4; k++ {
		if final[k] != final[0] {
			t.Errorf("final state torn: %v", final)
		}
	}
	s := h.Stats()
	if s.FallbackRuns == 0 {
		t.Error("stress never engaged the fallback")
	}
	if h.ModeSwitches() == 0 {
		t.Error("stress never switched modes")
	}
	requireQuiescent(t, h)
}

// Synthetic epoch helpers for driving the decision logic deterministically.
func stormEpoch() TunerEpoch {
	return TunerEpoch{FallbackRuns: 100, FallbackWaits: 150, FallbackRetries: 100, RetryRatio: 1.0, ContentionRatio: 2.5}
}
func busyCalmEpoch() TunerEpoch {
	return TunerEpoch{FallbackRuns: 100, FallbackWaits: 1, RetryRatio: 0, ContentionRatio: 0.01}
}
func idleEpoch() TunerEpoch { return TunerEpoch{} }

func TestTunerModeController(t *testing.T) {
	h := newTLEHeap(t, Config{})
	tu := h.NewTuner(TunerConfig{SwitchAfter: 2, ProbeEvery: 3, MinFallbackRuns: 10})

	// Hysteresis: one storm epoch is not enough.
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeFine {
		t.Fatal("switched to global after a single storm epoch")
	}
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("two storm epochs did not switch to global")
	}

	// An interrupted streak resets.
	h.SetFallbackMode(ModeFine)
	tu.stormStreak = 0
	tu.decide(stormEpoch())
	tu.decide(busyCalmEpoch())
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeFine {
		t.Fatal("interrupted storm streak still switched modes")
	}
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("rebuilt storm streak did not switch")
	}

	// Busy global epochs eventually probe fine again (ProbeEvery=3).
	tu.decide(busyCalmEpoch())
	tu.decide(busyCalmEpoch())
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("probed before ProbeEvery busy epochs")
	}
	tu.decide(busyCalmEpoch())
	if h.FallbackMode() != ModeFine {
		t.Fatal("ProbeEvery busy global epochs did not probe fine")
	}

	// Calm traffic returns a global heap to fine without waiting for a probe.
	h.SetFallbackMode(ModeGlobal)
	tu.stormStreak, tu.calmStreak, tu.globalEpochs = 0, 0, 0
	tu.decide(idleEpoch())
	tu.decide(idleEpoch())
	if h.FallbackMode() != ModeFine {
		t.Fatal("idle epochs did not return the heap to fine mode")
	}
}

// TestTunerLivelockEpochIsStorm: an epoch of pure collisions with ZERO
// completed runs is the severest storm (a retry livelock) — the evidence gate
// must count collisions, not just completions, the ratio must not read as
// vacuously calm, and a catastrophic ratio must switch WITHOUT waiting out
// SwitchAfter hysteresis (every deliberation epoch is a livelocked epoch).
func TestTunerLivelockEpochIsStorm(t *testing.T) {
	h := newTLEHeap(t, Config{})
	tu := h.NewTuner(TunerConfig{SwitchAfter: 2, MinFallbackRuns: 10})
	livelock := TunerEpoch{FallbackRuns: 0, FallbackWaits: 300, FallbackRetries: 200, ContentionRatio: 500}
	tu.decide(livelock)
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("zero-completion collision storm did not switch the mode to global in one epoch")
	}
}

// TestTunerProbeRefutedInOneEpoch: a probe out of global mode is a hypothesis
// test — one storm epoch refutes it and must re-switch immediately, not after
// SwitchAfter more livelocked epochs. A probe that survives a calm epoch
// sheds the fast-refute state and gets full hysteresis again.
func TestTunerProbeRefutedInOneEpoch(t *testing.T) {
	h := newTLEHeap(t, Config{})
	tu := h.NewTuner(TunerConfig{SwitchAfter: 3, ProbeEvery: 2, MinFallbackRuns: 10})

	// Reach global mode via the catastrophe path, then probe out of it.
	tu.decide(TunerEpoch{FallbackRuns: 10, FallbackWaits: 200, ContentionRatio: 20})
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("setup: catastrophe epoch did not switch to global")
	}
	tu.decide(busyCalmEpoch())
	tu.decide(busyCalmEpoch()) // ProbeEvery=2: probe back to fine
	if h.FallbackMode() != ModeFine {
		t.Fatal("setup: probe did not switch to fine")
	}

	// One ordinary (sub-catastrophe) storm epoch refutes the probe.
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("failed probe was not refuted by a single storm epoch")
	}

	// Probe again; this time a calm epoch confirms fine mode, so a later
	// storm pays full SwitchAfter hysteresis again.
	tu.decide(busyCalmEpoch())
	tu.decide(busyCalmEpoch())
	if h.FallbackMode() != ModeFine {
		t.Fatal("setup: second probe did not switch to fine")
	}
	tu.decide(busyCalmEpoch()) // probe survives: fast-refute state sheds
	tu.decide(stormEpoch())
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeFine {
		t.Fatal("confirmed fine stint lost hysteresis: switched before SwitchAfter=3 epochs")
	}
	tu.decide(stormEpoch())
	if h.FallbackMode() != ModeGlobal {
		t.Fatal("three storm epochs did not switch a confirmed fine stint")
	}
}

// TestTunerEpochDeltaLivelockRatio checks the sampled ratio itself: counters
// showing collisions but no completed runs must produce a large
// ContentionRatio, not 0/0 = 0.
func TestTunerEpochDeltaLivelockRatio(t *testing.T) {
	h := newTLEHeap(t, Config{})
	tu := h.NewTuner(TunerConfig{})
	th := h.NewThread()
	th.cell.fallbackWaits.Store(50)
	th.cell.fallbackRetries.Store(10)
	var got TunerEpoch
	tu.Observe(func(e TunerEpoch) { got = e })
	tu.Tick()
	if got.FallbackRuns != 0 || got.FallbackWaits != 50 || got.FallbackRetries != 10 {
		t.Fatalf("epoch deltas = %+v, want 0 runs / 50 waits / 10 retries", got)
	}
	if got.ContentionRatio != 60 {
		t.Errorf("ContentionRatio = %v, want 60 (collisions over max(runs,1))", got.ContentionRatio)
	}
}

func TestTunerKnobDrivers(t *testing.T) {
	h := newTLEHeap(t, Config{})
	tu := h.NewTuner(TunerConfig{MinFallbackRuns: 10})

	// Sustained moderate retry pressure grows the spins budget.
	start := h.FallbackSpins()
	for i := 0; i < 20 && h.FallbackSpins() == start; i++ {
		tu.decide(TunerEpoch{FallbackRuns: 100, FallbackRetries: 100, RetryRatio: 1.0, ContentionRatio: 0.5})
	}
	if got := h.FallbackSpins(); got != start*2 {
		t.Errorf("FallbackSpins = %d after sustained retries, want doubled %d", got, start*2)
	}
	// Retry-free fallback traffic sheds it again.
	for i := 0; i < 40 && h.FallbackSpins() > start/2; i++ {
		tu.decide(TunerEpoch{FallbackRuns: 100, RetryRatio: 0})
	}
	if got := h.FallbackSpins(); got > start {
		t.Errorf("FallbackSpins = %d after calm epochs, want shed below %d", got, start)
	}
}

func TestTunerPinnedNeverActs(t *testing.T) {
	h := newTLEHeap(t, Config{})
	tu := h.NewTuner(TunerConfig{Pinned: true, SwitchAfter: 1, MinFallbackRuns: 1})
	mode, spins := h.FallbackMode(), h.FallbackSpins()

	// Generate real fallback traffic so the sampled epochs are nonempty.
	th := h.NewThread()
	a := th.Alloc(8)
	for i := 0; i < 10; i++ {
		th.Atomic(func(tx *Txn) {
			for k := Addr(0); k < 8; k++ {
				tx.Store(a+k, uint64(i))
			}
		})
	}
	var seen []TunerEpoch
	tu.Observe(func(e TunerEpoch) { seen = append(seen, e) })
	tu.Tick()
	tu.Tick()

	if h.FallbackMode() != mode || h.FallbackSpins() != spins {
		t.Error("pinned tuner changed a knob")
	}
	if h.ModeSwitches() != 0 {
		t.Error("pinned tuner switched modes")
	}
	st := tu.State()
	if st.Epochs != 2 || !st.Pinned {
		t.Errorf("State = %+v, want 2 pinned epochs", st)
	}
	if len(seen) != 2 {
		t.Fatalf("observer saw %d epochs, want 2", len(seen))
	}
	if !seen[0].Pinned || seen[0].Epoch != 1 {
		t.Errorf("first epoch = %+v", seen[0])
	}
	if seen[0].FallbackRuns == 0 {
		t.Error("pinned epoch sampled no fallback traffic")
	}
}

func TestTunerStartStop(t *testing.T) {
	h := newTLEHeap(t, Config{})
	var epochs atomic.Uint64
	tu := h.StartTuner(TunerConfig{Interval: time.Millisecond})
	tu.Observe(func(TunerEpoch) { epochs.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for epochs.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tu.Stop()
	tu.Stop() // idempotent
	if epochs.Load() < 3 {
		t.Errorf("tuner ticked %d epochs in 2s, want ≥ 3", epochs.Load())
	}
	if st := tu.State(); st.Epochs < 3 {
		t.Errorf("State().Epochs = %d, want ≥ 3", st.Epochs)
	}

	// A never-started tuner stops without hanging.
	h2 := newTLEHeap(t, Config{})
	h2.NewTuner(TunerConfig{}).Stop()
}

// TestTunerEndToEndSharedStorm drives a real shared-footprint storm through a
// running tuner and requires the controller to reach the global lock, then
// hand the heap back clean.
func TestTunerEndToEndSharedStorm(t *testing.T) {
	// YieldEvery forces holders to deschedule mid-lock-hold, so contenders
	// observe the held lock-set (FallbackWaits) even on few CPUs; without it
	// a single-CPU run can convoy invisibly, every holder completing within
	// its scheduling quantum.
	h := newTLEHeap(t, Config{MaxRetries: 1, YieldEvery: 3})
	tu := h.NewTuner(TunerConfig{MinFallbackRuns: 8, SwitchAfter: 2, StormRatio: 0.5})
	setup := h.NewThread()
	shared := setup.Alloc(4)

	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := h.NewThread()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				th.Atomic(func(tx *Txn) {
					for k := Addr(0); k < 4; k++ {
						tx.Store(shared+k, seed+uint64(i))
					}
				})
			}
		}(uint64(w) << 32)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.FallbackMode() != ModeGlobal && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		tu.Tick()
	}
	close(stop)
	wg.Wait()
	if h.FallbackMode() != ModeGlobal {
		t.Fatalf("controller never switched to global under a shared storm: %s", h.Stats())
	}
	requireQuiescent(t, h)
}
