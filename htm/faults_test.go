package htm

import (
	"sync"
	"testing"
	"time"
)

// TestSpuriousTerminationHardware is the ISSUE's central determinism shape:
// 100% injection for the first MaxRetries-1 attempts (via MaxPerOp) kills
// every early attempt, and the operation still commits — in hardware, on the
// very last attempt, never reaching the fallback.
func TestSpuriousTerminationHardware(t *testing.T) {
	const retries = 8
	sites := []struct {
		name string
		plan FaultPlan
	}{
		{"begin", FaultPlan{Seed: 1, BeginProb: 1, MaxPerOp: retries - 1}},
		{"access", FaultPlan{Seed: 1, AccessProb: 1, MaxPerOp: retries - 1}},
		{"commit", FaultPlan{Seed: 1, CommitProb: 1, MaxPerOp: retries - 1}},
	}
	for _, site := range sites {
		site := site
		t.Run(site.name, func(t *testing.T) {
			plan := site.plan
			h := newTestHeap(t, Config{EnableTLE: true, MaxRetries: retries, Faults: &plan})
			th := h.NewThread()
			a := th.Alloc(1)
			th.Atomic(func(tx *Txn) { tx.Store(a, 42) })
			if got := h.LoadNT(a); got != 42 {
				t.Fatalf("word = %d, want 42", got)
			}
			s := h.Stats()
			if s.Commits != 1 {
				t.Errorf("Commits = %d, want 1", s.Commits)
			}
			if got := s.SpuriousAborts(); got != retries-1 {
				t.Errorf("SpuriousAborts = %d, want %d", got, retries-1)
			}
			if s.FallbackRuns != 0 {
				t.Errorf("FallbackRuns = %d, want 0 (last attempt must commit in hardware)", s.FallbackRuns)
			}
		})
	}
}

// TestSpuriousTerminationFallback removes the per-op cap: with 100% injection
// on every hardware attempt, the operation can only complete because the
// fallback path is injection-immune.
func TestSpuriousTerminationFallback(t *testing.T) {
	const retries = 4
	plan := FaultPlan{Seed: 1, BeginProb: 1}
	h := newTestHeap(t, Config{EnableTLE: true, MaxRetries: retries, Faults: &plan})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Atomic(func(tx *Txn) { tx.Store(a, 7) })
	if got := h.LoadNT(a); got != 7 {
		t.Fatalf("word = %d, want 7", got)
	}
	s := h.Stats()
	if s.FallbackRuns != 1 {
		t.Errorf("FallbackRuns = %d, want 1", s.FallbackRuns)
	}
	if got := s.SpuriousAborts(); got != retries {
		t.Errorf("SpuriousAborts = %d, want %d (every hardware attempt killed)", got, retries)
	}
}

// TestTryAtomicReportsSpurious checks the single-attempt API surfaces the new
// code as a typed error.
func TestTryAtomicReportsSpurious(t *testing.T) {
	plan := FaultPlan{Seed: 1, CommitProb: 1}
	h := newTestHeap(t, Config{Faults: &plan})
	th := h.NewThread()
	a := th.Alloc(1)
	err := th.TryAtomic(func(tx *Txn) { tx.Store(a, 1) })
	ae, ok := err.(*AbortError)
	if !ok || ae.Code != AbortSpurious {
		t.Fatalf("TryAtomic error = %v, want AbortSpurious", err)
	}
	if got := h.LoadNT(a); got != 0 {
		t.Fatalf("killed attempt published %d", got)
	}
}

// TestAccessEverySpacing pins the Nth-access contract: with AccessEvery=3 and
// a 2-access body, no access is ever eligible and the op commits first try.
func TestAccessEverySpacing(t *testing.T) {
	plan := FaultPlan{Seed: 1, AccessProb: 1, AccessEvery: 3}
	h := newTestHeap(t, Config{Faults: &plan})
	th := h.NewThread()
	a := th.Alloc(2)
	th.Atomic(func(tx *Txn) { tx.Store(a, 1); tx.Store(a+1, 2) }) // 2 accesses < 3
	if s := h.Stats(); s.SpuriousAborts() != 0 || s.Commits != 1 {
		t.Fatalf("2-access body under AccessEvery=3 injected: %v", s)
	}
	// A third access in the body makes exactly one access eligible per attempt.
	th.TryAtomic(func(tx *Txn) { tx.Load(a); tx.Load(a + 1); tx.Load(a) })
	if got := h.Stats().SpuriousAborts(); got != 1 {
		t.Fatalf("3-access body under AccessEvery=3: SpuriousAborts = %d, want 1", got)
	}
}

// TestAtomicUntilAbandons drives AtomicUntil under unconditional injection
// with no TLE escape: plain Atomic would retry forever, so a false return is
// the only way out — and must mean the body never took effect.
func TestAtomicUntilAbandons(t *testing.T) {
	plan := FaultPlan{Seed: 1, BeginProb: 1}
	h := newTestHeap(t, Config{Faults: &plan})
	th := h.NewThread()
	a := th.Alloc(1)
	attempts := 0
	stop := func() bool { attempts++; return attempts >= 3 }
	if th.AtomicUntil(func(tx *Txn) { tx.Store(a, 9) }, stop) {
		t.Fatal("AtomicUntil reported commit under 100% injection and a firing stop")
	}
	if got := h.LoadNT(a); got != 0 {
		t.Fatalf("abandoned operation published %d", got)
	}
	// nil stop is exactly Atomic: with a per-op budget the op must commit.
	plan2 := FaultPlan{Seed: 1, BeginProb: 1, MaxPerOp: 2}
	h2 := newTestHeap(t, Config{Faults: &plan2})
	th2 := h2.NewThread()
	b := th2.Alloc(1)
	if !th2.AtomicUntil(func(tx *Txn) { tx.Store(b, 5) }, nil) {
		t.Fatal("AtomicUntil(nil stop) failed to commit")
	}
	if got := h2.LoadNT(b); got != 5 {
		t.Fatalf("word = %d, want 5", got)
	}
}

// TestFaultDeterminism runs the same single-thread workload on two heaps
// configured with the same plan and demands bit-identical statistics — the
// replayability contract the kv chaos goldens rest on. A third heap with a
// different seed must diverge (same counts would mean the seed is ignored).
func TestFaultDeterminism(t *testing.T) {
	run := func(seed uint64) Stats {
		plan := FaultPlan{Seed: seed, BeginProb: 0.2, AccessProb: 0.05, CommitProb: 0.1}
		h := newTestHeap(t, Config{EnableTLE: true, MaxRetries: 4, Faults: &plan})
		th := h.NewThread()
		a := th.Alloc(8)
		for i := 0; i < 200; i++ {
			i := i
			th.Atomic(func(tx *Txn) {
				w := a + Addr(i%8)
				tx.Store(w, tx.Load(w)+1)
			})
		}
		return h.Stats()
	}
	s1, s2 := run(42), run(42)
	if s1.Starts != s2.Starts || s1.SpuriousAborts() != s2.SpuriousAborts() ||
		s1.FallbackRuns != s2.FallbackRuns || s1.Commits != s2.Commits {
		t.Fatalf("same seed diverged:\n  %v\n  %v", s1, s2)
	}
	if s1.SpuriousAborts() == 0 {
		t.Fatal("plan injected nothing; the determinism check is vacuous")
	}
	if s3 := run(43); s3.SpuriousAborts() == s1.SpuriousAborts() && s3.Starts == s1.Starts {
		t.Fatalf("different seeds produced identical runs: %v", s3)
	}
}

// TestFallbackStallNoDeadlock is the adversity proof: every fallback commit
// stalls holding its full lock-set and delays its release, footprints overlap
// and acquisition orders collide, and yet every operation terminates. Run
// under -race in CI.
func TestFallbackStallNoDeadlock(t *testing.T) {
	plan := FaultPlan{Seed: 7, StallProb: 1, StallSpins: 8, ReleaseDelay: 4}
	cfg := overflowCfg() // every multi-word write goes straight to fallback
	cfg.Faults = &plan
	cfg.FallbackSpins = 4 // tight bound: exercise release-and-retry hard
	h := newTestHeap(t, cfg)
	setup := h.NewThread()
	words := setup.Alloc(8)

	const goroutines, opsEach = 4, 50
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			for i := 0; i < opsEach; i++ {
				lo, hi := Addr(g%8), Addr((g+3)%8)
				if lo > hi {
					lo, hi = hi, lo
				}
				th.Atomic(func(tx *Txn) {
					// Overlapping two-word footprints; ascending then a third
					// descending store to provoke out-of-order acquisition.
					tx.Store(words+lo, uint64(i))
					tx.Store(words+hi, uint64(i))
					tx.Store(words+Addr(i%8), uint64(g))
				})
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fallback operations deadlocked or starved under stall injection")
	}
	s := h.Stats()
	if s.FallbackStalls == 0 {
		t.Error("StallProb=1 produced no recorded stalls")
	}
	if s.FallbackRuns != goroutines*opsEach {
		t.Errorf("FallbackRuns = %d, want %d (every op must complete on the fallback)",
			s.FallbackRuns, goroutines*opsEach)
	}
	if sweep := h.SweepMeta(); sweep.Locked != 0 || sweep.FallbackTagged != 0 {
		t.Errorf("metadata leaked after quiescence: %+v", sweep)
	}
}

// TestSweepMeta checks the census against the allocator's own accounting on a
// quiescent heap, before and after frees.
func TestSweepMeta(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(16)
	b := th.Alloc(32)
	th.Atomic(func(tx *Txn) { tx.Store(a, 1); tx.Store(b, 2) })
	sweep := h.SweepMeta()
	if live := h.Stats().LiveWords; sweep.Allocated != live {
		t.Errorf("sweep.Allocated = %d, Stats().LiveWords = %d", sweep.Allocated, live)
	}
	if sweep.Locked != 0 || sweep.FallbackTagged != 0 {
		t.Errorf("quiescent heap has residual lock state: %+v", sweep)
	}
	th.Free(b)
	sweep = h.SweepMeta()
	if live := h.Stats().LiveWords; sweep.Allocated != live {
		t.Errorf("after free: sweep.Allocated = %d, Stats().LiveWords = %d", sweep.Allocated, live)
	}
}

// TestFallbackSpinsKnob pins the knob's resolution (0 = default, negative =
// no out-of-order spinning) and runs contended fallback traffic at the
// paranoid setting to prove immediate release-and-retry still terminates.
func TestFallbackSpinsKnob(t *testing.T) {
	if got := (Config{}).withDefaults().fallbackSpins(); got != defaultFallbackSpins {
		t.Errorf("default FallbackSpins = %d, want %d", got, defaultFallbackSpins)
	}
	if got := (Config{FallbackSpins: 7}).fallbackSpins(); got != 7 {
		t.Errorf("FallbackSpins=7 resolved to %d", got)
	}
	if got := (Config{FallbackSpins: -1}).fallbackSpins(); got != 0 {
		t.Errorf("FallbackSpins=-1 resolved to %d, want 0", got)
	}

	cfg := overflowCfg()
	cfg.FallbackSpins = -1
	h := newTestHeap(t, cfg)
	words := h.NewThread().Alloc(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			for i := 0; i < 50; i++ {
				th.Atomic(func(tx *Txn) {
					tx.Store(words+Addr((g+i)%4), uint64(i))
					tx.Store(words+Addr((g+i+1)%4), uint64(i))
				})
			}
		}()
	}
	wg.Wait()
	if s := h.Stats(); s.FallbackRuns != 4*50 {
		t.Errorf("FallbackRuns = %d, want %d", s.FallbackRuns, 4*50)
	}
}

// TestFaultPlanStatsRendering makes sure the new counters surface in the
// one-line diagnostic form.
func TestFaultPlanStatsRendering(t *testing.T) {
	s := Stats{
		Starts: 3, Commits: 1,
		Aborts:         map[AbortCode]uint64{AbortSpurious: 2},
		FallbackStalls: 5,
	}
	out := s.String()
	for _, want := range []string{"spurious=2", "fbstalls=5"} {
		if !contains(out, want) {
			t.Errorf("Stats.String() = %q, missing %q", out, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
