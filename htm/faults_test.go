package htm

import (
	"reflect"
	"runtime"
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

// TestYieldsDoNotMoveFaultSchedule: the yield model shares the environment
// seam with fault injection but never its PRNG stream. One thread runs a
// seeded plan over a scripted mix of every instrumented site — Load, Store,
// LoadWords, Store loops, ChargeStores, and fallback runs (an overflowing body
// engages the fallback after MaxRetries, where stalls draw too) — once
// without yields and once with YieldEvery 3 in the same plan. Every counter
// must agree; the yielding run must have drawn its yields from the thread's
// backoff PRNG.
func TestYieldsDoNotMoveFaultSchedule(t *testing.T) {
	run := func(yieldEvery int) (Stats, uint64) {
		plan := FaultPlan{Seed: 11, BeginProb: 0.05, AccessProb: 0.03, CommitProb: 0.05,
			StallProb: 0.5, StallSpins: 1, YieldEvery: yieldEvery}
		h := newTestHeap(t, Config{EnableTLE: true, MaxRetries: 3, Faults: &plan})
		th := h.NewThread()
		a := th.Alloc(64)
		buf := make([]uint64, 40)
		for i := 0; i < 300; i++ {
			th.Atomic(func(tx *Txn) {
				switch w := a + Addr(i%16); i % 5 {
				case 0:
					tx.Store(w, tx.Load(w+1)+1)
				case 1:
					tx.LoadWords(a, buf[:8])
				case 2:
					storeLoop(tx, w, buf[:8])
				case 3:
					tx.Load(w)
					tx.ChargeStores(4)
				case 4:
					storeLoop(tx, a, buf) // overflows every hardware attempt
				}
			})
		}
		return h.Stats(), th.rng
	}
	plain, plainRng := run(0)
	yielding, yieldRng := run(3)
	if !reflect.DeepEqual(plain, yielding) {
		t.Fatalf("YieldEvery moved the fault schedule:\n  without: %v\n  with:    %v", plain, yielding)
	}
	if plain.SpuriousAborts() == 0 || plain.FallbackRuns == 0 || plain.FallbackStalls == 0 {
		t.Fatalf("script injected %d aborts, ran %d fallbacks with %d stalls; want all three",
			plain.SpuriousAborts(), plain.FallbackRuns, plain.FallbackStalls)
	}
	if yieldRng == plainRng {
		t.Fatal("YieldEvery 3 drew no yield from the thread's PRNG")
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

// TestFallbackSpinsKnob pins the out-of-order rule that replaced the
// spin-budget knob: a fallback attempt that meets another run's line lock
// below its watermark releases its lock-set and retries at once; it never
// waits there. A parked run holds the lower line until the other run's wait
// is counted, so a rule that waited would see the line freed and record no
// retry. Then contended fallback traffic proves that immediate
// release-and-retry still terminates.
func TestFallbackSpinsKnob(t *testing.T) {
	h := newTestHeap(t, overflowCfg())
	lo := h.NewThread().Alloc(16)
	hi := lo + 8 // the next line up

	held := make(chan struct{})
	release := make(chan struct{})
	parkedDone := make(chan struct{})
	go func() {
		defer close(parkedDone)
		h.NewThread().Atomic(func(tx *Txn) {
			tx.Store(lo, 1)
			tx.Store(lo+1, 1) // overflow -> the fallback locks lo's line
			if tx.InFallback() {
				close(held)
				<-release
			}
		})
	}()
	<-held
	th := h.NewThread()
	done := make(chan struct{})
	go func() {
		defer close(done)
		th.Atomic(func(tx *Txn) {
			tx.Store(hi, 2) // watermark: hi's line
			tx.Store(lo, 2) // below it, held by the parked run
		})
	}()
	for th.cell.fallbackWaits.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	<-parkedDone
	<-done
	if got := th.cell.fallbackRetries.Load(); got == 0 {
		t.Error("an out-of-order collision waited instead of releasing and retrying")
	}
	if v := h.LoadNT(lo); v != 2 {
		t.Errorf("lo = %d, want 2 (the retried run commits after the parked one)", v)
	}
	requireQuiescent(t, h)

	h = newTestHeap(t, overflowCfg())
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
