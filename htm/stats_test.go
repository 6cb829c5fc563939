package htm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// The statistics cell stores one counter per event and Heap.Stats derives
// Starts, Commits and ClockShardTicks from them. These tests pin the two
// identities that make the derivation a definition rather than an estimate:
//
//	Starts          == Σ Thread.AttemptStats() attempts   (every attempt ends in exactly one counter)
//	ClockShardTicks == Heap.ClockNow()                     (every thread-issued tick is implied by exactly one counter)
//
// the second with no NT writes on the heap. Starts == Commits + TotalAborts()
// holds by construction and is asserted alongside.

// checkDerived asserts the derived-counter identities on a quiescent heap
// whose only threads are ths. ntTicks is the number of clock ticks issued by
// NT writes (which ClockShardTicks, by definition, does not count).
func checkDerived(t *testing.T, h *Heap, ntTicks uint64, ths ...*Thread) Stats {
	t.Helper()
	s := h.Stats()
	if s.Starts != s.Commits+s.TotalAborts() {
		t.Errorf("Starts = %d, want Commits + TotalAborts = %d + %d", s.Starts, s.Commits, s.TotalAborts())
	}
	var attempts, commits uint64
	for _, th := range ths {
		a, c := th.AttemptStats()
		attempts, commits = attempts+a, commits+c
	}
	if s.Starts != attempts {
		t.Errorf("Starts = %d, threads made %d attempts", s.Starts, attempts)
	}
	if s.Commits != commits {
		t.Errorf("Commits = %d, threads committed %d attempts", s.Commits, commits)
	}
	if now := h.ClockNow(); s.ClockShardTicks+ntTicks != now {
		t.Errorf("ClockShardTicks = %d (+%d NT ticks), ClockNow = %d", s.ClockShardTicks, ntTicks, now)
	}
	return s
}

func TestDerivedCountersScriptedMix(t *testing.T) {
	type leg struct {
		name string
		cfg  Config
	}
	legs := []leg{{"plain", Config{}}, {"shards4-stripe2", Config{EnableTLE: true}}}
	for _, l := range legs[:2] {
		l.cfg.NoMaxLive = true
		legs = append(legs, leg{l.name + "/nomaxlive", l.cfg})
	}
	for _, l := range legs[:4] {
		for _, p := range []struct {
			name string
			plan FaultPlan
		}{
			{"begin", FaultPlan{Seed: 11, BeginProb: 0.3}},
			{"access", FaultPlan{Seed: 12, AccessProb: 0.2}},
			{"commit", FaultPlan{Seed: 13, CommitProb: 0.6}},
		} {
			l.cfg.Faults = &p.plan
			legs = append(legs, leg{l.name + "/" + p.name, l.cfg})
		}
	}
	// The same script on a heap built with the global fallback lock.
	legs = append(legs, leg{"global", Config{GlobalFallback: true}})
	for _, l := range legs {
		t.Run(l.name, func(t *testing.T) {
			cfg := l.cfg
			cfg.Words, cfg.StoreBufferSize, cfg.MaxReadSet = 1<<12, 4, 7
			cfg.EnableTLE, cfg.MaxRetries = true, 3
			h := NewHeap(cfg)
			th, other := h.NewThread(), h.NewThread()
			faulty := cfg.Faults != nil
			// try is TryAtomic retried past injected kills, so the scripted
			// outcome is the body's own under every plan.
			try := func(f func(*Txn)) error {
				for {
					err := th.TryAtomic(f)
					if !errors.Is(err, &AbortError{Code: AbortSpurious}) {
						return err
					}
				}
			}
			want := func(what string, err error, code AbortCode) {
				t.Helper()
				if !errors.Is(err, &AbortError{Code: code}) {
					t.Fatalf("%s: got %v, want abort %v", what, err, code)
				}
			}

			var live, peak uint64
			alloc := func(th *Thread, n int) Addr {
				live += uint64(n)
				peak = max(peak, live)
				return th.Alloc(n)
			}
			a := alloc(th, 8<<lineShift) // 8 lines: the capacity row reads one word of each
			b := alloc(other, 1)
			img := []uint64{7, 8, 9}
			c := th.AllocInit(img)
			live += 3
			peak = max(peak, live)
			h.Stats() // NoMaxLive records the high-water mark at snapshots: take one at the peak

			// Read-only and write commits.
			th.Atomic(func(tx *Txn) { _ = tx.Load(a) + tx.Load(c+2) })
			for i := 0; i < 8; i++ {
				th.Atomic(func(tx *Txn) { tx.Store(a, tx.Load(a+1)+1); tx.Store(a+1, 2) })
			}
			// Explicit abort, store-buffer overflow, sandboxed illegal access.
			want("explicit", try(func(tx *Txn) { tx.Store(a, 99); tx.Abort() }), AbortExplicit)
			want("overflow", try(func(tx *Txn) {
				for i := Addr(0); i < 5; i++ {
					tx.Store(a+i, 1)
				}
			}), AbortOverflow)
			th.Free(c)
			live -= 3
			want("illegal", try(func(tx *Txn) { _ = tx.Load(c) }), AbortIllegal)
			// A commit that acquires its write set, ticks, and then fails
			// read-set validation: the block it read is freed under it. (On a
			// re-run after an injected commit-site kill the block is already
			// gone and the read itself is sandboxed — either way an abort.)
			freed := false
			err := try(func(tx *Txn) {
				_ = tx.Load(b)
				tx.Store(a+2, 5)
				if !freed {
					freed = true
					other.Free(b)
					live--
				}
			})
			if !faulty {
				want("validation", err, AbortConflict)
			} else if err == nil {
				t.Fatal("a transaction that read a block freed under it committed")
			}
			// Charged-only bodies: a commit that counts as read-only and ticks
			// nothing, an overflow, and a validation failure that — unlike
			// the write commit's above — spent no tick. (On a re-run after an
			// injected kill the word has already moved, so it commits.)
			th.Atomic(func(tx *Txn) { _ = tx.Load(a + 3); tx.ChargeStores(4) })
			want("charged overflow", try(func(tx *Txn) { tx.ChargeStores(5) }), AbortOverflow)
			moved := false
			err = try(func(tx *Txn) {
				_ = tx.Load(a + 3)
				tx.ChargeStores(1)
				if !moved {
					moved = true
					other.Atomic(func(tx *Txn) { tx.Store(a+3, 1) })
				}
			})
			if !faulty {
				want("charged validation", err, AbortConflict)
			}
			// Fallback: a deterministic overflow exhausts MaxRetries and
			// completes under the line locks (one release tick), freeing a
			// block on commit; then a read-only fallback run (no tick).
			d := alloc(th, 2)
			overflow := func(tx *Txn) {
				for i := Addr(0); i < 6; i++ {
					tx.Store(a+i, tx.Load(a+i)+1)
				}
			}
			th.Atomic(func(tx *Txn) { overflow(tx); tx.FreeOnCommit(d) })
			live -= 2
			th.Atomic(func(tx *Txn) { // 8 lines read against MaxReadSet 7
				for i := Addr(0); i < 8; i++ {
					_ = tx.Load(a + i<<lineShift)
				}
			})
			s := checkDerived(t, h, 0, th, other)
			if s.FallbackRuns == 0 || s.FallbackLocks == 0 {
				t.Errorf("fallback not exercised: %v", s)
			}

			// A second write run, whose release ticks once, as the first's
			// does — with or without the global lock.
			runs := s.FallbackRuns
			th.Atomic(overflow)
			th.Free(a)
			live -= 8 << lineShift
			s = checkDerived(t, h, 0, th, other)
			if s.FallbackRuns != runs+1 {
				t.Errorf("second fallback ran %d times, want 1", s.FallbackRuns-runs)
			}

			if s.LiveWords != live || s.MaxLiveWords != peak {
				t.Errorf("LiveWords, MaxLiveWords = %d, %d, want %d, %d", s.LiveWords, s.MaxLiveWords, live, peak)
			}
			if faulty {
				if s.SpuriousAborts() == 0 {
					t.Errorf("fault plan injected nothing: %v", s)
				}
				return
			}
			// Without injection the script's outcome is exact.
			got := fmt.Sprint(s.Starts, s.Commits, s.Aborts[AbortExplicit], s.Aborts[AbortOverflow],
				s.Aborts[AbortCapacity], s.Aborts[AbortIllegal], s.Aborts[AbortConflict], s.FallbackRuns, s.AllocCalls, s.FreeCalls)
			// 1 + 8 + 1 + 1 commits (read-only, write, charged, and the write
			// that moves the charged body's read); explicit, overflow, illegal,
			// validation, charged overflow, charged validation; 3 attempts
			// ahead of each of the three fallback runs.
			if want := fmt.Sprint(26, 11, 1, 8, 3, 1, 2, 3, 4, 4); got != want {
				t.Errorf("starts commits explicit overflow capacity illegal conflict fallbacks allocs frees = %s, want %s", got, want)
			}
			// Ticks: 9 write commits, 1 failed write-commit validation (the
			// charged one ticks nothing), 2 fallback write releases, 4
			// allocs, 4 frees.
			if s.ClockShardTicks != 20 {
				t.Errorf("ClockShardTicks = %d, want 20", s.ClockShardTicks)
			}
		})
	}
}

// TestStartsCountsEndedAttempts pins the one observable consequence of
// deriving Starts: an attempt whose body raised a user panic ended in neither
// a commit nor an abort, so the thread counts it and Stats does not.
func TestStartsCountsEndedAttempts(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 10})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Atomic(func(tx *Txn) { tx.Store(a, 1) })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("user panic did not propagate")
			}
		}()
		th.Atomic(func(tx *Txn) { panic("user") })
	}()
	attempts, _ := th.AttemptStats()
	if s := h.Stats(); attempts != 2 || s.Starts != 1 || s.Commits != 1 {
		t.Errorf("attempts = %d, Starts = %d, Commits = %d, want 2, 1, 1", attempts, s.Starts, s.Commits)
	}
}

// TestDerivedCountersUnderContention runs conflicting read-modify-write
// transactions with an alloc/free pair per operation from several goroutines:
// at quiescence every attempt and every tick must still be accounted for,
// including the commits that tick and then lose read-set validation.
func TestDerivedCountersUnderContention(t *testing.T) {
	for _, row := range []struct {
		name string
		cfg  Config
	}{
		{"shards0-tlefalse", Config{Words: 1 << 14}},
		{"shards4-tletrue", Config{Words: 1 << 14, EnableTLE: true, MaxRetries: 4}},
	} {
		t.Run(row.name, func(t *testing.T) {
			h := NewHeap(row.cfg)
			setup := h.NewThread()
			shared := setup.Alloc(4)
			const workers, ops = 4, 2000
			ths := []*Thread{setup}
			for i := 0; i < workers; i++ {
				ths = append(ths, h.NewThread())
			}
			var wg sync.WaitGroup
			for i, th := range ths[1:] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < ops; j++ {
						blk := th.AllocInit([]uint64{uint64(j)})
						th.Atomic(func(tx *Txn) {
							v := tx.Load(shared + Addr((i+1)&3))
							tx.Store(shared+Addr(i&3), v+tx.Load(blk))
							tx.FreeOnCommit(blk)
						})
					}
				}()
			}
			wg.Wait()
			s := checkDerived(t, h, 0, ths...)
			if s.LiveWords != 4 {
				t.Errorf("LiveWords = %d, want 4", s.LiveWords)
			}
		})
	}
}
