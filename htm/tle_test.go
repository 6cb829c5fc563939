package htm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tleLeg is one configuration of the TLE contract tests: the fallback mode
// the heap is built in.
type tleLeg struct {
	name   string
	global bool // Config.GlobalFallback
}

// heap builds the leg's TLE heap from cfg. Every leg ends in a quiescent
// invariant sweep.
func (l tleLeg) heap(t *testing.T, cfg Config) *Heap {
	t.Helper()
	cfg.EnableTLE = true
	cfg.GlobalFallback = l.global
	h := newTestHeap(t, cfg)
	t.Cleanup(func() { requireQuiescent(t, h) })
	return h
}

// requireQuiescent checks that an idle TLE heap is exactly at rest: clean
// metadata sweep, no global section in flight and no parked fallback run.
func requireQuiescent(t *testing.T, h *Heap) {
	t.Helper()
	sweep, s := h.SweepMeta(), h.Stats()
	if sweep.Locked != 0 || sweep.FallbackTagged != 0 || sweep.StripeErrors != 0 || sweep.Allocated != s.LiveWords {
		t.Errorf("quiescent sweep not clean: %+v (live words %d)", sweep, s.LiveWords)
	}
	requireGlobalLockFree(t, h)
	if h.fbWait != nil {
		for i := range h.fbWait {
			if n := h.fbWait[i].n.Load(); n != 0 {
				t.Errorf("waiter stripe %d still counts %d parked runs", i, n)
			}
		}
	}
}

// requireGlobalLockFree checks that no global fallback section is left in
// flight: the sequence is even and the mutex is free.
func requireGlobalLockFree(t *testing.T, h *Heap) {
	t.Helper()
	if seq := h.fallbackSeq.Load(); seq&1 != 0 {
		t.Errorf("fallback sequence left odd: %d", seq)
	}
	if !h.fallbackMu.TryLock() {
		t.Error("global fallback lock left held")
		return
	}
	h.fallbackMu.Unlock()
}

// allFallbackModes runs f on a heap built in each fallback mode, so both
// paths keep satisfying the same TLE contract.
func allFallbackModes(t *testing.T, f func(t *testing.T, l tleLeg)) {
	for _, l := range []tleLeg{
		{name: "fine-grained"},
		{name: "global", global: true},
	} {
		l := l
		t.Run(l.name, func(t *testing.T) { f(t, l) })
	}
}

func TestTLEFallbackOnOverflow(t *testing.T) {
	allFallbackModes(t, func(t *testing.T, l tleLeg) {
		// With TLE enabled, a transaction that deterministically overflows the
		// store buffer completes on the fallback path instead of panicking.
		h := l.heap(t, Config{StoreBufferSize: 2, MaxRetries: 3})
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
		// Either mode runs the lock-set engine: a global run is a lock-set
		// run under the global lock.
		if s.FallbackLocks == 0 {
			t.Error("fallback acquired no line locks")
		}
	})
}

// TestTLEFallbackAtomicWithNT: a fallback run is atomic against NT writes
// (strong atomicity) in every mode. The run reads x, then gives another
// thread's AddNT(x, 1) a bounded chance to land before it stores read+1. The
// run holds x's line from the read on, so the AddNT waits for the commit and
// both increments count: x ends at read+2. Had the run read x without the
// line lock, the AddNT would land in the gap and the run's store would
// overwrite it.
func TestTLEFallbackAtomicWithNT(t *testing.T) {
	allFallbackModes(t, func(t *testing.T, l tleLeg) {
		h := l.heap(t, Config{StoreBufferSize: 1, MaxRetries: 1})
		th := h.NewThread()
		x := th.Alloc(2)
		added := make(chan struct{})
		var once sync.Once
		var read uint64
		th.Atomic(func(tx *Txn) {
			read = tx.Load(x)
			if tx.InFallback() {
				once.Do(func() {
					go func() { h.AddNT(x, 1); close(added) }()
					select {
					case <-added:
					case <-time.After(20 * time.Millisecond):
					}
				})
			}
			tx.Store(x, read+1)
			tx.Store(x+1, 1) // overflows the 1-entry buffer: the op ends on the fallback
		})
		<-added
		if v := h.LoadNT(x); v != read+2 {
			t.Errorf("x = %d after a fallback increment of %d and an AddNT, want %d", v, read, read+2)
		}
	})
}

func TestTLEMutualExclusionWithTransactions(t *testing.T) {
	allFallbackModes(t, func(t *testing.T, l tleLeg) {
		// A fallback operation that writes a multi-word invariant must be
		// atomic with respect to concurrently committing transactions.
		h := l.heap(t, Config{StoreBufferSize: 2, MaxRetries: 2})
		setup := h.NewThread()
		a := setup.Alloc(4)
		const iters = 300
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := h.NewThread()
				for i := 0; i < iters; i++ {
					// Four stores overflow the 2-entry buffer, forcing TLE.
					th.Atomic(func(tx *Txn) {
						v := tx.Load(a) + 1
						tx.Store(a, v)
						tx.Store(a+1, v)
						tx.Store(a+2, v)
						tx.Store(a+3, v)
					})
				}
			}()
		}
		readerFail := make(chan string, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			for i := 0; i < iters; i++ {
				var vals [4]uint64
				th.Atomic(func(tx *Txn) {
					for j := Addr(0); j < 4; j++ {
						vals[j] = tx.Load(a + j)
					}
				})
				for j := 1; j < 4; j++ {
					if vals[j] != vals[0] {
						select {
						case readerFail <- "torn fallback section observed":
						default:
						}
						return
					}
				}
			}
		}()
		wg.Wait()
		select {
		case msg := <-readerFail:
			t.Fatal(msg)
		default:
		}
		if v := h.LoadNT(a); v != 2*iters {
			t.Errorf("counter = %d, want %d", v, 2*iters)
		}
	})
}

func TestTLECounterExactness(t *testing.T) {
	allFallbackModes(t, func(t *testing.T, l tleLeg) {
		// Mixed population: some increments run transactionally, some on the
		// fallback path; the total must still be exact.
		h := l.heap(t, Config{StoreBufferSize: 1, MaxRetries: 1})
		setup := h.NewThread()
		a := setup.Alloc(2)
		const n, m = 4, 200
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				th := h.NewThread()
				for j := 0; j < m; j++ {
					if k%2 == 0 {
						th.Atomic(func(tx *Txn) { tx.Add(a, 1) }) // fits store buffer
					} else {
						th.Atomic(func(tx *Txn) { // overflows: fallback
							tx.Add(a, 1)
							tx.Add(a+1, 1)
						})
					}
				}
			}(i)
		}
		wg.Wait()
		if v := h.LoadNT(a); v != n*m {
			t.Errorf("counter = %d, want %d", v, n*m)
		}
	})
}

func TestFallbackRunsFrees(t *testing.T) {
	allFallbackModes(t, func(t *testing.T, l tleLeg) {
		h := l.heap(t, Config{StoreBufferSize: 1, MaxRetries: 1})
		th := h.NewThread()
		a := th.Alloc(4)
		b := th.Alloc(1)
		th.Atomic(func(tx *Txn) {
			tx.Store(a, 1)
			tx.Store(a+1, 1) // overflow -> fallback
			tx.FreeOnCommit(b)
		})
		if h.allocated(b) {
			t.Error("fallback did not run deferred frees")
		}
	})
}

// TestFallbackExplicitAbortReruns: a body that calls Txn.Abort on the fallback
// path has published nothing and is re-run — in either mode. (The global path
// used to store in place, so the abort tore the operation and escaped Atomic
// as a raw sentinel panic.)
func TestFallbackExplicitAbortReruns(t *testing.T) {
	allFallbackModes(t, func(t *testing.T, l tleLeg) {
		h := l.heap(t, Config{MaxRetries: 2})
		th := h.NewThread()
		a := th.Alloc(1)
		var n uint64
		th.Atomic(func(tx *Txn) {
			n++
			tx.Store(a, n)
			if got := tx.Load(a); got != n {
				t.Errorf("run %d read its own store as %d", n, got)
			}
			if n < 5 {
				tx.Abort()
			}
		})
		if v := h.LoadNT(a); v != 5 {
			t.Errorf("word = %d after %d runs, want 5", v, n)
		}
		if s := h.Stats(); s.FallbackRuns != 1 {
			t.Errorf("FallbackRuns = %d, want 1", s.FallbackRuns)
		}
	})
}

// TestFallbackReadOnlyRestoresMetadata: a fine-grained fallback that only
// reads must leave every touched word's metadata bit-for-bit as it found it —
// no version tick, no spurious invalidation of concurrent readers.
func TestFallbackReadOnlyRestoresMetadata(t *testing.T) {
	h := newTestHeap(t, Config{StoreBufferSize: 1, EnableTLE: true, MaxRetries: 1})
	th := h.NewThread()
	a := th.Alloc(4)
	for i := Addr(0); i < 4; i++ {
		h.StoreNT(a+i, uint64(i))
	}
	// The overflow that forces the fallback happens on scratch words; a..a+3
	// are only read, so their metadata must come back untouched.
	scratch := th.Alloc(2)
	var before [4]uint64
	for i := range before {
		before[i] = h.meta[lineOf(a+Addr(i))].Load()
	}
	clock := h.ClockNow()
	var sum uint64
	th.Atomic(func(tx *Txn) {
		tx.Store(scratch, 1)
		tx.Store(scratch+1, 1) // overflow -> fallback
		sum = 0
		for i := Addr(0); i < 4; i++ {
			sum += tx.Load(a + i)
		}
	})
	if sum != 0+1+2+3 {
		t.Errorf("fallback read sum = %d, want 6", sum)
	}
	for i := range before {
		if got := h.meta[lineOf(a+Addr(i))].Load(); got != before[i] {
			t.Errorf("word %d metadata %#x, want restored %#x", i, got, before[i])
		}
	}
	// The write-back of scratch ticks the clock exactly once.
	if got := h.ClockNow(); got != clock+1 {
		t.Errorf("clock advanced by %d, want 1 (single tick per fallback commit)", got-clock)
	}
}

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

// TestAdaptiveFallbackBothModes runs the overflow workload on a heap built in
// each fallback mode: both paths must preserve the multi-word invariant and
// count fallback runs.
func TestAdaptiveFallbackBothModes(t *testing.T) {
	for _, l := range []tleLeg{{name: "fine"}, {name: "global", global: true}} {
		t.Run(l.name, func(t *testing.T) {
			h := newTLEHeap(t, Config{GlobalFallback: l.global})
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
			if s.FallbackLocks == 0 {
				t.Errorf("%s mode acquired no line locks", l.name)
			}
		})
	}
}

// TestAdaptiveModeFlipStress is the acceptance stress, on a heap built in
// each fallback mode (run with -race). Writers maintain a multi-word
// invariant on a SHARED block through deliberately overflowing transactions —
// every attempt takes the fallback, so fine-mode runs collide and park on one
// another's lines — while readers verify the invariant. Afterwards the heap
// must be exactly quiescent: clean SweepMeta, even fallback sequence, no
// sleeper left on a waiter stripe.
func TestAdaptiveModeFlipStress(t *testing.T) {
	for _, l := range []tleLeg{{name: "fine"}, {name: "global", global: true}} {
		t.Run(l.name, func(t *testing.T) {
			h := newTLEHeap(t, Config{MaxRetries: 1, GlobalFallback: l.global})
			setup := h.NewThread()
			shared := setup.Alloc(4)

			const (
				writers = 4
				readers = 2
				iters   = 400
			)
			var wg sync.WaitGroup
			var total atomic.Uint64
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					th := h.NewThread()
					for i := 0; i < iters; i++ {
						v := seed*uint64(iters) + uint64(i)
						th.Atomic(func(tx *Txn) {
							// 4 distinct stores overflow the 2-entry buffer:
							// the body completes only on the fallback.
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
			if s := h.Stats(); s.FallbackRuns == 0 {
				t.Error("stress never engaged the fallback")
			}
			requireQuiescent(t, h)
		})
	}
}
