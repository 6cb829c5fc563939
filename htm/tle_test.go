package htm

import (
	"sync"
	"testing"
	"time"
)

// tleLeg is one configuration of the TLE contract tests: the mode the heap
// starts in, and whether a side goroutine keeps flipping it while the test
// body runs.
type tleLeg struct {
	name   string
	global bool // initial mode (Config.GlobalFallback)
	flip   bool
}

// heap builds the leg's TLE heap from cfg. Every leg ends in a quiescent
// invariant sweep; the flipping leg also starts — and stops first — the mode
// flipper, so the contract is checked across live switches, not only at each
// pinned mode.
func (l tleLeg) heap(t *testing.T, cfg Config) *Heap {
	t.Helper()
	cfg.EnableTLE = true
	cfg.GlobalFallback = l.global
	h := newTestHeap(t, cfg)
	stopFlip := func() {}
	if l.flip {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for i := 1; ; i++ { // global, fine, global, …
				select {
				case <-stop:
					return
				default:
				}
				h.SetFallbackMode(FallbackMode(i % 2))
				time.Sleep(20 * time.Microsecond)
			}
		}()
		stopFlip = func() { close(stop); <-done }
	}
	t.Cleanup(func() {
		stopFlip()
		requireQuiescent(t, h)
	})
	return h
}

// requireQuiescent checks that an idle TLE heap is exactly at rest: clean
// metadata sweep, no global section in flight, barrier words drained.
func requireQuiescent(t *testing.T, h *Heap) {
	t.Helper()
	sweep, s := h.SweepMeta(), h.Stats()
	if sweep.Locked != 0 || sweep.FallbackTagged != 0 || sweep.StripeErrors != 0 || sweep.Allocated != s.LiveWords {
		t.Errorf("quiescent sweep not clean: %+v (live words %d)", sweep, s.LiveWords)
	}
	if seq := h.fallbackSeq.Load(); seq&1 != 0 {
		t.Errorf("fallback sequence left odd: %d", seq)
	}
	for _, c := range h.stats.snapshotCells() {
		if c.inCommit.Load() != 0 || c.inFine.Load() != 0 {
			t.Error("quiesce barrier words not drained")
		}
	}
}

// allFallbackModes runs f with the heap starting (and staying) in each mode,
// and once with the mode flipping underneath it, so both paths and every
// switch between them keep satisfying the same TLE contract.
func allFallbackModes(t *testing.T, f func(t *testing.T, l tleLeg)) {
	for _, l := range []tleLeg{
		{name: "fine-grained"},
		{name: "global", global: true},
		{name: "flipping", flip: true},
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
		if !l.flip && l.global && s.FallbackLocks != 0 {
			t.Errorf("global fallback acquired %d per-word locks", s.FallbackLocks)
		}
		if !l.flip && !l.global && s.FallbackLocks == 0 {
			t.Error("fine-grained fallback acquired no per-word locks")
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
		before[i] = h.meta[a+Addr(i)].Load()
	}
	clock := h.ClockNow()
	homeBefore := h.ClockShardNow(th.ClockShard())
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
		if got := h.meta[a+Addr(i)].Load(); got != before[i] {
			t.Errorf("word %d metadata %#x, want restored %#x", i, got, before[i])
		}
	}
	// The write-back of scratch ticks the thread's home clock shard exactly
	// once, and no other shard.
	if got := h.ClockNow(); got != clock+1 {
		t.Errorf("clock advanced by %d, want 1 (single tick per fallback commit)", got-clock)
	}
	if got := h.ClockShardNow(th.ClockShard()); got != homeBefore+1 {
		t.Errorf("home shard advanced by %d, want 1", got-homeBefore)
	}
}
