package htm

import (
	"sync"
	"testing"
)

// TestReadSetDedupRepeatedLoads is the regression test for the read-set
// duplication bug: repeated loads of one address used to append one read
// entry each, so a workload whose *distinct* read set fit MaxReadSet could
// still abort with AbortCapacity.
func TestReadSetDedupRepeatedLoads(t *testing.T) {
	h := newTestHeap(t, Config{MaxReadSet: 4})
	th := h.NewThread()
	a := th.Alloc(4)
	err := th.TryAtomic(func(tx *Txn) {
		for rep := 0; rep < 100; rep++ {
			for i := Addr(0); i < 4; i++ {
				tx.Load(a + i)
			}
		}
		if tx.ReadSetSize() != 4 {
			t.Errorf("ReadSetSize = %d after repeated loads, want 4", tx.ReadSetSize())
		}
	})
	if err != nil {
		t.Fatalf("distinct read set of 4 within MaxReadSet=4 aborted: %v", err)
	}
}

// TestReadSetDedupLargeSet drives the read set well past the linear threshold
// and the filter into its indexed regime, with every address re-loaded.
func TestReadSetDedupLargeSet(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	const words = 300
	a := th.Alloc(words)
	th.Atomic(func(tx *Txn) {
		for pass := 0; pass < 3; pass++ {
			for i := Addr(0); i < words; i++ {
				tx.Load(a + i)
			}
		}
		if tx.ReadSetSize() != words {
			t.Errorf("ReadSetSize = %d, want %d", tx.ReadSetSize(), words)
		}
	})
}

// TestDedupBypassThreshold pins the bypass budget against MaxReadSet:
// bypassReadCap until that would exceed MaxReadSet/2, the bound that keeps the
// AbortCapacity guarantee intact.
func TestDedupBypassThreshold(t *testing.T) {
	cases := []struct {
		maxReadSet, want int
	}{
		{0, bypassReadCap},  // default MaxReadSet (1<<16)
		{1000, 500},         // MaxReadSet/2 below the cap
		{1, 0},              // dedup from the first read
		{-1, bypassReadCap}, // unbounded reads: the cap still bounds
	}
	for _, c := range cases {
		h := NewHeap(Config{Words: 1 << 10, MaxReadSet: c.maxReadSet})
		th := h.NewThread()
		if got := th.txn.dedupAfter; got != c.want {
			t.Errorf("MaxReadSet=%d: dedupAfter = %d, want %d", c.maxReadSet, got, c.want)
		}
	}
}

// TestDedupFromFirstRead: with no bypass budget at all (MaxReadSet 1, so the
// threshold is 0) every attempt runs in filtered mode from its first read, and
// repeated loads still collapse to one entry.
func TestDedupFromFirstRead(t *testing.T) {
	h := newTestHeap(t, Config{MaxReadSet: 1})
	th := h.NewThread()
	a := th.Alloc(1)
	err := th.TryAtomic(func(tx *Txn) {
		for rep := 0; rep < 100; rep++ {
			tx.Load(a)
			if !tx.dedup || len(tx.reads) != 1 {
				t.Fatalf("after load %d: dedup=%v, %d read entries, want filtered mode with 1", rep, tx.dedup, len(tx.reads))
			}
		}
	})
	if err != nil {
		t.Fatalf("distinct read set of 1 within MaxReadSet=1 aborted: %v", err)
	}
}

// TestDedupEngagesAtThreshold drives an attempt across a small bypass budget
// mid-transaction: duplicates accumulate up to exactly MaxReadSet/2 entries,
// the next load compacts them, and the distinct working set stays within
// capacity from then on.
func TestDedupEngagesAtThreshold(t *testing.T) {
	h := newTestHeap(t, Config{MaxReadSet: 16}) // bypass budget 8
	th := h.NewThread()
	a := th.Alloc(4)
	th.Atomic(func(tx *Txn) {
		for i := 0; i < 8; i++ {
			tx.Load(a + Addr(i%4))
		}
		if tx.dedup || len(tx.reads) != 8 {
			t.Errorf("at the budget: dedup=%v, %d read entries, want bypass mode with 8", tx.dedup, len(tx.reads))
		}
		tx.Load(a)
		if !tx.dedup || len(tx.reads) != 4 {
			t.Errorf("past the budget: dedup=%v, %d read entries, want compacted to 4", tx.dedup, len(tx.reads))
		}
		for rep := 0; rep < 50; rep++ {
			for i := Addr(0); i < 4; i++ {
				tx.Load(a + i)
			}
		}
		if tx.ReadSetSize() != 4 {
			t.Errorf("ReadSetSize = %d, want 4", tx.ReadSetSize())
		}
	})
	if n := h.Stats().DedupEngages; n != 1 {
		t.Errorf("DedupEngages = %d, want 1", n)
	}
}

// TestReadSetCapacityStillEnforced checks that dedup did not weaken the
// capacity bound for genuinely distinct reads.
func TestReadSetCapacityStillEnforced(t *testing.T) {
	h := newTestHeap(t, Config{MaxReadSet: 16})
	th := h.NewThread()
	a := th.Alloc(32)
	err := th.TryAtomic(func(tx *Txn) {
		for i := Addr(0); i < 32; i++ {
			tx.Load(a + i)
		}
	})
	ab, ok := err.(*AbortError)
	if !ok || ab.Code != AbortCapacity {
		t.Fatalf("err = %v, want AbortCapacity", err)
	}
}

// TestWriteSetIndexAgainstReference is the property test for the indexed
// write set: a long pseudo-random sequence of loads and stores over a pool of
// addresses is mirrored in a plain map, checking read-own-writes, overwrite
// semantics, distinct-word counting, and post-commit memory — across set
// sizes on both sides of the linear threshold.
func TestWriteSetIndexAgainstReference(t *testing.T) {
	for _, pool := range []int{4, setLinearMax, setLinearMax + 1, 64, 200} {
		h := NewHeap(Config{Words: 1 << 16, StoreBufferSize: -1})
		th := h.NewThread()
		a := th.Alloc(pool)
		model := make(map[Addr]uint64)
		rng := uint64(pool)*0x9E3779B97F4A7C15 | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		th.Atomic(func(tx *Txn) {
			for k := range model {
				delete(model, k)
			}
			for op := 0; op < 4*pool; op++ {
				addr := a + Addr(next()%uint64(pool))
				if next()%2 == 0 {
					v := next()
					tx.Store(addr, v)
					model[addr] = v
				} else {
					got := tx.Load(addr)
					want := model[addr] // zero if never written: fresh block
					if got != want {
						t.Fatalf("pool=%d op=%d: Load(%#x) = %d, want %d", pool, op, uint32(addr), got, want)
					}
				}
			}
			if tx.WriteSetSize() != len(model) {
				t.Errorf("pool=%d: WriteSetSize = %d, want %d distinct", pool, tx.WriteSetSize(), len(model))
			}
		})
		for addr, want := range model {
			if got := h.LoadNT(addr); got != want {
				t.Errorf("pool=%d: committed word %#x = %d, want %d", pool, uint32(addr), got, want)
			}
		}
	}
}

// TestOverflowThresholdUnchangedByIndex checks that the indexed write set
// still aborts on exactly StoreBufferSize+1 distinct words — and not on
// overwrites of already-buffered words.
func TestOverflowThresholdUnchangedByIndex(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 16})
	th := h.NewThread()
	a := th.Alloc(RockStoreBufferSize + 1)
	err := th.TryAtomic(func(tx *Txn) {
		for i := Addr(0); i < RockStoreBufferSize; i++ {
			tx.Store(a+i, 1)
		}
		// Overwrites of buffered words must not count against the limit.
		for i := Addr(0); i < RockStoreBufferSize; i++ {
			tx.Store(a+i, 2)
		}
	})
	if err != nil {
		t.Fatalf("exactly StoreBufferSize distinct words aborted: %v", err)
	}
	err = th.TryAtomic(func(tx *Txn) {
		for i := Addr(0); i <= RockStoreBufferSize; i++ {
			tx.Store(a+i, 1)
		}
	})
	ab, ok := err.(*AbortError)
	if !ok || ab.Code != AbortOverflow {
		t.Fatalf("err = %v, want AbortOverflow at %d distinct words", err, RockStoreBufferSize+1)
	}
}

// TestMagazineStress exercises magazine refill/drain under concurrency, with
// blocks handed off between threads so frees drain into shards the allocating
// thread never touched. Run under -race it also checks the thread-ownership
// discipline of magazines and stat cells.
func TestMagazineStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	h := NewHeap(Config{Words: 1 << 20})
	const workers = 8
	const rounds = 4000
	handoff := make(chan Addr, 256)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := h.NewThread()
			rng := seed*2654435761 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			local := make([]Addr, 0, 64)
			for i := 0; i < rounds; i++ {
				switch next() % 4 {
				case 0: // alloc a magazine-class block, sizes straddling classes
					size := int(next()%uint64(maxMagSize)) + 1
					local = append(local, th.Alloc(size))
				case 1: // free the newest local block
					if n := len(local); n > 0 {
						th.Free(local[n-1])
						local = local[:n-1]
					}
				case 2: // hand a block to another thread
					if n := len(local); n > 0 {
						select {
						case handoff <- local[n-1]:
							local = local[:n-1]
						default:
						}
					}
				case 3: // free a block allocated elsewhere
					select {
					case a := <-handoff:
						th.Free(a)
					default:
					}
				}
			}
			for _, a := range local {
				th.Free(a)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	close(handoff)
	fin := h.NewThread()
	for a := range handoff {
		fin.Free(a)
	}
	s := h.Stats()
	if s.AllocCalls != s.FreeCalls {
		t.Errorf("allocCalls=%d freeCalls=%d after full drain", s.AllocCalls, s.FreeCalls)
	}
	if s.LiveWords != 0 {
		t.Errorf("LiveWords = %d at quiescence, want 0", s.LiveWords)
	}
}

// TestMagazineRecyclingCrossSize checks that blocks freed into a magazine are
// recycled for the same size class only, and that drained blocks reappear via
// shard refills rather than leaking: alloc/free churn far beyond magCap per
// class must never exhaust a modest arena.
func TestMagazineRecyclingCrossSize(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 14})
	th := h.NewThread()
	for round := 0; round < 10000; round++ {
		size := round%maxMagSize + 1
		a := th.Alloc(size)
		if got := th.BlockSize(a); got != size {
			t.Fatalf("BlockSize = %d, want %d", got, size)
		}
		th.Free(a)
	}
	if live := h.Stats().LiveWords; live != 0 {
		t.Fatalf("LiveWords = %d after matched churn, want 0", live)
	}
}

// TestZeroAllocSteadyState asserts the acceptance criterion directly: after
// warmup, Txn.Load/Txn.Store transactions and Thread.Alloc/Free pairs run
// with zero Go allocations per operation.
func TestZeroAllocSteadyState(t *testing.T) {
	// Unbounded store buffer: 64 distinct writes exercise the indexed sets.
	h := NewHeap(Config{Words: 1 << 16, StoreBufferSize: -1})
	th := h.NewThread()
	a := th.Alloc(64)

	txnBody := func(tx *Txn) {
		for i := Addr(0); i < 64; i++ {
			tx.Store(a+i, tx.Load(a+i)+1)
		}
	}
	runTxn := func() { th.Atomic(txnBody) }
	runTxn() // warmup: grow read/write sets, indexes, filter
	if n := testing.AllocsPerRun(200, runTxn); n != 0 {
		t.Errorf("Txn.Load/Store steady state allocates %.1f allocs/op, want 0", n)
	}

	runAlloc := func() { th.Free(th.Alloc(4)) }
	runAlloc() // warmup: populate the magazine
	if n := testing.AllocsPerRun(200, runAlloc); n != 0 {
		t.Errorf("Thread.Alloc/Free steady state allocates %.1f allocs/op, want 0", n)
	}

	// Read-only transactions run the dedup-bypass fast path (append-only read
	// set, no filter maintenance); it too must be allocation-free once the
	// read-set slice has grown.
	runRO := func() {
		th.Atomic(func(tx *Txn) {
			var s uint64
			for i := Addr(0); i < 64; i++ {
				s += tx.Load(a + i)
			}
			_ = s
		})
	}
	runRO() // warmup: grow the read set
	if n := testing.AllocsPerRun(200, runRO); n != 0 {
		t.Errorf("read-only bypass steady state allocates %.1f allocs/op, want 0", n)
	}
}

// TestYieldThreshold pins the YieldEvery -> compare-threshold conversion,
// including the YieldEvery=1 saturation case (a naive 2^64/1+1 wraps to zero
// and would silently disable yielding).
func TestYieldThreshold(t *testing.T) {
	if got := yieldThreshold(0); got != 0 {
		t.Errorf("yieldThreshold(0) = %d, want 0 (never yield)", got)
	}
	if got := yieldThreshold(-1); got != 0 {
		t.Errorf("yieldThreshold(-1) = %d, want 0", got)
	}
	if got := yieldThreshold(1); got != ^uint64(0) {
		t.Errorf("yieldThreshold(1) = %d, want max (always yield)", got)
	}
	if got := yieldThreshold(4); got != 1<<62 {
		t.Errorf("yieldThreshold(4) = %d, want 2^62", got)
	}
}

// TestNoMaxLiveStats checks the NoMaxLive mode: LiveWords derived from the
// per-thread cells is exact at quiescence, and MaxLiveWords records the
// largest live count seen at a snapshot (a lower bound on the true peak).
func TestNoMaxLiveStats(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 16, NoMaxLive: true})
	th := h.NewThread()
	a := th.Alloc(10)
	b := th.Alloc(20)
	if live := h.Stats().LiveWords; live != 30 {
		t.Errorf("LiveWords = %d, want 30", live)
	}
	if max := h.Stats().MaxLiveWords; max != 30 {
		t.Errorf("MaxLiveWords = %d, want 30 (snapshot observed 30 live)", max)
	}
	th.Free(b)
	if live := h.Stats().LiveWords; live != 10 {
		t.Errorf("LiveWords after free = %d, want 10", live)
	}
	if max := h.Stats().MaxLiveWords; max != 30 {
		t.Errorf("MaxLiveWords = %d, want 30 retained", max)
	}
	h.ResetMaxLive()
	if max := h.Stats().MaxLiveWords; max != 10 {
		t.Errorf("MaxLiveWords after reset = %d, want 10", max)
	}
	th.Free(a)
}

// TestStatsAggregationAcrossThreads checks that Heap.Stats sums the sharded
// per-thread cells: counters attributed to different threads all appear.
func TestStatsAggregationAcrossThreads(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 16})
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			a := th.Alloc(2)
			th.Atomic(func(tx *Txn) { tx.Store(a, 1) })
			th.Free(a)
		}()
	}
	wg.Wait()
	s := h.Stats()
	if s.Commits != workers {
		t.Errorf("Commits = %d, want %d", s.Commits, workers)
	}
	if s.AllocCalls != workers || s.FreeCalls != workers {
		t.Errorf("AllocCalls/FreeCalls = %d/%d, want %d/%d", s.AllocCalls, s.FreeCalls, workers, workers)
	}
	if s.LiveWords != 0 {
		t.Errorf("LiveWords = %d, want 0", s.LiveWords)
	}
}
