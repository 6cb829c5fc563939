package htm

import (
	"testing"
)

// Substrate microbenchmarks. Every figure in the paper is throughput of
// operations built from these primitives, so their per-op cost and alloc
// behaviour bound everything the harness can measure.

// BenchmarkTxnLoadStore measures the transactional load/store fast path on a
// small working set, including read-own-writes and repeated reads of the same
// address — the access pattern of the paper's Collect loops.
func BenchmarkTxnLoadStore(b *testing.B) {
	b.Run("words=8", func(b *testing.B) {
		benchTxnLoadStore(b, Config{Words: 1 << 16}, 8)
	})
	// 64 distinct words exceeds the small-set linear fast path and exercises
	// the indexed read/write set (unbounded store buffer: a "future HTM").
	b.Run("words=64", func(b *testing.B) {
		benchTxnLoadStore(b, Config{Words: 1 << 16, StoreBufferSize: -1}, 64)
	})
}

func benchTxnLoadStore(b *testing.B, cfg Config, words int) {
	h := NewHeap(cfg)
	th := h.NewThread()
	a := th.Alloc(words)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(t *Txn) {
			for w := 0; w < words; w++ {
				addr := a + Addr(w)
				v := t.Load(addr)  // first read: enters the read set
				t.Store(addr, v+1) // write: enters the write set
				_ = t.Load(addr)   // read-own-write: must hit the write set
				_ = t.Load(a)      // repeated read: must not grow the read set
			}
		})
	}
}

// BenchmarkTxnReadOnly measures a pure read transaction over a scan-shaped
// working set (no writes, so commit is free and validation cost dominates).
func BenchmarkTxnReadOnly(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 16})
	th := h.NewThread()
	const words = 32
	a := th.Alloc(words)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(t *Txn) {
			var s uint64
			for w := 0; w < words; w++ {
				s += t.Load(a + Addr(w))
			}
			_ = s
		})
	}
}

// BenchmarkTxnLoadWords16 is the bulk form of BenchmarkTxnReadOnly's inner
// loop at the KV engine's value size: one read-only transaction copying a
// 16-word block out with Txn.LoadWords. The caller's buffer is the only
// destination, so anything it allocates is a regression.
func BenchmarkTxnLoadWords16(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 16})
	th := h.NewThread()
	var img, dst [16]uint64
	for i := range img {
		img[i] = uint64(i) + 1
	}
	a := th.AllocInit(img[:])
	body := func(t *Txn) { t.LoadWords(a, dst[:]) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(body)
	}
	b.StopTimer()
	if dst != img {
		b.Fatalf("LoadWords read %v, want %v", dst, img)
	}
	if n := testing.AllocsPerRun(100, func() { th.Atomic(body) }); n != 0 {
		b.Fatalf("LoadWords transaction allocates %.1f times per op, want 0", n)
	}
}

// BenchmarkTxnLoadWordsBlocks is a Scan-page-shaped read: one read-only
// transaction copying 32 scattered 23-word blocks (a 22-byte key and 128-byte
// value behind a 4-word header) out with one Txn.LoadWords each — 736 words,
// so ns/op ÷ 736 is the kernel's cost per word with the begin/commit diluted.
func BenchmarkTxnLoadWordsBlocks(b *testing.B) {
	const blocks, words = 32, 23
	h := NewHeap(Config{Words: 1 << 16})
	th := h.NewThread()
	var img, dst [words]uint64
	for i := range img {
		img[i] = uint64(i) + 1
	}
	var at [blocks]Addr
	for i := range at {
		at[i] = th.AllocInit(img[:])
		th.Alloc(5 + i%7) // spacer: the blocks are not one contiguous run
	}
	body := func(t *Txn) {
		for _, a := range at {
			t.LoadWords(a, dst[:])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(body)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(blocks*words), "ns/word")
	if dst != img {
		b.Fatalf("LoadWords read %v, want %v", dst, img)
	}
	if n := testing.AllocsPerRun(100, func() { th.Atomic(body) }); n != 0 {
		b.Fatalf("LoadWords transaction allocates %.1f times per op, want 0", n)
	}
}

// BenchmarkTxnLoadStrided is a Collect-step-shaped read: one read-only
// transaction gathering the 32 value words of a 64-word slot array of
// two-word slots, top slot first, with one Txn.LoadStrided at stride -2. Each
// slot was filled by its own commit, as registrations fill a Collect array, so
// no two words read share a metadata value. ns/op ÷ 32 is the kernel's cost
// per word with the begin/commit diluted.
func BenchmarkTxnLoadStrided(b *testing.B) {
	const slots = 32
	h := NewHeap(Config{Words: 1 << 16})
	th := h.NewThread()
	arr := th.Alloc(2 * slots)
	for i := Addr(0); i < slots; i++ {
		th.Atomic(func(t *Txn) { t.Store(arr+2*i, uint64(i)+1) })
	}
	var dst [slots]uint64
	body := func(t *Txn) { t.LoadStrided(arr+2*(slots-1), -2, dst[:]) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(body)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/slots, "ns/word")
	for i, v := range dst {
		if v != slots-uint64(i) {
			b.Fatalf("LoadStrided read %v, want the slot values top down", dst)
		}
	}
	if n := testing.AllocsPerRun(100, func() { th.Atomic(body) }); n != 0 {
		b.Fatalf("LoadStrided transaction allocates %.1f times per op, want 0", n)
	}
}

// BenchmarkTxnStoreWords32 is one write transaction buffering a
// store-buffer's worth of consecutive words with Txn.StoreWords and committing
// them. The write set never sees a lookup, so the lazy index costs it nothing.
func BenchmarkTxnStoreWords32(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 16})
	th := h.NewThread()
	var src, got [RockStoreBufferSize]uint64
	for i := range src {
		src[i] = uint64(i) + 1
	}
	a := th.Alloc(len(src))
	body := func(t *Txn) { t.StoreWords(a, src[:]) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(body)
	}
	b.StopTimer()
	if h.LoadWordsNT(a, got[:]); got != src {
		b.Fatalf("StoreWords committed %v, want %v", got, src)
	}
	if n := testing.AllocsPerRun(100, func() { th.Atomic(body) }); n != 0 {
		b.Fatalf("StoreWords transaction allocates %.1f times per op, want 0", n)
	}
}

// BenchmarkLoadWordsNT64 copies 64 words out of the heap non-transactionally
// with one Heap.LoadWordsNT.
func BenchmarkLoadWordsNT64(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 16})
	var img, dst [64]uint64
	for i := range img {
		img[i] = uint64(i) + 1
	}
	a := h.NewThread().AllocInit(img[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.LoadWordsNT(a, dst[:])
	}
	b.StopTimer()
	if dst != img {
		b.Fatalf("LoadWordsNT read %v, want %v", dst, img)
	}
	if n := testing.AllocsPerRun(100, func() { h.LoadWordsNT(a, dst[:]) }); n != 0 {
		b.Fatalf("LoadWordsNT allocates %.1f times per op, want 0", n)
	}
}

// BenchmarkTxnRepeatedLoad measures the read-set dedup path: a small set of
// words each loaded many times in one transaction — the pattern that, before
// dedup, grew the read set unboundedly, inflated validation, and could abort
// with AbortCapacity despite a tiny distinct working set.
func BenchmarkTxnRepeatedLoad(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 16})
	th := h.NewThread()
	const words = 4
	a := th.Alloc(words)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(t *Txn) {
			var s uint64
			for rep := 0; rep < 64; rep++ {
				for w := 0; w < words; w++ {
					s += t.Load(a + Addr(w))
				}
			}
			// One store makes this a write transaction, so commit validates
			// the read set — the cost that duplicated read entries inflate.
			t.Store(a, s)
		})
	}
}

// BenchmarkFallbackOverflow measures the contended-overflow path at the
// substrate level: every operation overflows a tiny store buffer and
// completes on the TLE fallback, with all goroutines writing DISJOINT
// per-goroutine blocks. Under the fine-grained lock-set the operations share
// nothing and scale; under the global lock (the global variant) they
// serialize. This is the microbenchmark form of the harness
// contended-overflow workload (`cmd/figures fallback -exp scaling`).
func BenchmarkFallbackOverflow(b *testing.B) {
	run := func(global bool) func(b *testing.B) {
		return func(b *testing.B) {
			h := NewHeap(Config{
				Words:           1 << 20,
				StoreBufferSize: 2,
				EnableTLE:       true,
				MaxRetries:      1,
				GlobalFallback:  global,
				NoMaxLive:       true,
			})
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				th := h.NewThread()
				blk := th.Alloc(8)
				for pb.Next() {
					th.Atomic(func(t *Txn) {
						for w := Addr(0); w < 8; w++ {
							t.Store(blk+w, t.Load(blk+w)+1)
						}
					})
				}
			})
		}
	}
	b.Run("fine-grained", run(false))
	b.Run("global", run(true))
}

// BenchmarkAllocFree measures the allocator fast path: a matched alloc/free
// pair of a queue-node-sized block, single-threaded (the magazine hit path).
// The fastpath variant disables exact high-water tracking, as throughput runs
// do; tracked keeps the space-figure accounting on.
func BenchmarkAllocFree(b *testing.B) {
	run := func(cfg Config) func(b *testing.B) {
		return func(b *testing.B) {
			h := NewHeap(cfg)
			th := h.NewThread()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Free(th.Alloc(4))
			}
		}
	}
	b.Run("fastpath", run(Config{Words: 1 << 20, NoMaxLive: true}))
	b.Run("tracked", run(Config{Words: 1 << 20}))
}

// BenchmarkAllocInit16 is BenchmarkAllocFree's pair with the block born
// holding a 16-word image — the KV engine's Put-shaped allocation. The image
// is copied into the arena, never retained, so a stack image costs no heap
// allocation.
func BenchmarkAllocInit16(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 20, NoMaxLive: true})
	th := h.NewThread()
	var img [16]uint64
	for i := range img {
		img[i] = uint64(i) + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Free(th.AllocInit(img[:]))
	}
	b.StopTimer()
	if n := testing.AllocsPerRun(100, func() { th.Free(th.AllocInit(img[:])) }); n != 0 {
		b.Fatalf("AllocInit/Free allocates %.1f times per op, want 0", n)
	}
}

// BenchmarkAllocFreeParallel measures alloc/free with every goroutine on its
// own Thread — the uncontended steady state the magazine layer targets.
func BenchmarkAllocFreeParallel(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 22, NoMaxLive: true})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		th := h.NewThread()
		for pb.Next() {
			th.Free(th.Alloc(4))
		}
	})
}
