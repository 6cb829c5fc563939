package htm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Tests for the unified per-word metadata encoding: one 64-bit word carrying
// {lock, allocated, version}, where alloc/free transitions are single CASes
// and a transactional load's whole validation predicate is one atomic read.

func TestMetaEncodingRoundTrip(t *testing.T) {
	for _, ver := range []uint64{0, 1, 42, 1 << 40, (1 << 62) - 1} {
		for _, alloc := range []bool{false, true} {
			m := makeMeta(ver, alloc)
			if metaVersion(m) != ver {
				t.Errorf("metaVersion(makeMeta(%d,%v)) = %d", ver, alloc, metaVersion(m))
			}
			if metaAllocated(m) != alloc {
				t.Errorf("metaAllocated(makeMeta(%d,%v)) = %v", ver, alloc, metaAllocated(m))
			}
			if metaLocked(m) {
				t.Errorf("makeMeta(%d,%v) is born locked", ver, alloc)
			}
			if !metaLocked(m | metaLockBit) {
				t.Error("lock bit not observed")
			}
			if metaVersion(m|metaLockBit) != ver {
				t.Error("lock bit corrupts version")
			}
		}
	}
}

// TestAllocFreeSingleTickPerTransition pins the merged design's clock
// discipline, shard-relatively: allocate and free each tick the owning
// thread's home clock shard exactly once per block (one fresh version stamps
// every word of the transition), not once per word — and no other shard
// moves.
func TestAllocFreeSingleTickPerTransition(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := newTestHeap(t, Config{ClockShards: shards})
			th := h.NewThread()
			a := th.Alloc(8)
			before := h.ClockNow()
			home := th.ClockShard()
			homeBefore := h.ClockShardNow(home)
			th.Free(a)
			if got := h.ClockNow(); got != before+1 {
				t.Errorf("free of 8-word block ticked clocks %d times, want 1", got-before)
			}
			if got := h.ClockShardNow(home); got != homeBefore+1 {
				t.Errorf("free ticked home shard %d times, want 1", got-homeBefore)
			}
			b := th.Alloc(8)
			if got := h.ClockNow(); got != before+2 {
				t.Errorf("alloc of 8-word block ticked clocks %d times, want 1", got-before-1)
			}
			if got := h.ClockShardNow(home); got != homeBefore+2 {
				t.Errorf("alloc ticked home shard %d times, want 1", got-homeBefore-1)
			}
			if b != a {
				t.Logf("allocator did not recycle (%#x -> %#x); tick counts still checked", uint32(a), uint32(b))
			}
		})
	}
}

// TestReallocVersionExceedsFreeVersion checks the linchpin of the sandbox
// argument, per shard: within one clock shard versions are strictly
// monotonic across a block's free and reuse, and across shards the encoded
// metadata words never repeat — so a transaction holding a pre-free read can
// never accept post-reallocation state without an extension that revalidates
// (and fails on) the old entry, whatever shards the transitions ticked.
func TestReallocVersionExceedsFreeVersion(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := newTestHeap(t, Config{ClockShards: shards})
			th := h.NewThread()
			a := th.Alloc(2)
			h.StoreNT(a, 1) // bump the word's version past its birth version
			liveMeta := h.meta[a].Load()
			th.Free(a)
			freedMeta := h.meta[a].Load()
			if metaAllocated(freedMeta) {
				t.Fatal("freed word still marked allocated")
			}
			if freedMeta == liveMeta {
				t.Error("free did not rewrite the metadata word")
			}
			// The free ticked th's home shard; shard-relative monotonicity
			// only compares versions drawn from one shard.
			if s := h.versionShard(metaVersion(freedMeta)); s != th.ClockShard() {
				t.Errorf("free versioned from shard %d, want home shard %d", s, th.ClockShard())
			}
			if h.versionShard(metaVersion(liveMeta)) == h.versionShard(metaVersion(freedMeta)) &&
				h.versionTick(metaVersion(freedMeta)) <= h.versionTick(metaVersion(liveMeta)) {
				t.Errorf("free did not advance its shard's version: %d -> %d",
					h.versionTick(metaVersion(liveMeta)), h.versionTick(metaVersion(freedMeta)))
			}
			b := th.Alloc(2)
			if b != a {
				t.Skipf("allocator did not recycle the block (%#x -> %#x)", uint32(a), uint32(b))
			}
			reusedMeta := h.meta[a].Load()
			if !metaAllocated(reusedMeta) {
				t.Fatal("reallocated word not marked allocated")
			}
			// Free and realloc ran on the same thread, hence the same home
			// shard: the tick comparison is exact, pinning per-shard
			// monotonicity across reuse.
			if s := h.versionShard(metaVersion(reusedMeta)); s != th.ClockShard() {
				t.Errorf("realloc versioned from shard %d, want home shard %d", s, th.ClockShard())
			}
			if h.versionTick(metaVersion(reusedMeta)) <= h.versionTick(metaVersion(freedMeta)) {
				t.Errorf("realloc did not advance its shard's version: %d -> %d",
					h.versionTick(metaVersion(freedMeta)), h.versionTick(metaVersion(reusedMeta)))
			}
		})
	}
}

// TestFreeInvalidatesReadOnlySnapshot is the deterministic port of the racing
// free-vs-read-only-snapshot sandbox test to the merged word layout: a
// read-only transaction reads word 0 of a block, the block is freed (and in
// the reuse variants reallocated — zero-filled then rewritten with NT stores,
// or born holding its new contents via AllocInit) between that read and the
// read of word 1, and the transaction must abort rather than pair pre-free and
// post-free state. The version-bump-on-free IS the generation flip, so the
// single metadata reread at revalidation is what catches it; AllocInit writes
// the new payload before it publishes the allocation, and the reader's entry
// from the block's previous life is what keeps it from seeing that payload.
func TestFreeInvalidatesReadOnlySnapshot(t *testing.T) {
	for _, mode := range []string{"freed", "freed-and-reused", "freed-and-reborn-initialized"} {
		t.Run(mode, func(t *testing.T) {
			h := newTestHeap(t, Config{})
			reader := h.NewThread()
			mut := h.NewThread()
			blk := mut.AllocInit([]uint64{7, 7})
			raced := false
			var x, y uint64
			err := reader.TryAtomic(func(tx *Txn) {
				x = tx.Load(blk)
				if !raced {
					raced = true
					mut.Free(blk)
					nb := blk
					switch mode {
					case "freed-and-reused":
						nb = mut.Alloc(2) // exact-size free list: reuses blk
						h.StoreNT(nb, 9)
						h.StoreNT(nb+1, 9)
					case "freed-and-reborn-initialized":
						nb = mut.AllocInit([]uint64{9, 9})
					}
					if nb != blk {
						t.Skipf("allocator did not recycle (%#x -> %#x)", uint32(blk), uint32(nb))
					}
				}
				y = tx.Load(blk + 1)
			})
			var ab *AbortError
			if !errors.As(err, &ab) {
				t.Fatalf("snapshot spanning a racing free committed with (%d,%d), want abort", x, y)
			}
			want := AbortConflict // reused word forces extension; revalidation fails
			if mode == "freed" {
				want = AbortIllegal // load of a freed word
			}
			if ab.Code != want {
				t.Errorf("abort code = %v, want %v", ab.Code, want)
			}
		})
	}
}

// TestCommitToFreedWordAborts drives the commit-time acquisition path of the
// merged encoding: acquisition CASes each written word from the metadata
// recorded at Store time, so a block freed between Store and commit fails
// the acquisition — with AbortIllegal if still free (never locked), and with
// AbortConflict if already reused (the recorded version can never recur), so
// a blind write can never land in a reused block's new life.
func TestCommitToFreedWordAborts(t *testing.T) {
	for _, realloc := range []bool{false, true} {
		name := "freed"
		if realloc {
			name = "freed-and-reused"
		}
		t.Run(name, func(t *testing.T) {
			h := newTestHeap(t, Config{})
			writer := h.NewThread()
			mut := h.NewThread()
			blk := mut.Alloc(1)
			raced := false
			err := writer.TryAtomic(func(tx *Txn) {
				tx.Store(blk, 5)
				if !raced {
					raced = true
					mut.Free(blk)
					if realloc {
						nb := mut.Alloc(1) // exact-size free list: reuses blk
						if nb != blk {
							t.Skipf("allocator did not recycle (%#x -> %#x)", uint32(blk), uint32(nb))
						}
						h.StoreNT(nb, 9)
					}
				}
			})
			var ab *AbortError
			if !errors.As(err, &ab) {
				t.Fatalf("commit to freed word succeeded: %v", err)
			}
			if realloc {
				if ab.Code != AbortConflict {
					t.Errorf("abort code = %v, want AbortConflict for a reused word", ab.Code)
				}
				if v := h.LoadNT(blk); v != 9 {
					t.Errorf("blind write leaked into the reused block: %d, want 9", v)
				}
			} else {
				if ab.Code != AbortIllegal {
					t.Errorf("abort code = %v, want AbortIllegal for a free word", ab.Code)
				}
				if h.allocated(blk) {
					t.Error("aborted commit resurrected a freed word")
				}
			}
		})
	}
}

// TestStressMixedTxnNTAllocFree interleaves all four access classes on shared
// blocks — transactional loads/stores, strongly atomic NT operations,
// allocation, and free — under -race. Mutators swap fresh blocks into shared
// pointer slots transactionally (freeing the unlinked block on commit, the
// paper's idiom), readers chase the pointers transactionally and must never
// observe a torn object through freed/reused memory, and every thread churns
// NT traffic on private scratch blocks that recycle through the same
// allocator the shared blocks use.
func TestStressMixedTxnNTAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	h := newTestHeap(t, Config{})
	setup := h.NewThread()
	const slots = 4
	const blockWords = 4
	ptrs := setup.Alloc(slots)
	for i := Addr(0); i < slots; i++ {
		b := setup.Alloc(blockWords)
		for w := Addr(0); w < blockWords; w++ {
			h.StoreNT(b+w, 1)
		}
		h.StoreNT(ptrs+i, uint64(b))
	}

	const workers = 6
	const rounds = 2500
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := h.NewThread()
			scratch := th.Alloc(2)
			rng := seed*2654435761 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; i < rounds; i++ {
				slot := ptrs + Addr(next()%slots)
				switch next() % 4 {
				case 0: // transactional snapshot of one shared block
					var vals [blockWords]uint64
					th.Atomic(func(tx *Txn) {
						b := Addr(tx.Load(slot))
						for w := Addr(0); w < blockWords; w++ {
							vals[w] = tx.Load(b + w)
						}
					})
					for w := 1; w < blockWords; w++ {
						if vals[w] != vals[0] {
							errs <- "torn object observed through freed/reused memory"
							return
						}
					}
				case 1: // swap in a fresh block, free the unlinked one on commit
					v := next()
					nb := th.Alloc(blockWords)
					for w := Addr(0); w < blockWords; w++ {
						h.StoreNT(nb+w, v)
					}
					th.Atomic(func(tx *Txn) {
						old := Addr(tx.Load(slot))
						tx.Store(slot, uint64(nb))
						tx.FreeOnCommit(old)
					})
				case 2: // NT churn on the private scratch block
					h.AddNT(scratch, 1)
					old := h.LoadNT(scratch + 1)
					h.CASNT(scratch+1, old, old+2)
				case 3: // allocator churn: recycle through the shared free lists
					th.Free(scratch)
					scratch = th.Alloc(2)
					h.StoreNT(scratch, next())
				}
			}
			th.Free(scratch)
		}(uint64(wk + 1))
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	// All four words of every published block must agree at quiescence too.
	fin := h.NewThread()
	for i := Addr(0); i < slots; i++ {
		var vals [blockWords]uint64
		fin.Atomic(func(tx *Txn) {
			b := Addr(tx.Load(ptrs + i))
			for w := Addr(0); w < blockWords; w++ {
				vals[w] = tx.Load(b + w)
			}
		})
		for w := 1; w < blockWords; w++ {
			if vals[w] != vals[0] {
				t.Fatalf("slot %d torn at quiescence: %v", i, vals)
			}
		}
	}
}

// TestDedupBypassCapacityRegression is the regression test for the adaptive
// read-set dedup bypass: repeated loads of a tiny distinct working set must
// not abort with AbortCapacity even though bypass mode appends duplicate
// entries — MaxReadSet pressure engages the filter, compaction drops the
// duplicates, and the filtered regime dedups from then on (the original
// repeated-Load AbortCapacity fix, preserved across the bypass).
func TestDedupBypassCapacityRegression(t *testing.T) {
	h := newTestHeap(t, Config{MaxReadSet: 8})
	th := h.NewThread()
	a := th.Alloc(4)
	err := th.TryAtomic(func(tx *Txn) {
		// 400 loads of 4 distinct words: bypass appends until pressure
		// (MaxReadSet/2 = 4 entries), then the engaged filter takes over.
		for rep := 0; rep < 100; rep++ {
			for i := Addr(0); i < 4; i++ {
				tx.Load(a + i)
			}
		}
		if n := tx.ReadSetSize(); n != 4 {
			t.Errorf("ReadSetSize = %d after repeated loads, want 4", n)
		}
	})
	if err != nil {
		t.Fatalf("distinct read set of 4 within MaxReadSet=8 aborted: %v", err)
	}
}

// TestDedupBypassWriteTxnDuplicates checks that a write transaction whose
// bypass-mode read set still holds duplicates at commit time validates and
// commits correctly (each duplicate entry re-checks the same metadata word),
// and that ReadSetSize compacts on demand — engaging the filter — without
// perturbing the outcome.
func TestDedupBypassWriteTxnDuplicates(t *testing.T) {
	h := newTestHeap(t, Config{MaxReadSet: 100})
	th := h.NewThread()
	a := th.Alloc(2)
	err := th.TryAtomic(func(tx *Txn) {
		var s uint64
		for rep := 0; rep < 16; rep++ { // stays below pressure: bypass all the way
			s += tx.Load(a) + tx.Load(a+1)
		}
		tx.Store(a, s)
		if n := tx.ReadSetSize(); n != 2 { // compacts 32 entries to 2, engages filter
			t.Errorf("ReadSetSize = %d after compaction, want 2", n)
		}
		for rep := 0; rep < 16; rep++ { // filtered from here on
			s += tx.Load(a + 1)
		}
		if n := tx.ReadSetSize(); n != 2 {
			t.Errorf("ReadSetSize = %d after filtered reloads, want 2", n)
		}
	})
	if err != nil {
		t.Fatalf("write txn with duplicated bypass reads aborted: %v", err)
	}
	if v := h.LoadNT(a); v != 0 {
		// 16 reps of (0 + 0) = 0; the point is the commit succeeded.
		t.Errorf("committed value = %d, want 0", v)
	}
}
