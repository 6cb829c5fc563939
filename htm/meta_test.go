package htm

import (
	"errors"
	"sync"
	"testing"
)

// Tests for the unified per-line metadata encoding: one 64-bit word carrying
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
// discipline: allocate and free each tick the version clock exactly once per
// block (one fresh version stamps every word of the transition), not once per
// word.
func TestAllocFreeSingleTickPerTransition(t *testing.T) {
	for _, row := range clockRows {
		t.Run(row.name, func(t *testing.T) {
			h := newTestHeap(t, row.cfg)
			th := h.NewThread()
			a := th.Alloc(8)
			before := h.ClockNow()
			th.Free(a)
			if got := h.ClockNow(); got != before+1 {
				t.Errorf("free of 8-word block ticked the clock %d times, want 1", got-before)
			}
			b := th.Alloc(8)
			if got := h.ClockNow(); got != before+2 {
				t.Errorf("alloc of 8-word block ticked the clock %d times, want 1", got-before-1)
			}
			if b != a {
				t.Logf("allocator did not recycle (%#x -> %#x); tick counts still checked", uint32(a), uint32(b))
			}
		})
	}
}

// TestReallocVersionExceedsFreeVersion checks the linchpin of the sandbox
// argument: versions are strictly monotonic across a block's free and reuse,
// so the metadata words never repeat — and a transaction holding a pre-free
// read can never accept post-reallocation state without an extension that
// revalidates (and fails on) the old entry.
func TestReallocVersionExceedsFreeVersion(t *testing.T) {
	for _, row := range clockRows {
		t.Run(row.name, func(t *testing.T) {
			h := newTestHeap(t, row.cfg)
			th := h.NewThread()
			a := th.Alloc(2)
			h.StoreNT(a, 1) // bump the word's version past its birth version
			liveMeta := h.meta[lineOf(a)].Load()
			th.Free(a)
			freedMeta := h.meta[lineOf(a)].Load()
			if metaAllocated(freedMeta) {
				t.Fatal("freed word still marked allocated")
			}
			if freedMeta == liveMeta {
				t.Error("free did not rewrite the metadata word")
			}
			if metaVersion(freedMeta) <= metaVersion(liveMeta) {
				t.Errorf("free did not advance the version: %d -> %d",
					metaVersion(liveMeta), metaVersion(freedMeta))
			}
			b := th.Alloc(2)
			if b != a {
				t.Skipf("allocator did not recycle the block (%#x -> %#x)", uint32(a), uint32(b))
			}
			reusedMeta := h.meta[lineOf(a)].Load()
			if !metaAllocated(reusedMeta) {
				t.Fatal("reallocated word not marked allocated")
			}
			if metaVersion(reusedMeta) <= metaVersion(freedMeta) {
				t.Errorf("realloc did not advance the version: %d -> %d",
					metaVersion(freedMeta), metaVersion(reusedMeta))
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
						nb = mut.Alloc(2) // the class's free list: reuses blk
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
// merged encoding: acquisition CASes each written line from the metadata
// recorded at its first Store, so a block freed between Store and commit fails
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
						nb := mut.Alloc(1) // the class's free list: reuses blk
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

// TestDedupBypassCapacityRegression is the regression test for the read-set
// capacity guarantee under repeats: repeated loads of a tiny distinct working
// set must not abort with AbortCapacity even though every load that changes
// line appends an entry — a full set is compacted to its distinct lines, and
// the loads go on from there (the original repeated-Load AbortCapacity fix).
// Its four words sit on four lines, so that every load starts a run.
func TestDedupBypassCapacityRegression(t *testing.T) {
	h := newTestHeap(t, Config{MaxReadSet: 8})
	th := h.NewThread()
	a := th.Alloc(4 << lineShift)
	err := th.TryAtomic(func(tx *Txn) {
		// 400 loads of 4 distinct lines: the set fills at 8 entries and is
		// compacted to 4, again and again.
		for rep := 0; rep < 100; rep++ {
			for i := Addr(0); i < 4; i++ {
				tx.Load(a + i<<lineShift)
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

// TestDedupBypassWriteTxnDuplicates checks that a write transaction whose read
// set still holds several entries for one line at commit time validates and
// commits correctly (each entry re-checks the same metadata word), and that
// ReadSetSize compacts on demand without perturbing the outcome. Its two
// words sit on two lines, so that alternating loads append an entry each.
func TestDedupBypassWriteTxnDuplicates(t *testing.T) {
	h := newTestHeap(t, Config{MaxReadSet: 100})
	th := h.NewThread()
	a := th.Alloc(2 << lineShift)
	b := a + 1<<lineShift
	err := th.TryAtomic(func(tx *Txn) {
		var s uint64
		for rep := 0; rep < 16; rep++ { // 32 entries, well below the bound
			s += tx.Load(a) + tx.Load(b)
		}
		tx.Store(a, s)
		if n := tx.ReadSetSize(); n != 2 { // compacts 32 entries to 2
			t.Errorf("ReadSetSize = %d after compaction, want 2", n)
		}
		for rep := 0; rep < 16; rep++ { // the last entry's line: no entries
			s += tx.Load(b)
		}
		if n := tx.ReadSetSize(); n != 2 {
			t.Errorf("ReadSetSize = %d after reloads, want 2", n)
		}
	})
	if err != nil {
		t.Fatalf("write txn with duplicated reads aborted: %v", err)
	}
	if v := h.LoadNT(a); v != 0 {
		// 16 reps of (0 + 0) = 0; the point is the commit succeeded.
		t.Errorf("committed value = %d, want 0", v)
	}
}
