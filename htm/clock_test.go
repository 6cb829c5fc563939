package htm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Tests for the sharded version clock (Config.ClockShards) and the striped
// metadata commit (Config.StripeShift). The deterministic tests drive a
// second thread's commit from inside the first thread's transaction body —
// each Thread is used by one goroutine at a time, so this is legal — which
// pins the exact interleaving the shard/stripe machinery must survive.

// twoShardThreads returns two threads whose home clock shards differ,
// skipping the test if the round-robin assignment ever stops providing one.
func twoShardThreads(t *testing.T, h *Heap) (*Thread, *Thread) {
	t.Helper()
	reader := h.NewThread()
	for i := 0; i < 8; i++ {
		if writer := h.NewThread(); writer.ClockShard() != reader.ClockShard() {
			return reader, writer
		}
	}
	t.Skip("could not obtain threads on distinct clock shards")
	return nil, nil
}

// TestConfigClockShardNormalization pins the knob clamping: shard counts
// round up to powers of two, and both knobs saturate at their caps.
func TestConfigClockShardNormalization(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {MaxClockShards + 1, MaxClockShards},
	} {
		h := NewHeap(Config{Words: 1 << 10, ClockShards: tc.in})
		if got := h.ClockShards(); got != tc.want {
			t.Errorf("ClockShards %d normalized to %d, want %d", tc.in, got, tc.want)
		}
	}
	if h := NewHeap(Config{Words: 1 << 10, StripeShift: MaxStripeShift + 3}); h.StripeWords() != 1<<MaxStripeShift {
		t.Errorf("StripeShift did not clamp: stripe = %d words", h.StripeWords())
	}
	if h := NewHeap(Config{Words: 1 << 10}); h.ClockShards() != 1 || h.StripeWords() != 1 {
		t.Error("zero Config must select one shard and per-word metadata")
	}
}

// TestDisjointCommitsTickOwnShards is the zero-shared-RMW property in
// counter form: two threads homed on different shards commit disjoint
// write sets, and each commit moves exactly its own shard's clock — the
// other thread's shard is untouched, so no clock cache line was shared.
func TestDisjointCommitsTickOwnShards(t *testing.T) {
	h := newTestHeap(t, Config{ClockShards: 4})
	thA, thB := twoShardThreads(t, h)
	a, b := thA.Alloc(2), thB.Alloc(2)
	sA, sB := thA.ClockShard(), thB.ClockShard()
	beforeA, beforeB := h.ClockShardNow(sA), h.ClockShardNow(sB)
	thA.Atomic(func(tx *Txn) { tx.Store(a, 1) })
	thB.Atomic(func(tx *Txn) { tx.Store(b, 1) })
	if got := h.ClockShardNow(sA); got != beforeA+1 {
		t.Errorf("thread A's shard ticked %d times, want 1", got-beforeA)
	}
	if got := h.ClockShardNow(sB); got != beforeB+1 {
		t.Errorf("thread B's shard ticked %d times, want 1", got-beforeB)
	}
	// The published versions carry their shard IDs.
	if s := h.versionShard(metaVersion(h.meta[a].Load())); s != sA {
		t.Errorf("word a versioned from shard %d, want %d", s, sA)
	}
	if s := h.versionShard(metaVersion(h.meta[b].Load())); s != sB {
		t.Errorf("word b versioned from shard %d, want %d", s, sB)
	}
}

// TestCrossShardExtendSucceeds: a reader homed on shard A observes a version
// from shard B that postdates its begin snapshot of B. The read must force an
// extension, the extension must succeed (nothing the reader previously read
// changed), and the reader must see the writer's committed value.
func TestCrossShardExtendSucceeds(t *testing.T) {
	h := newTestHeap(t, Config{ClockShards: 4})
	reader, writer := twoShardThreads(t, h)
	x, y := reader.Alloc(1), reader.Alloc(1)
	wrote := false
	var got uint64
	reader.Atomic(func(tx *Txn) {
		tx.Load(x)
		if !wrote {
			wrote = true
			writer.Atomic(func(wx *Txn) { wx.Store(y, 42) })
		}
		got = tx.Load(y)
	})
	if got != 42 {
		t.Errorf("reader saw %d after cross-shard extension, want 42", got)
	}
	if s := h.versionShard(metaVersion(h.meta[y].Load())); s != writer.ClockShard() {
		t.Errorf("y versioned from shard %d, want writer's shard %d", s, writer.ClockShard())
	}
}

// TestCrossShardExtendAborts: same shape, but the cross-shard writer also
// rewrites a word the reader already read — the forced extension must fail
// revalidation and abort the attempt with AbortConflict rather than let the
// reader pair pre- and post-commit state.
func TestCrossShardExtendAborts(t *testing.T) {
	h := newTestHeap(t, Config{ClockShards: 4})
	reader, writer := twoShardThreads(t, h)
	x, y := reader.Alloc(1), reader.Alloc(1)
	err := reader.TryAtomic(func(tx *Txn) {
		tx.Load(x)
		writer.Atomic(func(wx *Txn) {
			wx.Store(x, 7) // invalidates the reader's snapshot
			wx.Store(y, 7)
		})
		tx.Load(y) // version above rv[writer's shard] -> extend -> must fail
		t.Error("reader survived a torn cross-shard snapshot")
	})
	if code := abortCodeOf(t, err); code != AbortConflict {
		t.Errorf("abort code = %v, want AbortConflict", code)
	}
}

func abortCodeOf(t *testing.T, err error) AbortCode {
	t.Helper()
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("expected *AbortError, got %v", err)
	}
	return ae.Code
}

// TestStripeAliasingConflict pins the stripe tradeoff both ways: two
// transactions touching DISTINCT words of one stripe conflict when striping
// is on (and the conflict shows up in Stats.StripeConflicts), while the same
// interleaving on distinct stripes — or with striping off — commits.
func TestStripeAliasingConflict(t *testing.T) {
	run := func(shift int, sameStripe bool) (error, Stats, *Heap) {
		h := newTestHeap(t, Config{StripeShift: shift})
		reader := h.NewThread()
		mut := h.NewThread()
		// One 3-word block occupies exactly one 4-word stripe (header+3);
		// two blocks never share a stripe (allocator alignment).
		blk := reader.Alloc(3)
		other := reader.Alloc(3)
		target := other
		if sameStripe {
			target = blk + 2 // distinct word, same stripe as blk+0
		}
		err := reader.TryAtomic(func(tx *Txn) {
			tx.Load(blk)
			mut.Atomic(func(mx *Txn) { mx.Store(target, 9) })
			tx.Load(blk + 1)
		})
		return err, h.Stats(), h
	}

	if err, st, _ := run(2, true); err == nil {
		t.Error("same-stripe write did not conflict with striping on")
	} else if code := abortCodeOf(t, err); code != AbortConflict {
		t.Errorf("same-stripe abort code = %v, want AbortConflict", code)
	} else if st.StripeConflicts == 0 {
		t.Error("StripeConflicts not counted for a striped conflict abort")
	}
	if err, st, _ := run(2, false); err != nil {
		t.Errorf("distinct-stripe write conflicted: %v", err)
	} else if st.StripeConflicts != 0 {
		t.Errorf("StripeConflicts = %d for disjoint stripes, want 0", st.StripeConflicts)
	}
	if err, st, _ := run(0, true); err != nil {
		t.Errorf("striping off: distinct-word write conflicted: %v", err)
	} else if st.StripeConflicts != 0 {
		t.Errorf("StripeConflicts = %d without striping, want 0", st.StripeConflicts)
	}
}

// TestStripeWriteWriteAliasing: the commit-time acquisition CAS operates on
// stripe metadata, so a concurrent commit to a DIFFERENT word of the same
// stripe fails this transaction's acquisition — and the identical
// interleaving without striping commits cleanly.
func TestStripeWriteWriteAliasing(t *testing.T) {
	for _, shift := range []int{0, 2} {
		t.Run(fmt.Sprintf("shift=%d", shift), func(t *testing.T) {
			h := newTestHeap(t, Config{StripeShift: shift})
			a := h.NewThread()
			b := h.NewThread()
			blk := a.Alloc(3)
			err := a.TryAtomic(func(tx *Txn) {
				tx.Store(blk, 1)
				b.Atomic(func(bx *Txn) { bx.Store(blk+2, 2) })
			})
			if shift == 0 {
				if err != nil {
					t.Errorf("unstriped commit to distinct words aborted: %v", err)
				}
			} else {
				if err == nil {
					t.Error("striped commit did not conflict on a shared stripe")
				} else if code := abortCodeOf(t, err); code != AbortConflict {
					t.Errorf("abort code = %v, want AbortConflict", code)
				}
			}
		})
	}
}

// TestStripeSelfOverlap: one transaction reading and writing several words of
// ONE stripe must not conflict with itself — acquisition dedups the stripe,
// read validation recognizes the transaction's own stripe lock, and release
// publishes one fresh version.
func TestStripeSelfOverlap(t *testing.T) {
	h := newTestHeap(t, Config{StripeShift: 2})
	th := h.NewThread()
	blk := th.Alloc(3)
	th.Atomic(func(tx *Txn) {
		tx.Store(blk, 1)
		tx.Store(blk+1, 2)
		tx.Store(blk+2, tx.Load(blk)+tx.Load(blk+1))
	})
	if got := h.LoadNT(blk + 2); got != 3 {
		t.Errorf("self-overlapping striped commit wrote %d, want 3", got)
	}
	if st := h.Stats(); st.StripeConflicts != 0 {
		t.Errorf("StripeConflicts = %d for a single-threaded commit, want 0", st.StripeConflicts)
	}
}

// TestStressStripeReleasedOnce is the regression test for a lost update under
// striping: publish used to release a stripe once per write entry in it, so a
// stripe written at both ends of a write set was released twice, and the
// second release could land after another committer had acquired the stripe —
// unlocking it under that committer, so a third could commit over it. Writers
// bump two counters that share a stripe, with stores to stripes of their own
// in between; every committed bump must survive.
func TestStressStripeReleasedOnce(t *testing.T) {
	const workers, fillers = 4, 4
	rounds := 20000
	if testing.Short() {
		rounds = 4000
	}
	h := newTestHeap(t, Config{StripeShift: 2})
	ctr := h.NewThread().Alloc(2) // both counters in one stripe
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			own := th.Alloc(fillers * h.StripeWords())
			for r := 0; r < rounds; r++ {
				th.Atomic(func(tx *Txn) {
					tx.Store(ctr, tx.Load(ctr)+1)
					for i := 0; i < fillers; i++ {
						tx.Store(own+Addr(i*h.StripeWords()), uint64(r))
					}
					tx.Store(ctr+1, tx.Load(ctr+1)+1)
				})
			}
		}()
	}
	wg.Wait()
	if a, b := h.LoadNT(ctr), h.LoadNT(ctr+1); a != uint64(workers*rounds) || b != a {
		t.Errorf("counters read %d and %d after %d committed bumps of each", a, b, workers*rounds)
	}
	requireQuiescent(t, h)
}

// TestStripeAlignedAllocation: with striping every block starts on a stripe
// boundary (header included), so no stripe is shared between blocks and
// whole-stripe alloc/free transitions stay exclusive.
func TestStripeAlignedAllocation(t *testing.T) {
	h := newTestHeap(t, Config{StripeShift: 2})
	th := h.NewThread()
	mask := Addr(h.StripeWords() - 1)
	seen := map[int]Addr{}
	for i := 0; i < 32; i++ {
		size := 1 + i%7
		a := th.Alloc(size)
		if (a-1)&mask != 0 {
			t.Fatalf("block %#x (size %d): header %#x not stripe-aligned", uint32(a), size, uint32(a-1))
		}
		for si, hi := h.mi(a-1), h.mi(a+Addr(size)-1); si <= hi; si++ {
			if prev, ok := seen[si]; ok {
				t.Fatalf("stripe %d shared by blocks %#x and %#x", si, uint32(prev), uint32(a))
			}
			seen[si] = a
		}
	}
}

// TestSweepMetaStripeInvariants: the striped sweep walks blocks via their
// headers, so Allocated stays in payload words (matching Stats.LiveWords)
// and a metadata/header disagreement is loudly reported in StripeErrors.
func TestSweepMetaStripeInvariants(t *testing.T) {
	h := newTestHeap(t, Config{StripeShift: 2})
	th := h.NewThread()
	var keep []Addr
	for i := 0; i < 16; i++ {
		a := th.Alloc(1 + i%5)
		if i%3 == 0 {
			th.Free(a)
		} else {
			keep = append(keep, a)
		}
	}
	ms := h.SweepMeta()
	if ms.StripeErrors != 0 {
		t.Fatalf("StripeErrors = %d on a healthy heap", ms.StripeErrors)
	}
	if live := h.Stats().LiveWords; ms.Allocated != live {
		t.Errorf("sweep Allocated = %d payload words, Stats.LiveWords = %d", ms.Allocated, live)
	}
	if ms.Locked != 0 || ms.FallbackTagged != 0 {
		t.Errorf("quiescent sweep: Locked=%d FallbackTagged=%d", ms.Locked, ms.FallbackTagged)
	}
	// White-box corruption: clear a live block's stripe metadata and the
	// sweep must flag the header/stripe disagreement.
	si := h.mi(keep[0])
	saved := h.meta[si].Load()
	h.meta[si].Store(makeMeta(0, false))
	if ms := h.SweepMeta(); ms.StripeErrors == 0 {
		t.Error("sweep missed a live block with a dead stripe")
	}
	h.meta[si].Store(saved)
}

// TestClockStripeStressRace is the -race stress mix over both knobs: mixed
// transactional read-modify-write, NT stores, alloc/free churn and TLE
// overflow fallbacks, across every shards x stripe combination, ending with
// a full metadata sweep.
func TestClockStripeStressRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short")
	}
	for _, shards := range []int{1, 4} {
		for _, shift := range []int{0, 2} {
			t.Run(fmt.Sprintf("shards=%d/shift=%d", shards, shift), func(t *testing.T) {
				h := newTestHeap(t, Config{
					Words:       1 << 16,
					ClockShards: shards,
					StripeShift: shift,
					EnableTLE:   true,
					MaxRetries:  8,
				})
				setup := h.NewThread()
				shared := make([]Addr, 8)
				for i := range shared {
					shared[i] = setup.Alloc(3)
				}
				const workers = 4
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(seed uint64) {
						defer wg.Done()
						th := h.NewThread()
						rng := seed*0x9E3779B97F4A7C15 | 1
						next := func(n uint64) uint64 {
							rng ^= rng << 13
							rng ^= rng >> 7
							rng ^= rng << 17
							return rng % n
						}
						var mine Addr
						for i := 0; i < 400; i++ {
							blk := shared[next(uint64(len(shared)))]
							switch next(4) {
							case 0: // transactional RMW across two blocks
								blk2 := shared[next(uint64(len(shared)))]
								th.Atomic(func(tx *Txn) {
									v := tx.Load(blk) + tx.Load(blk2+1)
									tx.Store(blk+2, v)
								})
							case 1: // NT store (address-hashed shard tick)
								h.StoreNT(blk+Addr(next(3)), uint64(i))
							case 2: // alloc/free churn on private blocks
								if mine != NilAddr {
									th.Free(mine)
									mine = NilAddr
								} else {
									mine = th.Alloc(int(1 + next(5)))
								}
							case 3: // store-buffer overflow -> fallback path
								th.Atomic(func(tx *Txn) {
									base := shared[0]
									for j := Addr(0); j < 3; j++ {
										tx.Store(base+j, tx.Load(base+j)+1)
									}
								})
							}
						}
						if mine != NilAddr {
							th.Free(mine)
						}
					}(uint64(w + 1))
				}
				wg.Wait()
				ms := h.SweepMeta()
				if ms.Locked != 0 || ms.FallbackTagged != 0 || ms.StripeErrors != 0 {
					t.Errorf("post-stress sweep: Locked=%d FallbackTagged=%d StripeErrors=%d",
						ms.Locked, ms.FallbackTagged, ms.StripeErrors)
				}
				if live := h.Stats().LiveWords; ms.Allocated != live {
					t.Errorf("post-stress leak: sweep=%d live=%d", ms.Allocated, live)
				}
				if shift == 0 {
					if st := h.Stats(); st.StripeConflicts != 0 {
						t.Errorf("StripeConflicts = %d without striping", st.StripeConflicts)
					}
				}
			})
		}
	}
}
