package htm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Tests for the version clock and the line metadata commit. The
// deterministic tests drive a second thread's commit from inside the first
// thread's transaction body — each Thread is used by one goroutine at a time,
// so this is legal — which pins the exact interleaving the clock and line
// machinery must survive.

// TestCrossShardExtendSucceeds: a reader observes a version that postdates
// its begin snapshot. The read must force an extension, the extension must
// succeed (nothing the reader previously read changed), and the reader must
// see the writer's committed value, versioned with the writer's tick.
func TestCrossShardExtendSucceeds(t *testing.T) {
	h := newTestHeap(t, Config{})
	reader, writer := h.NewThread(), h.NewThread()
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
		t.Errorf("reader saw %d after extension, want 42", got)
	}
	if v := metaVersion(h.meta[lineOf(y)].Load()); v != h.ClockNow() {
		t.Errorf("y versioned %d, want the writer's tick %d", v, h.ClockNow())
	}
}

// TestCrossShardExtendAborts: same shape, but the writer also rewrites a word
// the reader already read — the forced extension must fail revalidation and
// abort the attempt with AbortConflict at that word rather than let the
// reader pair pre- and post-commit state.
func TestCrossShardExtendAborts(t *testing.T) {
	h := newTestHeap(t, Config{})
	reader, writer := h.NewThread(), h.NewThread()
	x, y := reader.Alloc(1), reader.Alloc(1)
	err := reader.TryAtomic(func(tx *Txn) {
		tx.Load(x)
		writer.Atomic(func(wx *Txn) {
			wx.Store(x, 7) // invalidates the reader's snapshot
			wx.Store(y, 7)
		})
		tx.Load(y) // version above rv -> extend -> must fail
		t.Error("reader survived a torn snapshot")
	})
	if code, addr := abortOf(t, err); code != AbortConflict || addr != x {
		t.Errorf("abort %v at %#x, want AbortConflict at x %#x", code, uint32(addr), uint32(x))
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

// lineBlock allocates a 23-word block on th and returns its second line's
// first word a: a..a+7 is one line, a+8 starts the next.
func lineBlock(th *Thread) Addr {
	blk := th.Alloc(23) // lines blk-1…blk+6, blk+7…blk+14, blk+15…blk+22
	return blk + 7
}

// TestStripeAliasingConflict pins the line granule both ways: a transaction
// that read word a conflicts with a commit to a DIFFERENT word of a's line —
// a+7 as much as a itself — while the same interleaving one word further, on
// the next line, commits.
func TestStripeAliasingConflict(t *testing.T) {
	for _, c := range []struct {
		off      Addr
		conflict bool
	}{{0, true}, {7, true}, {8, false}} {
		h := newTestHeap(t, Config{})
		reader, mut := h.NewThread(), h.NewThread()
		a := lineBlock(reader)
		err := reader.TryAtomic(func(tx *Txn) {
			tx.Load(a)
			mut.Atomic(func(mx *Txn) { mx.Store(a+c.off, 9) })
			tx.Load(a + 1) // a newer version on a's line forces an extension
		})
		switch {
		case !c.conflict && err != nil:
			t.Errorf("write to a+%d: reader aborted: %v", c.off, err)
		case c.conflict && err == nil:
			t.Errorf("write to a+%d: reader committed across a write to its line", c.off)
		case c.conflict && abortCodeOf(t, err) != AbortConflict:
			t.Errorf("write to a+%d: abort %v, want AbortConflict", c.off, err)
		}
	}
}

// TestStripeWriteWriteAliasing: commit acquisition CASes the line, so a
// concurrent commit to a different word of the same line fails this
// transaction's acquisition, and the identical interleaving on the next line
// commits cleanly, wherever in its line the transaction's word sits: shift is
// its offset, so at shift 0 words a and a+7 conflict and a+8 does not.
func TestStripeWriteWriteAliasing(t *testing.T) {
	for _, shift := range []Addr{0, 2} {
		t.Run(fmt.Sprintf("shift=%d", shift), func(t *testing.T) {
			for _, c := range []struct {
				off      Addr
				conflict bool
			}{{7 - shift, true}, {8 - shift, false}} {
				h := newTestHeap(t, Config{})
				x, y := h.NewThread(), h.NewThread()
				a := lineBlock(x) + shift
				err := x.TryAtomic(func(tx *Txn) {
					tx.Store(a, 1)
					y.Atomic(func(yx *Txn) { yx.Store(a+c.off, 2) })
				})
				switch {
				case !c.conflict && err != nil:
					t.Errorf("commit beside a write to the next line (a+%d) aborted: %v", c.off, err)
				case c.conflict && err == nil:
					t.Errorf("commit did not conflict with a write to its own line (a+%d)", c.off)
				case c.conflict:
					if code, addr := abortOf(t, err); code != AbortConflict || addr != a {
						t.Errorf("abort %v at %#x, want AbortConflict at the line's first store, %#x", code, uint32(addr), uint32(a))
					}
				}
			}
		})
	}
}

// TestStripeSelfOverlap: one transaction reading and writing several words of
// ONE line must not conflict with itself — the line is recorded and acquired
// once, read validation recognizes the transaction's own line lock, and
// release publishes one fresh version.
func TestStripeSelfOverlap(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	blk := th.Alloc(3)
	th.Atomic(func(tx *Txn) {
		tx.Store(blk, 1)
		tx.Store(blk+1, 2)
		tx.Store(blk+2, tx.Load(blk)+tx.Load(blk+1))
		if len(tx.lines) != 1 {
			t.Errorf("%d line records for three stores to one line, want 1", len(tx.lines))
		}
	})
	if got := h.LoadNT(blk + 2); got != 3 {
		t.Errorf("self-overlapping commit wrote %d, want 3", got)
	}
	if st := h.Stats(); st.TotalAborts() != 0 || st.ClockShardTicks != 2 {
		t.Errorf("%d aborts and %d ticks for one alloc and one single-threaded commit, want 0 and 2", st.TotalAborts(), st.ClockShardTicks)
	}
	requireQuiescent(t, h)
}

// TestStressStripeReleasedOnce is the regression test for a lost update:
// publish once released a line once per write entry in it, so a line written
// at both ends of a write set was released twice, and the second release
// could land after another committer had acquired the line — unlocking it
// under that committer, so a third could commit over it. Writers bump two
// counters that share a line, with stores to lines of their own in between;
// every committed bump must survive.
func TestStressStripeReleasedOnce(t *testing.T) {
	const workers, fillers = 4, 4
	rounds := 20000
	if testing.Short() {
		rounds = 4000
	}
	h := newTestHeap(t, Config{})
	ctr := h.NewThread().Alloc(2) // both counters in one line
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			own := th.Alloc(fillers << lineShift)
			for r := 0; r < rounds; r++ {
				th.Atomic(func(tx *Txn) {
					tx.Store(ctr, tx.Load(ctr)+1)
					for i := 0; i < fillers; i++ {
						tx.Store(own+Addr(i<<lineShift), uint64(r))
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

// TestStripeAlignedAllocation: every block starts on a line boundary (header
// included), so no line is shared between blocks and whole-line alloc/free
// transitions stay exclusive.
func TestStripeAlignedAllocation(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	seen := map[int]Addr{}
	for i := 0; i < 32; i++ {
		size := 1 + i%11
		a := th.Alloc(size)
		if (a-1)&lineMask != 0 {
			t.Fatalf("block %#x (size %d): header %#x not line-aligned", uint32(a), size, uint32(a-1))
		}
		for l, hi := lineOf(a-1), lineOf(a+Addr(size)-1); l <= hi; l++ {
			if prev, ok := seen[l]; ok {
				t.Fatalf("line %d shared by blocks %#x and %#x", l, uint32(prev), uint32(a))
			}
			seen[l] = a
		}
	}
}

// TestSweepMetaStripeInvariants: the sweep walks blocks via their headers, so
// Allocated stays in payload words (matching Stats.LiveWords) and a
// metadata/header disagreement is loudly reported in StripeErrors.
func TestSweepMetaStripeInvariants(t *testing.T) {
	h := newTestHeap(t, Config{})
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
	// White-box corruption: clear a live block's line metadata and the
	// sweep must flag the header/line disagreement.
	l := lineOf(keep[0])
	saved := h.meta[l].Load()
	h.meta[l].Store(makeMeta(0, false))
	if ms := h.SweepMeta(); ms.StripeErrors == 0 {
		t.Error("sweep missed a live block with a dead line")
	}
	h.meta[l].Store(saved)
}

// TestClockStripeStressRace is the -race stress mix over the clock and the
// line granule: mixed transactional read-modify-write, NT stores, alloc/free
// churn and TLE overflow fallbacks, ending with a full metadata sweep. Each
// shared block has three hot words 2^shift apart: at shift 0 they share one
// line, at shift 2 they span two. The subtest names keep the one clock's
// shards=1 of the sharded clock they once varied.
func TestClockStripeStressRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short")
	}
	for _, shift := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=1/shift=%d", shift), func(t *testing.T) {
			sp := Addr(1) << shift
			h := newTestHeap(t, Config{
				Words:      1 << 16,
				EnableTLE:  true,
				MaxRetries: 8,
			})
			setup := h.NewThread()
			shared := make([]Addr, 8)
			for i := range shared {
				shared[i] = setup.Alloc(int(2*sp + 1))
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
								v := tx.Load(blk) + tx.Load(blk2+sp)
								tx.Store(blk+2*sp, v)
							})
						case 1: // NT store
							h.StoreNT(blk+Addr(next(3))*sp, uint64(i))
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
									tx.Store(base+j*sp, tx.Load(base+j*sp)+1)
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
		})
	}
}
