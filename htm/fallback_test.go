package htm

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// overflowCfg forces every multi-word write transaction straight to the
// fallback path: a 1-entry store buffer overflows on the second distinct
// store and MaxRetries 1 engages the fallback after the first failed attempt.
func overflowCfg() Config {
	return Config{StoreBufferSize: 1, EnableTLE: true, MaxRetries: 1}
}

func TestFallbackMetaEncoding(t *testing.T) {
	const owner = 0x1234_5678_9ABC
	m := makeFallbackMeta(owner)
	if !metaLocked(m) || !metaAllocated(m) {
		t.Errorf("fallback meta %#x must be locked and allocated", m)
	}
	if !metaFallbackLocked(m) {
		t.Errorf("fallback meta %#x not recognized as fallback-locked", m)
	}
	if got := metaFallbackOwner(m); got != owner {
		t.Errorf("owner round trip = %#x, want %#x", got, owner)
	}
	// A commit-locked word (lock bit over a live metadata word) must never
	// read as fallback-locked, whatever its version.
	commitLocked := makeMeta(987654321, true) | metaLockBit
	if metaFallbackLocked(commitLocked) {
		t.Errorf("commit-locked meta %#x misread as fallback-locked", commitLocked)
	}
	// Owner IDs wider than the field truncate instead of clobbering the tag
	// or flag bits.
	wide := makeFallbackMeta(^uint64(0))
	if !metaFallbackLocked(wide) || !metaAllocated(wide) {
		t.Errorf("wide-owner fallback meta %#x corrupted flag bits", wide)
	}
	if got := metaFallbackOwner(wide); got != fallbackOwnerMask {
		t.Errorf("wide owner = %#x, want %#x", got, uint64(fallbackOwnerMask))
	}
}

// TestFallbackHoldsOnlyItsFootprint parks a fallback operation while it holds
// its lock-set and checks the two properties the fine-grained design exists
// for: the held words carry the owner's ID in their metadata, and hardware
// transactions on disjoint words begin and commit while the fallback is still
// parked (under the global-lock design they would wait at begin until the
// fallback finished).
func TestFallbackHoldsOnlyItsFootprint(t *testing.T) {
	h := newTestHeap(t, overflowCfg())
	setup := h.NewThread()
	fa := setup.Alloc(2) // fallback footprint
	hb := setup.Alloc(2) // hardware footprint, disjoint

	held := make(chan struct{})
	release := make(chan struct{})
	var fbThread *Thread
	done := make(chan struct{})
	go func() {
		defer close(done)
		fbThread = h.NewThread()
		fbThread.Atomic(func(tx *Txn) {
			tx.Store(fa, 1)
			tx.Store(fa+1, 2) // overflows the hardware attempt
			if tx.InFallback() {
				close(held)
				<-release
			}
		})
	}()
	<-held

	// The fallback is parked holding fa and fa+1; its locks must carry the
	// fallback tag and its thread ID.
	for w := fa; w <= fa+1; w++ {
		m := h.meta[w].Load()
		if !metaFallbackLocked(m) {
			t.Fatalf("word %#x not fallback-locked while fallback parked (meta %#x)", uint32(w), m)
		}
		if got := metaFallbackOwner(m); got != fbThread.ID()&fallbackOwnerMask {
			t.Fatalf("word %#x owner = %d, want thread %d", uint32(w), got, fbThread.ID())
		}
	}

	// A hardware transaction on a disjoint footprint must proceed: with the
	// global fallback lock (ModeGlobal) this would hang at begin.
	hwDone := make(chan struct{})
	go func() {
		defer close(hwDone)
		th := h.NewThread()
		th.Atomic(func(tx *Txn) {
			tx.Store(hb, tx.Load(hb)+1)
		})
	}()
	select {
	case <-hwDone:
	case <-time.After(10 * time.Second):
		t.Fatal("hardware transaction on a disjoint footprint stalled behind a parked fallback")
	}

	close(release)
	<-done
	if v0, v1 := h.LoadNT(fa), h.LoadNT(fa+1); v0 != 1 || v1 != 2 {
		t.Errorf("fallback writes = %d,%d, want 1,2", v0, v1)
	}
	if v := h.LoadNT(hb); v != 1 {
		t.Errorf("hardware write = %d, want 1", v)
	}
	s := h.Stats()
	if s.FallbackRuns != 1 {
		t.Errorf("FallbackRuns = %d, want 1", s.FallbackRuns)
	}
	if s.FallbackLocks < 2 {
		t.Errorf("FallbackLocks = %d, want >= 2", s.FallbackLocks)
	}
	if n := s.Aborts[AbortFallback]; n != 0 {
		t.Errorf("fine-grained fallback produced %d AbortFallback aborts", n)
	}
}

// TestFallbackLockOrderingRetry provokes the deadlock-avoidance path
// deterministically: thread 1's fallback holds the LOW block and then wants
// the high one (in-order, so it waits); thread 2's fallback holds the HIGH
// block and then wants the low one (out-of-order, so its bounded try-lock
// must give up, release everything and retry). Without release-and-retry the
// two would deadlock; the test also verifies that allocations made by retried
// attempts are rolled back.
func TestFallbackLockOrderingRetry(t *testing.T) {
	cfg := overflowCfg()
	cfg.AllowAllocInTxn = true
	h := newTestHeap(t, cfg)
	setup := h.NewThread()
	lo := setup.Alloc(2)
	hi := setup.Alloc(2)
	if hi < lo {
		lo, hi = hi, lo
	}

	c1 := make(chan struct{}) // closed once T1's fallback holds lo
	c2 := make(chan struct{}) // closed once T2's fallback holds hi
	var once1, once2 sync.Once
	var wg sync.WaitGroup
	var fromT2 []Addr // blocks T2's attempts allocated (including retried ones)
	wg.Add(2)
	go func() {
		defer wg.Done()
		th := h.NewThread()
		th.Atomic(func(tx *Txn) {
			tx.Store(lo, 1)
			tx.Store(lo+1, 2) // overflow: hardware attempt dies here
			once1.Do(func() {
				close(c1)
				<-c2
			})
			tx.Store(hi, 3) // in-order wait on T2's hold
		})
	}()
	go func() {
		defer wg.Done()
		th := h.NewThread()
		th.Atomic(func(tx *Txn) {
			tx.Store(hi, 4)
			tx.Store(hi+1, 5) // overflow: hardware attempt dies here
			fromT2 = append(fromT2, tx.Alloc(4))
			once2.Do(func() {
				<-c1
				close(c2)
			})
			tx.Store(lo, 6) // out-of-order: bounded try, then release-and-retry
		})
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("fallback lock-ordering conflict did not resolve (deadlock-avoidance broken)")
	}

	// T2 commits strictly after T1 (it cannot take lo until T1 releases), so
	// T2's values win on both contended words.
	if v := h.LoadNT(lo); v != 6 {
		t.Errorf("lo = %d, want 6 (T2 last)", v)
	}
	if v := h.LoadNT(hi); v != 4 {
		t.Errorf("hi = %d, want 4 (T2 last)", v)
	}
	s := h.Stats()
	if s.FallbackRuns != 2 {
		t.Errorf("FallbackRuns = %d, want 2", s.FallbackRuns)
	}
	if s.FallbackRetries == 0 {
		t.Error("release-and-retry path was never taken")
	}
	// Every retried attempt allocated a block; only the committed attempt's
	// allocation may survive. fromT2 saw one append per attempt.
	if len(fromT2) < 2 {
		t.Errorf("T2 ran %d attempts, want >= 2 (no retry happened)", len(fromT2))
	}
	live := fromT2[len(fromT2)-1]
	if !h.allocated(live) {
		t.Error("committed attempt's allocation was rolled back")
	}
	for _, a := range fromT2[:len(fromT2)-1] {
		if a != live && h.allocated(a) {
			t.Errorf("retried attempt's allocation %#x leaked", uint32(a))
		}
	}
}

// TestFallbackDirectFreeSelfDeadlockPanics: a fallback body that calls
// Thread.Free on a block whose words its own lock-set holds would spin
// forever on its own lock; the owner ID turns that into a loud panic
// directing the author to FreeOnCommit.
func TestFallbackDirectFreeSelfDeadlockPanics(t *testing.T) {
	h := newTestHeap(t, overflowCfg())
	th := h.NewThread()
	a := th.Alloc(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("free of a self-locked block did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "self-deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	th.Atomic(func(tx *Txn) {
		tx.Store(a, 1)
		tx.Store(a+1, 2) // overflow -> fallback locks both words
		th.Free(a)       // must panic, not hang
	})
}

// TestFallbackCrossThreadFreeDeadlockPanics: a fallback body that calls
// Thread.Free on a block fallback-locked by ANOTHER thread, while itself
// holding locks, would wait outside the ordered-acquisition protocol and can
// close a deadlock cycle the protocol cannot break. The guard panics instead.
func TestFallbackCrossThreadFreeDeadlockPanics(t *testing.T) {
	h := newTestHeap(t, overflowCfg())
	setup := h.NewThread()
	b := setup.Alloc(2) // parked thread 1 will hold these words

	held := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		th := h.NewThread()
		th.Atomic(func(tx *Txn) {
			tx.Store(b, 1)
			tx.Store(b+1, 2) // overflow -> fallback locks both words
			if tx.InFallback() {
				close(held)
				<-release
			}
		})
	}()
	<-held

	th2 := h.NewThread()
	own := th2.Alloc(2)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("cross-thread free under a held lock-set did not panic")
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "fallback-locked by another thread") {
				t.Errorf("unexpected panic: %v", r)
			}
		}()
		th2.Atomic(func(tx *Txn) {
			tx.Store(own, 1)
			tx.Store(own+1, 1) // overflow -> fallback holds own's words
			th2.Free(b)        // b is held by the parked fallback: must panic
		})
	}()
	close(release)
	<-done
}

// TestStressFallbackMixed interleaves fine-grained fallback operations with
// hardware transactions, NT accesses and alloc/free churn on overlapping AND
// disjoint footprints, under -race in CI. Words 0-3 of the shared block form
// an invariant quad only ever incremented together by fallback operations, so
// hardware read-only transactions must always observe them equal; word 4 is a
// hardware-transaction counter; word 5 an NT counter. Each worker also runs
// fallback operations over a private quad (the disjoint-footprint case).
func TestStressFallbackMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	cfg := overflowCfg()
	cfg.StoreBufferSize = 2 // quad writes overflow; single stores stay hardware
	h := newTestHeap(t, cfg)
	setup := h.NewThread()
	shared := setup.Alloc(6)

	const workers = 6
	const iters = 400
	var sharedQuad, hwIncs, ntIncs atomic.Uint64
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := h.NewThread()
			priv := th.Alloc(4)
			var myShared, myHW, myNT uint64
			rng := seed*2654435761 + 1
			for i := 0; i < iters; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				switch rng % 6 {
				case 0: // contended fallback: bump the whole shared quad
					th.Atomic(func(tx *Txn) {
						for j := Addr(0); j < 4; j++ {
							tx.Store(shared+j, tx.Load(shared+j)+1)
						}
					})
					myShared++
				case 1: // disjoint fallback: bump the private quad
					th.Atomic(func(tx *Txn) {
						for j := Addr(0); j < 4; j++ {
							tx.Store(priv+j, tx.Load(priv+j)+1)
						}
					})
				case 2: // hardware transaction on the shared counter word
					th.Atomic(func(tx *Txn) {
						tx.Store(shared+4, tx.Load(shared+4)+1)
					})
					myHW++
				case 3: // hardware read-only: the quad must never tear
					var q [4]uint64
					th.Atomic(func(tx *Txn) {
						for j := Addr(0); j < 4; j++ {
							q[j] = tx.Load(shared + j)
						}
					})
					if q[0] != q[1] || q[1] != q[2] || q[2] != q[3] {
						select {
						case errs <- "torn fallback quad observed by hardware reader":
						default:
						}
						return
					}
				case 4: // NT traffic on its own word
					h.AddNT(shared+5, 1)
					myNT++
				case 5: // allocator churn beside everything else
					b := th.Alloc(int(rng%7) + 1)
					th.Free(b)
				}
			}
			// The private quad saw only this thread's fallback increments.
			want := h.LoadNT(priv)
			for j := Addr(1); j < 4; j++ {
				if h.LoadNT(priv+j) != want {
					select {
					case errs <- "private quad torn (disjoint fallback raced itself)":
					default:
					}
					return
				}
			}
			sharedQuad.Add(myShared)
			hwIncs.Add(myHW)
			ntIncs.Add(myNT)
		}(uint64(w + 1))
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	for j := Addr(0); j < 4; j++ {
		if v := h.LoadNT(shared + j); v != sharedQuad.Load() {
			t.Errorf("shared quad word %d = %d, want %d", j, v, sharedQuad.Load())
		}
	}
	if v := h.LoadNT(shared + 4); v != hwIncs.Load() {
		t.Errorf("hardware counter = %d, want %d", v, hwIncs.Load())
	}
	if v := h.LoadNT(shared + 5); v != ntIncs.Load() {
		t.Errorf("NT counter = %d, want %d", v, ntIncs.Load())
	}
	if s := h.Stats(); s.FallbackRuns == 0 {
		t.Error("stress run never engaged the fallback")
	}
}
