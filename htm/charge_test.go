package htm

import (
	"errors"
	"testing"
)

// Tests for Txn.ChargeStores: n charged entries must behave as n Stores to
// fresh private words would — in the store buffer, in the fault and yield
// draws, and at commit — while publishing nothing.

// abortOf returns err's abort code and address (0 and NilAddr for a commit).
func abortOf(t *testing.T, err error) (AbortCode, Addr) {
	t.Helper()
	if err == nil {
		return 0, NilAddr
	}
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("err = %v, want an *AbortError", err)
	}
	return ab.Code, ab.Addr
}

// TestChargeStoresOverflowParity: charged entries fill the store buffer
// exactly as stores to fresh words do, and later stores count them.
func TestChargeStoresOverflowParity(t *testing.T) {
	const sb = RockStoreBufferSize
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(2 * sb)
	for _, n := range []int{sb - 1, sb, sb + 1} {
		charged, _ := abortOf(t, th.TryAtomic(func(tx *Txn) { tx.ChargeStores(n) }))
		stored, _ := abortOf(t, th.TryAtomic(func(tx *Txn) {
			for i := 0; i < n; i++ {
				tx.Store(a+Addr(i), 1)
			}
		}))
		if charged != stored {
			t.Errorf("%d entries: charging ends in %v, storing in %v", n, charged, stored)
		}
	}
	for _, c := range []struct {
		name string
		body func(tx *Txn)
		code AbortCode
		addr Addr
	}{
		{"charge sb", func(tx *Txn) { tx.ChargeStores(sb) }, 0, NilAddr},
		{"charge sb in two", func(tx *Txn) { tx.ChargeStores(sb - 1); tx.ChargeStores(1) }, 0, NilAddr},
		{"charge sb+1", func(tx *Txn) { tx.ChargeStores(sb + 1) }, AbortOverflow, NilAddr},
		{"charge sb, then 1", func(tx *Txn) { tx.ChargeStores(sb); tx.ChargeStores(1) }, AbortOverflow, NilAddr},
		{"charge sb-1, store 2", func(tx *Txn) { tx.ChargeStores(sb - 1); tx.Store(a, 1); tx.Store(a+1, 1) }, AbortOverflow, a + 1},
		{"store 1, charge sb", func(tx *Txn) { tx.Store(a, 1); tx.ChargeStores(sb) }, AbortOverflow, NilAddr},
		{"charge sb-1, restore 1", func(tx *Txn) { tx.ChargeStores(sb - 1); tx.Store(a, 1); tx.Store(a, 2) }, 0, NilAddr},
	} {
		if code, addr := abortOf(t, th.TryAtomic(c.body)); code != c.code || addr != c.addr {
			t.Errorf("%s: abort %v at %#x, want %v at %#x", c.name, code, addr, c.code, c.addr)
		}
	}

	unbounded := newTestHeap(t, Config{StoreBufferSize: -1})
	uth := unbounded.NewThread()
	b := uth.Alloc(1)
	if err := uth.TryAtomic(func(tx *Txn) { tx.ChargeStores(1 << 20); tx.Store(b, 1) }); err != nil {
		t.Errorf("unbounded store buffer: %v", err)
	}
}

// TestChargeStoresValidatesAtCommit: a charged body commits as a write commit
// would, so a word it read that changes before commit aborts it — where the
// same body without the charge is read-only and commits for free. The same
// holds for the TLE epoch: a global-fallback run between begin and commit
// aborts the charged body only.
func TestChargeStoresValidatesAtCommit(t *testing.T) {
	t.Run("read set", func(t *testing.T) {
		h := newTestHeap(t, Config{})
		th := h.NewThread()
		w := th.Alloc(1)
		private := th.Alloc(3)
		for _, c := range []struct {
			name  string
			stage func(tx *Txn)
			code  AbortCode
			addr  Addr
		}{
			{"charged", func(tx *Txn) { tx.ChargeStores(3) }, AbortConflict, w},
			{"stored to private words", func(tx *Txn) { storeLoop(tx, private, []uint64{1, 2, 3}) }, AbortConflict, w},
			{"read-only", func(tx *Txn) {}, 0, NilAddr},
		} {
			err := th.TryAtomic(func(tx *Txn) {
				_ = tx.Load(w)
				c.stage(tx)
				done := make(chan struct{})
				go func() { // another thread's NT write lands before the commit
					h.StoreNT(w, 7)
					close(done)
				}()
				<-done
			})
			if code, addr := abortOf(t, err); code != c.code || addr != c.addr {
				t.Errorf("%s: abort %v at %#x, want %v at %#x", c.name, code, addr, c.code, c.addr)
			}
		}
	})
	t.Run("fallback epoch", func(t *testing.T) {
		h := newTestHeap(t, Config{EnableTLE: true, MaxRetries: 1, GlobalFallback: true})
		th, other := h.NewThread(), h.NewThread()
		w := th.Alloc(1)
		far := other.Alloc(RockStoreBufferSize + 1)
		for _, c := range []struct {
			name  string
			stage func(tx *Txn)
			code  AbortCode
		}{
			{"charged", func(tx *Txn) { tx.ChargeStores(1) }, AbortFallback},
			{"read-only", func(tx *Txn) {}, 0},
		} {
			runs := h.Stats().FallbackRuns
			err := th.TryAtomic(func(tx *Txn) {
				_ = tx.Load(w)
				c.stage(tx)
				done := make(chan struct{})
				go func() { // overflows, so it runs under the global lock
					other.Atomic(func(tx *Txn) {
						for i := 0; i <= RockStoreBufferSize; i++ {
							tx.Store(far+Addr(i), 1)
						}
					})
					close(done)
				}()
				<-done
			})
			if code, _ := abortOf(t, err); code != c.code {
				t.Errorf("%s: abort %v, want %v", c.name, code, c.code)
			}
			if n := h.Stats().FallbackRuns - runs; n != 1 {
				t.Fatalf("%s: %d global fallback runs, want 1", c.name, n)
			}
		}
	})
}

// TestChargeStoresDrawsLikeStores: under a fault plan with YieldEvery, charging
// n entries draws one yield and one fault decision per entry, as n Stores to
// fresh words do — two heaps with the same plan, one charging and one storing,
// see the same outcome for every attempt.
func TestChargeStoresDrawsLikeStores(t *testing.T) {
	cfg := Config{Faults: &FaultPlan{Seed: 5, AccessProb: 0.04, YieldEvery: 3}}
	charging, storing := newTestHeap(t, cfg), newTestHeap(t, cfg)
	cth, sth := charging.NewThread(), storing.NewThread()
	ca, sa := cth.Alloc(48), sth.Alloc(48)
	clock := charging.ClockNow()
	var spurious, overflows int
	for i := 0; i < 300; i++ {
		n := i % 40
		charged, _ := abortOf(t, cth.TryAtomic(func(tx *Txn) { _ = tx.Load(ca); tx.ChargeStores(n) }))
		stored, _ := abortOf(t, sth.TryAtomic(func(tx *Txn) {
			_ = tx.Load(sa)
			for k := 1; k <= n; k++ {
				tx.Store(sa+Addr(k), uint64(i))
			}
		}))
		if charged != stored {
			t.Fatalf("attempt %d (%d entries): charging ends in %v, storing in %v", i, n, charged, stored)
		}
		switch charged {
		case AbortSpurious:
			spurious++
		case AbortOverflow:
			overflows++
		}
	}
	if spurious == 0 || overflows == 0 {
		t.Errorf("script exercised %d injected and %d overflow aborts, want both", spurious, overflows)
	}
	if now := charging.ClockNow(); now != clock {
		t.Errorf("charged commits ticked the clock from %d to %d", clock, now)
	}
}
