package htm

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAtomicBasicReadWrite(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(2)
	th.Atomic(func(tx *Txn) {
		tx.Store(a, 7)
		tx.Store(a+1, 8)
	})
	var x, y uint64
	th.Atomic(func(tx *Txn) {
		x = tx.Load(a)
		y = tx.Load(a + 1)
	})
	if x != 7 || y != 8 {
		t.Errorf("got (%d,%d), want (7,8)", x, y)
	}
}

func TestTxnReadYourWrites(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Atomic(func(tx *Txn) {
		tx.Store(a, 3)
		if v := tx.Load(a); v != 3 {
			t.Errorf("read-your-write = %d, want 3", v)
		}
		tx.Store(a, 4)
		if v := tx.Load(a); v != 4 {
			t.Errorf("read-your-write after overwrite = %d, want 4", v)
		}
	})
	if v := h.LoadNT(a); v != 4 {
		t.Errorf("committed = %d, want 4", v)
	}
}

func TestTxnAdd(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Atomic(func(tx *Txn) {
		if v := tx.Add(a, 5); v != 5 {
			t.Errorf("Add = %d, want 5", v)
		}
		if v := tx.Add(a, 2); v != 7 {
			t.Errorf("Add = %d, want 7", v)
		}
	})
	if v := h.LoadNT(a); v != 7 {
		t.Errorf("committed = %d, want 7", v)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	h.StoreNT(a, 1)
	err := th.TryAtomic(func(tx *Txn) {
		tx.Store(a, 99)
		tx.Abort()
	})
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Code != AbortExplicit {
		t.Fatalf("err = %v, want explicit abort", err)
	}
	if v := h.LoadNT(a); v != 1 {
		t.Errorf("aborted write leaked: %d", v)
	}
}

func TestStoreBufferOverflow(t *testing.T) {
	h := newTestHeap(t, Config{StoreBufferSize: 4})
	th := h.NewThread()
	a := th.Alloc(8)
	err := th.TryAtomic(func(tx *Txn) {
		for i := Addr(0); i < 5; i++ {
			tx.Store(a+i, 1)
		}
	})
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Code != AbortOverflow {
		t.Fatalf("err = %v, want overflow", err)
	}
	// Writing the same word repeatedly occupies one store-buffer entry.
	err = th.TryAtomic(func(tx *Txn) {
		for i := 0; i < 100; i++ {
			tx.Store(a, uint64(i))
		}
		tx.Store(a+1, 1)
		tx.Store(a+2, 1)
		tx.Store(a+3, 1)
	})
	if err != nil {
		t.Errorf("same-word stores should not overflow: %v", err)
	}
}

func TestUnboundedStoreBuffer(t *testing.T) {
	h := newTestHeap(t, Config{StoreBufferSize: -1})
	th := h.NewThread()
	a := th.Alloc(256)
	err := th.TryAtomic(func(tx *Txn) {
		for i := Addr(0); i < 256; i++ {
			tx.Store(a+i, uint64(i))
		}
	})
	if err != nil {
		t.Fatalf("unbounded store buffer aborted: %v", err)
	}
	if v := h.LoadNT(a + 255); v != 255 {
		t.Errorf("word 255 = %d", v)
	}
}

// TestReadSetCapacity pins MaxReadSet's unit, the distinct line: one line
// past it aborts at the extra line's first word, words packed into lines that
// fit commit however many they are, and a body alternating over exactly
// MaxReadSet lines commits through compaction of the full set.
func TestReadSetCapacity(t *testing.T) {
	const maxLines = 4
	h := newTestHeap(t, Config{MaxReadSet: maxLines})
	th := h.NewThread()
	a := th.Alloc((maxLines + 1) << lineShift)
	line := func(i int) Addr { return a + Addr(i)<<lineShift }

	err := th.TryAtomic(func(tx *Txn) {
		for i := 0; i <= maxLines; i++ {
			tx.Load(line(i))
		}
	})
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Code != AbortCapacity || ab.Addr != line(maxLines) {
		t.Fatalf("%d distinct lines: err = %v, want a read-capacity abort at %#x", maxLines+1, err, uint32(line(maxLines)))
	}

	size := -1
	err = th.TryAtomic(func(tx *Txn) {
		for i := 0; i < maxLines; i++ {
			for w := Addr(0); w < 4; w++ {
				tx.Load(line(i) + w)
			}
		}
		size = tx.ReadSetSize()
	})
	if err != nil || size != maxLines {
		t.Fatalf("%d words in %d lines: err = %v, ReadSetSize = %d; want a commit over %d lines", 4*maxLines, maxLines, err, size, maxLines)
	}

	size = -1
	err = th.TryAtomic(func(tx *Txn) {
		for i := 0; i < 25*maxLines; i++ {
			tx.Load(line(i % maxLines))
		}
		size = tx.ReadSetSize()
	})
	if err != nil || size != maxLines {
		t.Fatalf("loads alternating over %d lines: err = %v, ReadSetSize = %d; want a commit over %d lines", maxLines, err, size, maxLines)
	}
}

func TestSandboxFreedLoadAborts(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Free(a)
	err := th.TryAtomic(func(tx *Txn) { tx.Load(a) })
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Code != AbortIllegal {
		t.Fatalf("err = %v, want illegal-access abort", err)
	}
	err = th.TryAtomic(func(tx *Txn) { tx.Store(a, 1) })
	if !errors.As(err, &ab) || ab.Code != AbortIllegal {
		t.Fatalf("store err = %v, want illegal-access abort", err)
	}
}

func TestSandboxNilLoadAborts(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	err := th.TryAtomic(func(tx *Txn) { tx.Load(NilAddr) })
	var ab *AbortError
	if !errors.As(err, &ab) || ab.Code != AbortIllegal {
		t.Fatalf("err = %v, want illegal-access abort", err)
	}
}

func TestFreeOnCommit(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Atomic(func(tx *Txn) {
		tx.Store(a, 1)
		tx.FreeOnCommit(a)
	})
	if h.allocated(a) {
		t.Error("block not freed after commit")
	}
}

func TestFreeOnCommitNotRunOnAbort(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	_ = th.TryAtomic(func(tx *Txn) {
		tx.FreeOnCommit(a)
		tx.Abort()
	})
	if !h.allocated(a) {
		t.Error("aborted transaction freed memory")
	}
	if v := h.LoadNT(a); v != 0 {
		t.Errorf("block damaged: %d", v)
	}
}

func TestAllocInTxnForbiddenByDefault(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	defer func() {
		if recover() == nil {
			t.Error("Txn.Alloc without AllowAllocInTxn did not panic")
		}
	}()
	_ = th.TryAtomic(func(tx *Txn) { tx.Alloc(1) })
}

func TestAllocInTxnRollsBackOnAbort(t *testing.T) {
	h := newTestHeap(t, Config{AllowAllocInTxn: true})
	th := h.NewThread()
	live := h.Stats().LiveWords
	_ = th.TryAtomic(func(tx *Txn) {
		tx.Alloc(16)
		tx.Abort()
	})
	if got := h.Stats().LiveWords; got != live {
		t.Errorf("LiveWords = %d after aborted alloc, want %d", got, live)
	}
	var kept Addr
	th.Atomic(func(tx *Txn) {
		kept = tx.Alloc(16)
		tx.Store(kept, 9)
	})
	if !h.allocated(kept) {
		t.Error("committed alloc was rolled back")
	}
	if v := h.LoadNT(kept); v != 9 {
		t.Errorf("committed alloc word = %d", v)
	}
}

func TestNestedAtomicPanics(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	defer func() {
		if recover() == nil {
			t.Error("nested Atomic did not panic")
		}
	}()
	th.Atomic(func(tx *Txn) {
		th.Atomic(func(tx2 *Txn) {})
	})
}

func TestUserPanicPropagates(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	defer func() {
		r := recover()
		if r != "user-panic" {
			t.Errorf("recovered %v, want user-panic", r)
		}
		// The thread must be reusable after a propagated panic... it is not
		// required to be, but inTxn must not deadlock future use.
	}()
	th.Atomic(func(tx *Txn) { panic("user-panic") })
}

func TestOverflowWithoutTLEPanicsInAtomic(t *testing.T) {
	h := newTestHeap(t, Config{StoreBufferSize: 2})
	th := h.NewThread()
	a := th.Alloc(4)
	defer func() {
		if recover() == nil {
			t.Error("deterministic overflow in Atomic did not panic")
		}
	}()
	th.Atomic(func(tx *Txn) {
		tx.Store(a, 1)
		tx.Store(a+1, 1)
		tx.Store(a+2, 1)
	})
}

// TestCapacityWithoutTLEPanicsInAtomic: a body that reads MaxReadSet+1
// distinct lines aborts AbortCapacity on every attempt, so Atomic without TLE
// must panic, as it does on a deterministic overflow, and not retry forever.
// The body runs on its own goroutine so that a retry loop fails the test
// instead of hanging it.
func TestCapacityWithoutTLEPanicsInAtomic(t *testing.T) {
	h := newTestHeap(t, Config{MaxReadSet: 4})
	th := h.NewThread()
	a := th.Alloc(5 << lineShift)
	stop := make(chan struct{})
	defer close(stop)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		th.AtomicUntil(func(tx *Txn) {
			for i := Addr(0); i < 5; i++ {
				tx.Load(a + i<<lineShift)
			}
		}, func() bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		})
	}()
	select {
	case r := <-done:
		if msg, _ := r.(string); !strings.Contains(msg, "MaxReadSet") {
			t.Errorf("deterministic capacity abort in Atomic: recovered %v, want a panic naming MaxReadSet", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deterministic capacity abort in Atomic still retrying after 5s")
	}
}

func TestReadWriteSetSizes(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(3 << lineShift)
	th.Atomic(func(tx *Txn) {
		tx.Load(a)
		tx.Load(a + 1<<lineShift)
		tx.Store(a+2<<lineShift, 1)
		if tx.ReadSetSize() != 2 {
			t.Errorf("ReadSetSize = %d, want 2", tx.ReadSetSize())
		}
		if tx.WriteSetSize() != 1 {
			t.Errorf("WriteSetSize = %d, want 1", tx.WriteSetSize())
		}
	})
}

func TestConflictingCountersAreExact(t *testing.T) {
	// N threads atomically increment a shared counter M times each; the
	// result must be exactly N*M regardless of aborts and retries.
	h := newTestHeap(t, Config{})
	setup := h.NewThread()
	a := setup.Alloc(1)
	const n, m = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := h.NewThread()
			for j := 0; j < m; j++ {
				th.Atomic(func(tx *Txn) { tx.Add(a, 1) })
			}
		}()
	}
	wg.Wait()
	if v := h.LoadNT(a); v != n*m {
		t.Errorf("counter = %d, want %d", v, n*m)
	}
}

func TestIsolationNoDirtyReads(t *testing.T) {
	// One thread repeatedly writes (x, x) pairs in a transaction; readers
	// must never observe mixed pairs.
	h := newTestHeap(t, Config{})
	setup := h.NewThread()
	a := setup.Alloc(2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := h.NewThread()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			th.Atomic(func(tx *Txn) {
				tx.Store(a, i)
				tx.Store(a+1, i)
			})
		}
	}()
	reader := h.NewThread()
	for i := 0; i < 5000; i++ {
		var x, y uint64
		reader.Atomic(func(tx *Txn) {
			x = tx.Load(a)
			y = tx.Load(a + 1)
		})
		if x != y {
			t.Fatalf("dirty read: (%d, %d)", x, y)
		}
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotConsistencyWithNTWriter(t *testing.T) {
	// Strong atomicity: a non-transactional writer updating two words with
	// two separate StoreNT calls is two atomic writes; a transaction reading
	// both must see x <= y if the writer always writes y after x with
	// y >= x... here we write the same monotonically increasing value to
	// both in order, so a transactional snapshot must observe y ∈ {x, x-1}
	// style consistency: never y > x is violated, and never torn words.
	h := newTestHeap(t, Config{})
	setup := h.NewThread()
	a := setup.Alloc(2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.StoreNT(a, i)
			h.StoreNT(a+1, i)
		}
	}()
	reader := h.NewThread()
	for i := 0; i < 5000; i++ {
		var x, y uint64
		reader.Atomic(func(tx *Txn) {
			x = tx.Load(a)
			y = tx.Load(a + 1)
		})
		if y > x {
			t.Fatalf("snapshot saw second store (%d) without first (%d)", y, x)
		}
	}
	close(stop)
	wg.Wait()
}

// TestClockMonotonic pins the tick discipline: every committing write
// transaction ticks the version clock exactly once.
func TestClockMonotonic(t *testing.T) {
	for _, row := range clockRows {
		t.Run(row.name, func(t *testing.T) {
			h := newTestHeap(t, row.cfg)
			th := h.NewThread()
			a := th.Alloc(1)
			prev := h.ClockNow()
			for i := 0; i < 100; i++ {
				th.Atomic(func(tx *Txn) { tx.Store(a, uint64(i)) })
				now := h.ClockNow()
				if now != prev+1 {
					t.Fatalf("clock ticked %d times for one commit", now-prev)
				}
				prev = now
			}
		})
	}
}

func TestReadOnlyTxnDoesNotAdvanceClock(t *testing.T) {
	for _, row := range clockRows {
		t.Run(row.name, func(t *testing.T) {
			h := newTestHeap(t, row.cfg)
			th := h.NewThread()
			a := th.Alloc(1)
			before := h.ClockNow()
			th.Atomic(func(tx *Txn) { tx.Load(a) })
			if after := h.ClockNow(); after != before {
				t.Errorf("read-only txn advanced clock %d -> %d", before, after)
			}
		})
	}
}

func TestThreadAttemptStats(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	for i := 0; i < 10; i++ {
		th.Atomic(func(tx *Txn) { tx.Store(a, 1) })
	}
	attempts, commits := th.AttemptStats()
	if commits != 10 {
		t.Errorf("commits = %d, want 10", commits)
	}
	if attempts < commits {
		t.Errorf("attempts = %d < commits = %d", attempts, commits)
	}
}
