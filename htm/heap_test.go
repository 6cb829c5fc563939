package htm

import (
	"errors"
	"reflect"
	"testing"
)

func newTestHeap(t testing.TB, cfg Config) *Heap {
	t.Helper()
	if cfg.Words == 0 {
		cfg.Words = 1 << 16
	}
	return NewHeap(cfg)
}

func TestNewHeapDefaults(t *testing.T) {
	h := NewHeap(Config{})
	cfg := h.Config()
	if cfg.Words != defaultHeapWords {
		t.Errorf("Words = %d, want %d", cfg.Words, defaultHeapWords)
	}
	if cfg.StoreBufferSize != RockStoreBufferSize {
		t.Errorf("StoreBufferSize = %d, want %d", cfg.StoreBufferSize, RockStoreBufferSize)
	}
	if !cfg.sandboxed {
		t.Error("default config must be sandboxed")
	}
	if cfg.MaxRetries != defaultMaxRetries {
		t.Errorf("MaxRetries = %d, want %d", cfg.MaxRetries, defaultMaxRetries)
	}
}

func TestAllocZeroesAndFreeRecycles(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(4)
	if a == NilAddr {
		t.Fatal("Alloc returned nil")
	}
	for i := Addr(0); i < 4; i++ {
		if v := h.LoadNT(a + i); v != 0 {
			t.Errorf("fresh word %d = %d, want 0", i, v)
		}
	}
	h.StoreNT(a, 42)
	th.Free(a)
	b := th.Alloc(4)
	if b != a {
		t.Errorf("exact-size free list should recycle: got %#x, want %#x", uint32(b), uint32(a))
	}
	if v := h.LoadNT(b); v != 0 {
		t.Errorf("recycled word = %d, want 0", v)
	}
}

func TestAllocDistinctBlocks(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	seen := make(map[Addr]bool)
	for i := 0; i < 100; i++ {
		a := th.Alloc(3)
		if seen[a] {
			t.Fatalf("Alloc returned live block %#x twice", uint32(a))
		}
		seen[a] = true
	}
}

func TestBlockSize(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	for _, size := range []int{1, 2, 7, 64, 1000} {
		a := th.Alloc(size)
		if got := th.BlockSize(a); got != size {
			t.Errorf("BlockSize(%d-word block) = %d", size, got)
		}
	}
}

func TestDoubleFreePanics(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(2)
	th.Free(a)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	th.Free(a)
}

func TestFreeInvalidPanics(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	defer func() {
		if recover() == nil {
			t.Error("free of nil did not panic")
		}
	}()
	th.Free(NilAddr)
}

func TestAllocNonPositivePanics(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0) did not panic")
		}
	}()
	th.Alloc(0)
}

func TestArenaExhaustionPanics(t *testing.T) {
	h := NewHeap(Config{Words: 256})
	th := h.NewThread()
	defer func() {
		if recover() == nil {
			t.Error("exhausted arena did not panic")
		}
	}()
	for i := 0; i < 1000; i++ {
		th.Alloc(8)
	}
}

func TestNTLoadStore(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	h.StoreNT(a, 12345)
	if v := h.LoadNT(a); v != 12345 {
		t.Errorf("LoadNT = %d, want 12345", v)
	}
}

func TestNTAccessFreedPanics(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Free(a)
	for name, f := range map[string]func(){
		"load":  func() { h.LoadNT(a) },
		"store": func() { h.StoreNT(a, 1) },
		"cas":   func() { h.CASNT(a, 0, 1) },
		"add":   func() { h.AddNT(a, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("non-transactional %s of freed word did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCASNT(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	h.StoreNT(a, 5)
	if h.CASNT(a, 4, 9) {
		t.Error("CAS with wrong expected value succeeded")
	}
	if v := h.LoadNT(a); v != 5 {
		t.Errorf("failed CAS modified the word: %d", v)
	}
	if !h.CASNT(a, 5, 9) {
		t.Error("CAS with right expected value failed")
	}
	if v := h.LoadNT(a); v != 9 {
		t.Errorf("after CAS = %d, want 9", v)
	}
}

func TestAddNT(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	if v := h.AddNT(a, 7); v != 7 {
		t.Errorf("AddNT = %d, want 7", v)
	}
	if v := h.AddNT(a, ^uint64(0)); v != 6 {
		t.Errorf("AddNT(-1) = %d, want 6", v)
	}
}

func TestLiveWordAccounting(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	base := h.Stats().LiveWords
	a := th.Alloc(10)
	b := th.Alloc(20)
	if live := h.Stats().LiveWords; live != base+30 {
		t.Errorf("LiveWords = %d, want %d", live, base+30)
	}
	th.Free(a)
	if live := h.Stats().LiveWords; live != base+20 {
		t.Errorf("LiveWords after free = %d, want %d", live, base+20)
	}
	if max := h.Stats().MaxLiveWords; max < base+30 {
		t.Errorf("MaxLiveWords = %d, want >= %d", max, base+30)
	}
	th.Free(b)
	h.ResetMaxLive()
	if max := h.Stats().MaxLiveWords; max != base {
		t.Errorf("MaxLiveWords after reset = %d, want %d", max, base)
	}
}

func TestAbortErrorFormatting(t *testing.T) {
	e := &AbortError{Code: AbortConflict, Addr: 0x10}
	if e.Error() == "" {
		t.Error("empty error string")
	}
	if !errors.Is(e, &AbortError{Code: AbortConflict}) {
		t.Error("errors.Is should match on code")
	}
	if errors.Is(e, &AbortError{Code: AbortOverflow}) {
		t.Error("errors.Is should not match different code")
	}
	for c := AbortConflict; c <= AbortSpurious; c++ {
		if c.String() == "" {
			t.Errorf("empty name for code %d", c)
		}
	}
	if AbortCode(99).String() == "" {
		t.Error("unknown code must still render")
	}
}

func TestStatsString(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(1)
	th.Atomic(func(tx *Txn) { tx.Store(a, 1) })
	s := h.Stats()
	if s.Commits != 1 || s.Starts < 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
	if s.AbortRate() < 0 || s.AbortRate() > 1 {
		t.Errorf("abort rate out of range: %f", s.AbortRate())
	}
}

func TestStatsAbortRateZeroStarts(t *testing.T) {
	var s Stats
	if s.AbortRate() != 0 {
		t.Error("zero-start abort rate should be 0")
	}
}

// TestConfigSurface pins the exported Config field list: every knob doubles
// the configurations tests and benchmarks must cover, so adding one has to be
// a deliberate diff here too.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"Words", "StoreBufferSize", "MaxReadSet", "NoSandbox", "AllowAllocInTxn",
		"MaxRetries", "EnableTLE", "GlobalFallback", "NoMaxLive", "ClockShards",
		"StripeShift", "FallbackSpins", "Faults", "YieldEvery",
	}
	var got []string
	rt := reflect.TypeOf(Config{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported Config fields:\n got %v\nwant %v", got, want)
	}
}
