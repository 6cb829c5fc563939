package htm

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
)

func newTestHeap(t testing.TB, cfg Config) *Heap {
	t.Helper()
	if cfg.Words == 0 {
		cfg.Words = 1 << 16
	}
	return NewHeap(cfg)
}

// geometries are the heap shapes the twin and stress tables run under: the
// plain heap and the TLE heap kv runs, both over 8-word lines. A row's name is
// its test ID; the second row once ran a 4-shard clock and a 4-word metadata
// stripe, before the clock became one word and the line the one conflict
// granule. A table OR-s the row's EnableTLE into its scenario's own.
var geometries = []struct {
	name string
	cfg  Config
}{
	{"shards=0,shift=0", Config{}},
	{"shards=4,shift=2", Config{EnableTLE: true}},
}

// clockRows are the heap shapes the clock tests run under, named as
// geometries are: the second row's name is that of the 4-shard clock it ran.
var clockRows = []struct {
	name string
	cfg  Config
}{
	{"shards=1", Config{}},
	{"shards=4", Config{EnableTLE: true}},
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
	if got := NewHeap(Config{MaxReadSet: -1}).Config().MaxReadSet; cfg.MaxReadSet != defaultMaxReadSet || got != defaultMaxReadSet {
		t.Errorf("MaxReadSet = %d (zero) and %d (negative), want %d", cfg.MaxReadSet, got, defaultMaxReadSet)
	}
	if cfg.MaxRetries != defaultMaxRetries {
		t.Errorf("MaxRetries = %d, want %d", cfg.MaxRetries, defaultMaxRetries)
	}
	for _, words := range []int{1 << 10, 1<<10 + 1} {
		if h := NewHeap(Config{Words: words}); len(h.meta) != (words+7)/8 {
			t.Errorf("%d words: %d metadata words, want one per line", words, len(h.meta))
		}
	}
}

func TestAllocZeroesAndFreeRecycles(t *testing.T) {
	// Each case fills a block of first words, frees it and allocates second
	// words: one footprint class, so the LIFO magazine hands the same block
	// back, and every word the first life wrote reads zero in the second.
	for _, c := range []struct{ first, second int }{{4, 4}, {7, 2}} {
		h := newTestHeap(t, Config{})
		th := h.NewThread()
		a := th.Alloc(c.first)
		if a == NilAddr {
			t.Fatal("Alloc returned nil")
		}
		for i := Addr(0); i < Addr(c.first); i++ {
			if v := h.LoadNT(a + i); v != 0 {
				t.Errorf("fresh word %d = %d, want 0", i, v)
			}
			h.StoreNT(a+i, 42)
		}
		th.Free(a)
		b := th.Alloc(c.second)
		if b != a {
			t.Errorf("%d then %d words: the class's free list should recycle: got %#x, want %#x", c.first, c.second, uint32(b), uint32(a))
		}
		th.Atomic(func(tx *Txn) {
			for i := Addr(0); i < Addr(c.first); i++ {
				if v, nt := tx.Load(b+i), h.LoadNT(b+i); v != 0 || nt != 0 {
					t.Errorf("%d then %d words: recycled word %d reads %d (LoadNT %d), want 0", c.first, c.second, i, v, nt)
				}
			}
		})
		requireQuiescent(t, h)
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
	// An interior pointer is not a block: BlockSize applies free's check.
	a := th.Alloc(4)
	defer func() {
		if recover() == nil {
			t.Error("BlockSize of an interior pointer did not panic")
		}
	}()
	th.BlockSize(a + 1)
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

// TestFreeInteriorPointerPanics frees a pointer into a live block's first
// line: the free must panic before it reads the word it takes for a header,
// and leave the block, its line and the allocator's books as they were.
func TestFreeInteriorPointerPanics(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	a := th.Alloc(4)
	h.StoreNT(a, 3) // from a+1, reads as a live 1-word block's header
	func() {
		defer func() {
			if recover() == nil {
				t.Error("free of an interior pointer did not panic")
			}
		}()
		th.Free(a + 1)
	}()
	if s := h.Stats(); s.LiveWords != 4 || s.FreeCalls != 0 {
		t.Errorf("LiveWords = %d, FreeCalls = %d; want 4 and 0", s.LiveWords, s.FreeCalls)
	}
	requireQuiescent(t, h)
	if b := th.Alloc(1); b >= a-1 && b <= a+4 {
		t.Errorf("Alloc(1) = %#x overlaps the live block at %#x", uint32(b), uint32(a))
	}
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

// TestLoadNTWaitsOutAHeldLine: a committer parked between acquiring a line
// and releasing it holds every word of the line, so LoadNT of a neighbour of
// the word it writes waits the lock out and returns what the release
// publishes, never the line as it stood under the lock.
func TestLoadNTWaitsOutAHeldLine(t *testing.T) {
	h := newTestHeap(t, Config{})
	a := h.NewThread().Alloc(4)
	h.StoreNT(a+1, 7)
	l := lineOf(a)
	h.meta[l].Store(h.meta[l].Load() | metaLockBit)
	done := make(chan uint64)
	go func() { done <- h.LoadNT(a + 1) }()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	h.word(a + 1).Store(8)
	h.meta[l].Store(makeMeta(h.tick(), true))
	if v := <-done; v != 8 {
		t.Errorf("LoadNT across a held line returned %d, want the released 8", v)
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
		"Words", "StoreBufferSize", "MaxReadSet", "AllowAllocInTxn",
		"MaxRetries", "EnableTLE", "GlobalFallback", "NoMaxLive", "Faults",
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
