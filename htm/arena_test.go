package htm

import (
	"errors"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the arena's backing: address space whose pages the kernel backs on
// first touch, with the allocator prefaulting one window ahead of each
// shard's carve frontier (take), and every word path indexing it flat.

// TestHeapBacksOnDemand pins what backing costs, counting the resident pages
// of the mapping: a large heap builds with none, one thread's allocations
// back pages only within its shard's carved extent and one prefault window
// past it, recycling backs nothing, and a block larger than a window backs
// only what it covers and reads and writes across the window's end through
// every word path.
func TestHeapBacksOnDemand(t *testing.T) {
	if !mapsArena {
		t.Skip("this build makes its arenas up front")
	}
	h := NewHeap(Config{Words: 1 << 26})
	if w, m := resident(t, h.words), resident(t, h.meta); len(w)+len(m) != 0 {
		t.Fatalf("a fresh heap has %d word and %d metadata pages resident, want 0", len(w), len(m))
	}
	th := h.NewThread()
	sh := &h.alloc.shards[th.shard]
	// within checks that every resident page of words and of metadata lies
	// within the shard's carved extent and one prefault window past it.
	within := func(what string) (words, meta []int) {
		t.Helper()
		words, meta = resident(t, h.words), resident(t, h.meta)
		pw := os.Getpagesize() / 8
		lo, hi := int(sh.start), int(sh.bump)+prefaultWords
		for _, p := range words {
			if p+pw <= lo || p >= hi {
				t.Fatalf("%s: word page at %#x is resident, outside [%#x, %#x)", what, p, lo, hi)
			}
		}
		for _, p := range meta {
			if p+pw <= lineOf(Addr(lo)) || p > lineOf(Addr(hi)) {
				t.Fatalf("%s: metadata page at line %#x is resident, outside lines [%#x, %#x]", what, p, lineOf(Addr(lo)), lineOf(Addr(hi)))
			}
		}
		if len(words) == 0 || len(meta) == 0 {
			t.Fatalf("%s: %d word and %d metadata pages resident, want some of each", what, len(words), len(meta))
		}
		return words, meta
	}
	var blocks []Addr
	for i := 0; i < 200; i++ {
		blocks = append(blocks, th.Alloc(1+i%64))
	}
	words, meta := within("200 small blocks")
	for _, a := range blocks {
		th.Free(a)
	}
	for i := range blocks {
		blocks[i] = th.Alloc(1 + i%64)
	}
	if w, m := within("free and re-alloc"); len(w) != len(words) || len(m) != len(meta) {
		t.Fatalf("free and re-alloc: %d word and %d metadata pages resident, want still %d and %d", len(w), len(m), len(words), len(meta))
	}
	// The census reads only carved lines, so it backs nothing either.
	requireQuiescent(t, h)
	within("the census")

	// A block larger than a prefault window, carved where the small ones
	// end, backs what it covers and its window, and nothing else.
	size := prefaultWords + prefaultWords/2
	big := th.Alloc(size)
	within("the large block")
	for i := 0; i < size; i++ {
		h.StoreNT(big+Addr(i), uint64(i)+1)
	}
	got := make([]uint64, size)
	if err := th.TryAtomic(func(tx *Txn) { tx.LoadWords(big, got) }); err != nil {
		t.Fatalf("LoadWords over the large block: %v", err)
	}
	for i, v := range got {
		if v != uint64(i)+1 {
			t.Fatalf("LoadWords word %d = %d, want %d", i, v, i+1)
		}
	}
	// Strided walks up and down across the window boundary inside the
	// block, one with 200 words of the block on either side.
	boundary := int((big|windowMask)+1) - int(big)
	if boundary < 200 {
		boundary += prefaultWords
	}
	for _, stride := range []int{3, -5} {
		first := boundary - 40*stride
		dst := make([]uint64, 80)
		if err := th.TryAtomic(func(tx *Txn) { tx.LoadStrided(big+Addr(first), stride, dst) }); err != nil {
			t.Fatalf("LoadStrided stride %d: %v", stride, err)
		}
		for i, v := range dst {
			if want := uint64(first+i*stride) + 1; v != want {
				t.Fatalf("LoadStrided stride %d element %d = %d, want %d", stride, i, v, want)
			}
		}
	}
	// A transaction writing both sides of the boundary, read back NT.
	th.Atomic(func(tx *Txn) {
		for i := boundary - 4; i < boundary+4; i++ {
			tx.Store(big+Addr(i), 7)
		}
	})
	for i := boundary - 5; i < boundary+5; i++ {
		want := uint64(i) + 1
		if i >= boundary-4 && i < boundary+4 {
			want = 7
		}
		if v := h.LoadNT(big + Addr(i)); v != want {
			t.Errorf("LoadNT word %d = %d, want %d", i, v, want)
		}
	}
	words, meta = within("the written large block")
	th.Free(big)
	if th.Alloc(size) != big {
		t.Errorf("re-allocating the large block moved it")
	}
	if w, m := within("the re-allocated large block"); len(w) != len(words) || len(m) != len(meta) {
		t.Errorf("re-allocating the large block backed more pages")
	}
	requireQuiescent(t, h)
}

// TestHeapUnmapsWhenUnreachable builds and drops heaps, each with a block
// allocated, and holds the cleanup to unmapping every one of them once the
// collector finds them unreachable.
func TestHeapUnmapsWhenUnreachable(t *testing.T) {
	if !mapsArena {
		t.Skip("this build makes its arenas up front")
	}
	runtime.GC()
	runtime.GC()
	base := mapped()
	func() {
		heaps := make([]*Heap, 64)
		for i := range heaps {
			heaps[i] = NewHeap(Config{Words: 1 << 22})
			heaps[i].NewThread().Alloc(1)
		}
		if grew := mapped() - base; grew < 64<<25 {
			t.Fatalf("64 heaps of 1<<22 words mapped %d bytes, want at least %d", grew, 64<<25)
		}
	}()
	for i := 0; i < 200 && mapped() > base; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if m := mapped(); m > base {
		t.Fatalf("%d bytes still mapped after the heaps became unreachable, want at most the baseline %d", m, base)
	}
}

// TestLargeBlockInShortShard carves blocks just over a prefault window long
// from shard regions between one and two windows long, whose ends fall
// between page boundaries: a carve prefaults no further than its shard's end,
// and its block reads and writes across every page and window boundary in it.
func TestLargeBlockInShortShard(t *testing.T) {
	shards := len(NewHeap(Config{Words: 1 << 10}).alloc.shards)
	h := NewHeap(Config{Words: 1 + shards*(prefaultWords+prefaultWords/2+8)})
	th := h.NewThread()
	const size = prefaultWords + 8
	got := make([]uint64, size)
	for i := 0; i < min(shards, 4); i++ {
		a := th.Alloc(size)
		for j := 0; j < size; j++ {
			h.StoreNT(a+Addr(j), uint64(a)+uint64(j))
		}
		if err := th.TryAtomic(func(tx *Txn) { tx.LoadWords(a, got) }); err != nil {
			t.Fatalf("LoadWords over block %d: %v", i, err)
		}
		for j, v := range got {
			if v != uint64(a)+uint64(j) {
				t.Fatalf("block %d word %d = %d, want %d", i, j, v, uint64(a)+uint64(j))
			}
		}
	}
	requireQuiescent(t, h)
}

// TestChunkBackingRace has threads carve fresh blocks, which moves their
// shards' prefault frontiers, while others run transactions over the blocks
// already published: word, bulk and strided reads whose ranges cross block,
// page and window boundaries, some reaching words not yet carved, and a write
// of a word back to itself. Every word a committed read returns is its
// block's pattern, a header or zero.
func TestChunkBackingRace(t *testing.T) {
	const (
		carvers   = 2
		readers   = 2
		perCarver = 5000 // about 80 windows of blocks averaging 32 words
	)
	h := NewHeap(Config{Words: 1 << 20})
	pattern := func(a Addr) uint64 { return uint64(a) | 1<<40 }
	var (
		published [carvers * perCarver]atomic.Uint32
		count     atomic.Int64
		done      atomic.Bool
		crossed   atomic.Int64
	)
	okWord := func(a Addr, v uint64) bool { return v == pattern(a) || v < 1<<21 }
	var wg sync.WaitGroup
	for c := 0; c < carvers; c++ {
		th := h.NewThread()
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perCarver; i++ {
				// A 5-line footprint does not divide a window, so some blocks
				// straddle a window boundary and runs inside them cross it.
				size := [4]int{7, 15, 39, 63}[r.Intn(4)]
				a := th.Alloc(size)
				for j := 0; j < size; j++ {
					h.StoreNT(a+Addr(j), pattern(a+Addr(j)))
				}
				published[count.Add(1)-1].Store(uint32(a))
			}
		}(int64(c))
	}
	for rd := 0; rd < readers; rd++ {
		th := h.NewThread()
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			dst := make([]uint64, 400)
			for !done.Load() {
				n := count.Load()
				if n == 0 {
					continue
				}
				a := Addr(published[r.Int63n(n)].Load())
				switch r.Intn(3) {
				case 0:
					// Just below the next window boundary: the run crosses
					// into words that may not be carved yet.
					a = (a | windowMask) + 1 - Addr(1+r.Intn(200))
				case 1:
					// Just past it: the run starts in that window.
					a = (a | windowMask) + 1 + Addr(r.Intn(200))
				}
				k := 1 + r.Intn(len(dst))
				stride := [4]int{1, 1, 3, -2}[r.Intn(4)]
				err := th.TryAtomic(func(tx *Txn) {
					if stride == 1 {
						tx.LoadWords(a, dst[:k])
					} else {
						tx.LoadStrided(a, stride, dst[:k])
					}
					tx.Store(a, tx.Load(a))
				})
				var ab *AbortError
				if err != nil && !errors.As(err, &ab) {
					t.Errorf("TryAtomic: %v", err)
					return
				}
				if err != nil {
					continue
				}
				for i, v := range dst[:k] {
					if w := a + Addr(i*stride); !okWord(w, v) {
						t.Errorf("word %#x read %#x, want its pattern, a header or zero", uint32(w), v)
						return
					}
				}
				if last := a + Addr((k-1)*stride); last|windowMask != a|windowMask {
					crossed.Add(1)
				}
			}
		}(int64(100 + rd))
	}
	for count.Load() < carvers*perCarver && !t.Failed() {
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
	if crossed.Load() == 0 {
		t.Log("no committed read crossed a window boundary while carving ran")
	}
	// Quiescent: every window boundary with live lines on both sides reads
	// across in one LoadWords.
	th := h.NewThread()
	dst := make([]uint64, 64)
	for i := range h.alloc.shards {
		sh := &h.alloc.shards[i]
		for b := (sh.start | windowMask) + 1; b+32 <= sh.bump; b += prefaultWords {
			if !allLive(h, b-32, b+32) {
				continue
			}
			if err := th.TryAtomic(func(tx *Txn) { tx.LoadWords(b-32, dst) }); err != nil {
				t.Fatalf("LoadWords across the window boundary at %#x: %v", uint32(b), err)
			}
			for j, v := range dst {
				if w := b - 32 + Addr(j); !okWord(w, v) {
					t.Fatalf("word %#x read %#x across a window boundary", uint32(w), v)
				}
			}
		}
	}
	requireQuiescent(t, h)
}

// windowMask extracts a word's offset within its aligned prefault window; the
// window boundaries are page boundaries too.
const windowMask Addr = prefaultWords - 1

// allLive reports whether every line of [lo, hi) is allocated.
func allLive(h *Heap, lo, hi Addr) bool {
	for a := lo; a < hi; a += 1 << lineShift {
		if !h.allocated(a) {
			return false
		}
	}
	return true
}
