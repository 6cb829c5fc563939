package htm

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests of the arena's backing: address space that the allocator backs one
// chunk at a time as it carves (Heap.back), and the word paths that reach
// memory through the chunk table.

// TestHeapBacksOnDemand pins what backing costs and that nothing reads past
// it: a large heap builds with no chunk backed, one thread's allocations back
// one chunk, recycling backs nothing, and a block larger than a chunk backs
// the chunks it covers and reads and writes across their boundary through
// every word path.
func TestHeapBacksOnDemand(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 26})
	if n := h.backedChunks(); n != 0 {
		t.Fatalf("a fresh heap backs %d chunks, want 0", n)
	}
	th := h.NewThread()
	var blocks []Addr
	for i := 0; i < 200; i++ {
		blocks = append(blocks, th.Alloc(1+i%64))
	}
	if n := h.backedChunks(); n != 1 {
		t.Fatalf("200 small blocks on one thread back %d chunks, want 1", n)
	}
	for _, a := range blocks {
		th.Free(a)
	}
	for i := range blocks {
		blocks[i] = th.Alloc(1 + i%64)
	}
	if n := h.backedChunks(); n != 1 {
		t.Fatalf("free and re-alloc backed %d chunks, want still 1", n)
	}
	requireQuiescent(t, h)

	// A block larger than a chunk, carved where the small ones end, backs
	// every chunk it covers and nothing else.
	size := chunkWords + chunkWords/2
	big := th.Alloc(size)
	first, last := (blocks[0]-1)>>chunkShift, (big+Addr(size)-1)>>chunkShift
	if n := h.backedChunks(); n != int(last-first)+1 {
		t.Fatalf("the large block left %d chunks backed, want %d", n, last-first+1)
	}
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
	// Strided walks up and down across a chunk boundary inside the block,
	// one with 200 words of the block on either side.
	boundary := int((big>>chunkShift)+1)<<chunkShift - int(big)
	if boundary < 200 {
		boundary += chunkWords
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
	th.Free(big)
	if th.Alloc(size) != big || h.backedChunks() != int(last-first)+1 {
		t.Errorf("re-allocating the large block moved it or backed more chunks")
	}
	requireQuiescent(t, h)
}

// TestLargeBlockInShortShard carves blocks just over a chunk long from shard
// regions between one and two chunks long, whose ends fall between chunk
// boundaries: a carve needs only its own words, wherever the boundaries are.
func TestLargeBlockInShortShard(t *testing.T) {
	shards := len(NewHeap(Config{Words: 1 << 10}).alloc.shards)
	h := NewHeap(Config{Words: 1 + shards*(chunkWords+chunkWords/2+8)})
	th := h.NewThread()
	const size = chunkWords + 8
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

// TestChunkBackingRace has threads carve fresh blocks, which backs new chunks,
// while others run transactions over the blocks already published: word,
// bulk and strided reads whose ranges cross block and chunk boundaries, some
// reaching chunks not yet backed, and a write of a word back to itself. Every
// word a committed read returns is its block's pattern, a header or zero.
func TestChunkBackingRace(t *testing.T) {
	const (
		carvers   = 2
		readers   = 2
		perCarver = 5000 // about 2.4 chunks of blocks averaging 32 words
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
				// A 5-line footprint does not divide a chunk, so some blocks
				// straddle a chunk boundary and runs inside them cross it.
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
					// Just below the next chunk boundary: the run crosses
					// into a chunk that may not be backed yet.
					a = (a | chunkMask) + 1 - Addr(1+r.Intn(200))
				case 1:
					// Just past it: the run starts in that chunk.
					a = (a | chunkMask) + 1 + Addr(r.Intn(200))
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
				if last := a + Addr((k-1)*stride); last>>chunkShift != a>>chunkShift {
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
		t.Log("no committed read crossed a chunk boundary while carving ran")
	}
	// Quiescent: every chunk boundary with live lines on both sides reads
	// across in one LoadWords.
	th := h.NewThread()
	dst := make([]uint64, 64)
	for i := range h.alloc.shards {
		sh := &h.alloc.shards[i]
		for b := (sh.start | chunkMask) + 1; b+32 <= sh.bump; b += chunkWords {
			if !allLive(h, b-32, b+32) {
				continue
			}
			if err := th.TryAtomic(func(tx *Txn) { tx.LoadWords(b-32, dst) }); err != nil {
				t.Fatalf("LoadWords across the chunk boundary at %#x: %v", uint32(b), err)
			}
			for j, v := range dst {
				if w := b - 32 + Addr(j); !okWord(w, v) {
					t.Fatalf("word %#x read %#x across a chunk boundary", uint32(w), v)
				}
			}
		}
	}
	requireQuiescent(t, h)
}

// allLive reports whether every line of [lo, hi) is allocated.
func allLive(h *Heap, lo, hi Addr) bool {
	for a := lo; a < hi; a += 1 << lineShift {
		if !h.allocated(a) {
			return false
		}
	}
	return true
}
