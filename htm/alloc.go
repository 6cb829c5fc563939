package htm

import (
	"fmt"
	"runtime"
	"sync"
)

// The allocator hands out blocks of whole lines from the arena. Each block
// has a one-word header holding the payload size and an allocated bit, so
// Free needs only the payload address; the header starts a line and the
// footprint rounds up to whole lines, so no line is shared between blocks
// (or a block and free space) and every line transition is exactly one
// block's alloc or free. The slack words after a block's payload in its last
// line belong to the block: they read as live, and as zero unless the program
// wrote past its block.
//
// A block's size class is its footprint in lines (footprint), and freed
// blocks are recycled within their class, with no splitting or coalescing: a
// freed 2-word node serves a later 5-word request, since both own one line.
// The header survives the free, so alloc knows how much of a recycled block
// its previous life wrote and zeroes the part the new payload does not cover.
//
// The design follows libumem, the allocator the paper's experiments ran on:
// each Thread owns one magazine (a small fixed array of free payload
// addresses) per class up to magLines, serving the alloc/free fast path with
// no locking at all. Magazines refill from and drain to the arena's shards in
// batches of magBatch blocks, so the shard mutex is touched once per magBatch
// operations in steady state rather than once per operation. A shard holds
// one free list per class, indexed by line count, plus a bump region; larger
// classes skip the magazine and go to the shard directly.
//
// Threads are assigned shards round-robin, so even refills are uncontended
// when the number of worker threads does not exceed the shard count.
//
// Like any thread-caching allocator (libumem, tcmalloc), magazines strand a
// bounded amount of memory: up to magCap addresses per active class per
// thread are invisible to other threads until the owner drains them. Size
// arenas with that headroom; an allocation that finds every shard empty
// panics even if peer magazines hold free blocks of the right class.

const headerAllocBit uint64 = 1

const (
	// magLines is the largest class, in lines, served by magazines: the
	// footprint of a 64-word payload. The paper's structures allocate queue
	// nodes (a few words) and collect arrays (up to 64 handles), so this
	// covers every hot allocation.
	magLines = 9
	// magCap is the number of addresses a magazine holds.
	magCap = 16
	// magBatch is the number of blocks moved between a magazine and its
	// shard per refill or drain, amortizing the shard mutex.
	magBatch = 8
	// prefaultWords is how far take keeps a shard's backed words ahead of
	// its carve frontier: 16 KiB, 4 pages of 4 KiB.
	prefaultWords = 1 << 11
)

// footprint returns the size class of a block of size payload words: the
// lines its header and payload span.
func footprint(size int) int { return (size + 1 + int(lineMask)) >> lineShift }

// magazine is a per-thread cache of free blocks of one class.
type magazine struct {
	n     int
	addrs [magCap]Addr
}

type allocShard struct {
	mu    sync.Mutex
	start Addr     // first word of this shard's region (for sweeps)
	bump  Addr     // next unused word in this shard's region
	pre   Addr     // end of the words take has prefaulted
	end   Addr     // one past the shard's region
	free  [][]Addr // class (lines) -> free payload addresses; grown on demand

	// Pad the shard tail so the hot header fields (mutex, bump) of shard
	// i+1 never share a cache line with the free-list spine of shard i.
	_ [64]byte
}

type allocator struct {
	h      *Heap
	shards []allocShard
}

func (al *allocator) init(h *Heap) {
	al.h = h
	n := 1
	for n < runtime.NumCPU()*2 {
		n <<= 1
	}
	al.shards = make([]allocShard, n)
	// Word 0 is reserved so that NilAddr is never a valid payload address.
	lo := 1
	total := h.cfg.Words - lo
	per := total / n
	for i := range al.shards {
		s := &al.shards[i]
		s.free = make([][]Addr, magLines+1)
		s.start = Addr(lo + i*per)
		s.bump, s.pre = s.start, s.start
		s.end = Addr(lo + (i+1)*per)
	}
	al.shards[n-1].end = Addr(h.cfg.Words)
}

// take moves up to len(dst) free blocks of the given class from shard si into
// dst or, when the shard has none, carves one fresh block from its bump
// region — only recycled blocks batch, so idle classes never pin unused arena
// words. It returns the number of blocks moved.
//
// A carve that passes the shard's prefaulted frontier moves it prefaultWords
// past the new bump and, once the mutex is released, asks the kernel to back
// the words in between (prefault): one call per window carved, instead of a
// page fault on the first touch of each page.
func (al *allocator) take(si, lines int, dst []Addr) int {
	s := &al.shards[si]
	s.mu.Lock()
	if lines < len(s.free) {
		lst := s.free[lines]
		if n := copy(dst, lst[max(len(lst)-len(dst), 0):]); n > 0 {
			s.free[lines] = lst[:len(lst)-n]
			s.mu.Unlock()
			return n
		}
	}
	// Both the block's start and its footprint are whole lines.
	b := (s.bump + lineMask) &^ lineMask
	need := Addr(lines) << lineShift
	if b > s.end || s.end-b < need {
		s.mu.Unlock()
		return 0
	}
	s.bump = b + need
	var lo, hi Addr // the words to prefault, if any
	if s.bump > s.pre {
		lo, hi = max(s.pre, b), min(s.bump+prefaultWords, s.end)
		s.pre = hi
	}
	s.mu.Unlock()
	if lo < hi {
		prefault(al.h.words[lo:hi])
	}
	dst[0] = b + 1
	return 1
}

// give pushes blocks of the given class onto shard si's free list.
func (al *allocator) give(si, lines int, blocks []Addr) {
	s := &al.shards[si]
	s.mu.Lock()
	for len(s.free) <= lines {
		s.free = append(s.free, nil)
	}
	s.free[lines] = append(s.free[lines], blocks...)
	s.mu.Unlock()
}

// allocRaw obtains a recycled or freshly carved block of size's class for th,
// without preparing its header, contents or statistics.
func (al *allocator) allocRaw(th *Thread, size int) Addr {
	lines := footprint(size)
	if lines > magLines {
		var one [1]Addr
		al.refill(th.shard, lines, one[:])
		return one[0]
	}
	m := &th.mags[lines-1]
	if m.n == 0 {
		m.n = al.refill(th.shard, lines, m.addrs[:magBatch])
	}
	m.n--
	return m.addrs[m.n]
}

// refill takes blocks of the given class into dst from shard home or else the
// first shard that can serve, and returns how many it took. It panics if the
// arena is exhausted.
func (al *allocator) refill(home, lines int, dst []Addr) int {
	n := al.take(home, lines, dst)
	for i := 0; n == 0 && i < len(al.shards); i++ {
		if i != home {
			n = al.take(i, lines, dst)
		}
	}
	if n == 0 {
		panic(fmt.Sprintf("htm: arena exhausted allocating a %d-line block (capacity %d words; note: peer threads' magazines may cache freed blocks — size the arena with thread-cache headroom)", lines, al.h.cfg.Words))
	}
	return n
}

// alloc returns an allocated block of size words for th, holding image (which
// must then be size words long) or, with a nil image, zeros. It panics if the
// arena is exhausted.
//
// One tick of the version clock versions the whole block, and
// each of its lines' free->allocated transition is a single CAS (a block owns
// whole lines, so every transition is exclusively this alloc's). The fresh
// version (rather than reusing the line's last one) is what closes the
// reallocation window: any transaction that began before this tick and read
// the block's previous life will see a tick above its rv on its next access
// to the block, be forced to extend, and fail revalidation on the word it read
// (whose metadata the free already rewrote). The word values are
// written before the allocated bit is published, so no reader can observe
// stale contents as live memory — and, for the same reason, none can observe
// the image early: a reader still holding the previous life's metadata word
// re-reads it after the value and finds the free's rewrite. That is the
// paper's §6 discipline (fill a node while it is private, publish it with one
// short transaction) applied to the allocation itself.
func (al *allocator) alloc(th *Thread, size int, image []uint64) Addr {
	if size <= 0 {
		panic("htm: alloc of non-positive size")
	}
	a := al.allocRaw(th, size)
	h := al.h
	// A recycled block's header still records its previous payload size;
	// zero what that life wrote beyond the new payload, so the slack reads
	// as zero. A fresh block's header reads 0, as every untouched word does.
	hdr := &h.words[a-1]
	if old := int(hdr.Load() >> 1); old > size {
		h.fill(a+Addr(size), old-size, nil)
	}
	hdr.Store(uint64(size)<<1 | headerAllocBit)
	wv := h.tick()
	live := makeMeta(wv, true)
	h.fill(a, size, image)
	for l, hi := lineOf(a), lineOf(a+Addr(size)-1); l <= hi; l++ {
		m := h.meta[l].Load()
		if m&(metaAllocBit|metaLockBit) != 0 {
			panic(fmt.Sprintf("htm: allocator invariant violation: line of word %#x already allocated or locked", uint32(a)))
		}
		if !h.meta[l].CompareAndSwap(m, live) {
			// Free lines are never locked and never written by anyone but
			// the allocator, which holds this block exclusively.
			panic(fmt.Sprintf("htm: allocator invariant violation: free line of word %#x changed concurrently", uint32(a)))
		}
	}
	bump(&th.cell.allocCalls) // also stands for the tick above in Stats.ClockShardTicks
	if h.cfg.trackMaxLive {
		live := h.stats.liveWords.Add(uint64(size))
		for {
			m := h.stats.maxLiveWords.Load()
			if live <= m || h.stats.maxLiveWords.CompareAndSwap(m, live) {
				break
			}
		}
	} else {
		bumpBy(&th.cell.allocWords, uint64(size)) // NoMaxLive: cellLive derives the live count
	}
	return a
}

// fill stores image, or n zeros with a nil image, over the n words from a.
func (h *Heap) fill(a Addr, n int, image []uint64) {
	ws := h.words[a:][:n]
	if image == nil {
		for i := range ws {
			ws[i].Store(0)
		}
	} else {
		for i, v := range image[:n] {
			ws[i].Store(v)
		}
	}
	runtime.KeepAlive(h) // the mapping under ws (see mapArena)
}

// free returns the block whose payload starts at a to th's magazine for its
// class (or, above magLines, to th's home shard). Each of the block's lines
// has its allocated bit cleared and its version bumped in ONE CAS — the
// version bump IS the generation flip of the old two-array design — so any
// in-flight transaction that read the block aborts at its next validation,
// and any later transactional access aborts immediately (sandboxing). The
// block owns its lines outright, so every transition is exclusively this
// free's. An address whose header word would not start a line is not a
// block's and panics before anything is read, and so does a header whose
// line is not allocated, which may never have been carved; an interior pointer
// that happens to start a later line of a multi-line block is not detected.
func (al *allocator) free(th *Thread, a Addr) {
	h := al.h
	if !h.valid(a) || (a-1)&lineMask != 0 {
		panic(fmt.Sprintf("htm: free of invalid address %#x", uint32(a)))
	}
	hdr := h.header(a)
	if hdr&headerAllocBit == 0 {
		panic(fmt.Sprintf("htm: double free of %#x", uint32(a)))
	}
	size := int(hdr >> 1)
	lo, hi := lineOf(a), lineOf(a+Addr(size)-1)
	if th.inFallbackHoldingLines() {
		// Decide the misuse panics (see freeGuard) before any state changes,
		// so a panicking free leaves the block allocated and the clock
		// unticked.
		for l := lo; l <= hi; l++ {
			th.freeGuard(a, l, h.meta[l].Load())
		}
	}
	h.words[a-1].Store(uint64(size) << 1)
	// One tick of the version clock versions the whole block. Unlike the
	// old flip-before-release dance, the tick may precede the per-line
	// transitions: a transaction that began after the tick (rv admits wv) can
	// still read a not-yet-flipped line's pre-free value — that read is of
	// then-live memory and linearizes before the free — but it can never pair
	// it with post-reallocation state under one snapshot, because allocate
	// stamps reused lines with a version from a LATER tick that postdates
	// every such reader's begin, which forces an extension whose revalidation
	// rereads the flipped metadata and aborts. A CAS that observes the lock
	// bit (a commit's write-back, or an NT write) spins: commits never block
	// on a held word, so this cannot deadlock.
	wv := h.tick()
	dead := makeMeta(wv, false)
	for l := lo; l <= hi; l++ {
		for spins := 0; ; spins++ {
			m := h.meta[l].Load()
			if !metaAllocated(m) {
				panic(fmt.Sprintf("htm: free of already-free line (block %#x)", uint32(a)))
			}
			if !metaLocked(m) && h.meta[l].CompareAndSwap(m, dead) {
				break
			}
			// Held by a commit write-back (short) or a fallback lock-set
			// (potentially long); yield rather than burn the core. The scan
			// above already decided the misuse panics; this guard fires only
			// when another thread's fallback locked one of the block's lines
			// after it, a race with the free itself.
			th.freeGuard(a, l, m)
			if spins&63 == 63 {
				runtime.Gosched()
			}
		}
	}
	bump(&th.cell.freeCalls) // also stands for the tick above in Stats.ClockShardTicks
	if h.cfg.trackMaxLive {
		h.stats.liveWords.Add(^uint64(size - 1))
	} else {
		bumpBy(&th.cell.freeWords, uint64(size))
	}
	lines := footprint(size)
	if lines > magLines {
		al.give(th.shard, lines, []Addr{a})
		return
	}
	m := &th.mags[lines-1]
	if m.n == magCap {
		m.n -= magBatch
		al.give(th.shard, lines, m.addrs[m.n:])
	}
	m.addrs[m.n] = a
	m.n++
}

// header returns the header word of the block whose payload starts at a, or
// 0 where the header's line is not allocated: a freed block's, or one never
// carved.
func (h *Heap) header(a Addr) uint64 {
	if !metaAllocated(h.meta[lineOf(a-1)].Load()) {
		return 0
	}
	return h.words[a-1].Load()
}

// inFallbackHoldingLines reports whether th is inside a fallback body that
// holds line locks.
func (th *Thread) inFallbackHoldingLines() bool {
	return th.inTxn && th.txn.direct && len(th.txn.lines) > 0
}

// freeGuard panics where free of block a must not wait on line l, whose
// metadata is m. Our own fallback's lock would be waited on forever, and ANY
// fallback's lock, if th is itself inside a fallback holding locks, closes a
// cross-thread cycle the ordered-acquisition protocol cannot see (free waits
// outside it). Both are a fallback body calling Thread.Free directly; it must
// use Txn.FreeOnCommit, which runs after the lock-set is released.
func (th *Thread) freeGuard(a Addr, l int, m uint64) {
	if !metaFallbackLocked(m) {
		return
	}
	if metaFallbackOwner(m) == th.id&fallbackOwnerMask {
		panic(fmt.Sprintf("htm: free of %#x inside a fallback operation holding its line %d locked (self-deadlock); use Txn.FreeOnCommit", uint32(a), l))
	}
	if th.inFallbackHoldingLines() {
		panic(fmt.Sprintf("htm: free of %#x inside a fallback operation while its line %d is fallback-locked by another thread (deadlock risk); use Txn.FreeOnCommit", uint32(a), l))
	}
}
