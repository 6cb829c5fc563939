package htm

import (
	"fmt"
	"runtime"
	"sync"
)

// The allocator hands out blocks of whole words from the arena. Each block
// has a one-word header holding the payload size and an allocated bit, so
// Free needs only the payload address. Freed blocks are recycled on
// exact-size free lists (no splitting or coalescing — the experiments
// allocate a small set of block sizes, and exact-size recycling keeps the
// simulation simple and fast without affecting any measured behaviour).
//
// The design follows libumem, the allocator the paper's experiments ran on:
// each Thread owns a per-size-class magazine (a small fixed array of free
// payload addresses) that serves the alloc/free fast path with no locking at
// all. Magazines refill from and drain to the arena's shards in batches of
// magBatch blocks, so the shard mutex is touched once per magBatch operations
// in steady state rather than once per operation. Shards hold fixed arrays of
// exact-size free lists (one slice per class, indexed directly by size) plus
// a bump region; only sizes above maxMagSize fall back to a per-shard map.
//
// Threads are assigned shards round-robin, so even refills are uncontended
// when the number of worker threads does not exceed the shard count.
//
// Like any thread-caching allocator (libumem, tcmalloc), magazines strand a
// bounded amount of memory: up to magCap addresses per active size class per
// thread are invisible to other threads until the owner drains them. Size
// arenas with that headroom; an allocation that finds every shard empty
// panics even if peer magazines hold free blocks of the right size.

const headerAllocBit uint64 = 1

const (
	// maxMagSize is the largest payload size (in words) served by magazines
	// and the shards' array free lists; class s serves exactly size s. The
	// paper's structures allocate queue nodes (a few words) and collect
	// arrays (up to 64 handles), so this covers every hot allocation.
	maxMagSize = 64
	// magCap is the number of addresses a magazine holds per size class.
	magCap = 16
	// magBatch is the number of blocks moved between a magazine and its
	// shard per refill or drain, amortizing the shard mutex.
	magBatch = 8
)

// magazine is a per-thread cache of free blocks of one size class.
type magazine struct {
	n     int
	addrs [magCap]Addr
}

type allocShard struct {
	mu    sync.Mutex
	start Addr                   // first word of this shard's region (for sweeps)
	bump  Addr                   // next unused word in this shard's region
	end   Addr                   // one past the shard's region
	free  [maxMagSize + 1][]Addr // exact payload size -> free payload addresses
	big   map[int][]Addr         // sizes above maxMagSize (off the hot path)

	// Pad the shard tail so the hot header fields (mutex, bump) of shard
	// i+1 never share a cache line with the free-list spine of shard i.
	_ [64]byte
}

type allocator struct {
	h      *Heap
	shards []allocShard

	// stripeMask aligns carved blocks to metadata stripes when
	// Config.StripeShift is set: a block's header+payload footprint is
	// rounded up to whole stripes and starts on a stripe boundary, so no
	// stripe is ever shared between two blocks (or a block and free space).
	// That keeps the per-stripe allocated bit and version coherent — every
	// stripe transition is owned by exactly one block's alloc/free. Zero
	// without striping, making the carve arithmetic the identity.
	stripeMask Addr
}

func (al *allocator) init(h *Heap) {
	al.h = h
	al.stripeMask = Addr(1)<<h.stripeShift - 1
	n := 1
	for n < runtime.NumCPU()*2 {
		n <<= 1
	}
	al.shards = make([]allocShard, n)
	// Word 0 is reserved so that NilAddr is never a valid payload address.
	lo := 1
	total := len(h.words) - lo
	per := total / n
	for i := range al.shards {
		s := &al.shards[i]
		s.big = make(map[int][]Addr)
		s.start = Addr(lo + i*per)
		s.bump = s.start
		s.end = Addr(lo + (i+1)*per)
	}
	al.shards[n-1].end = Addr(len(h.words))
}

// carve cuts a fresh block of size payload words from shard s's bump region
// (mutex held by the caller), returning NilAddr when the region is exhausted.
// With striping both the block's start and its footprint round up to stripe
// boundaries; see stripeMask.
func (al *allocator) carve(s *allocShard, size int) Addr {
	b := (s.bump + al.stripeMask) &^ al.stripeMask
	need := (Addr(size+1) + al.stripeMask) &^ al.stripeMask
	if b > s.end || s.end-b < need {
		return NilAddr
	}
	s.bump = b + need
	return b + 1
}

// refillMag moves up to magBatch free blocks of the given size class from
// shard si into m. Fresh blocks are carved from the bump region one at a
// time — only recycled blocks batch — so idle size classes never pin unused
// arena words. It reports whether m ended up non-empty.
func (al *allocator) refillMag(si, size int, m *magazine) bool {
	s := &al.shards[si]
	s.mu.Lock()
	lst := s.free[size]
	take := magBatch - m.n
	if take > len(lst) {
		take = len(lst)
	}
	if take > 0 {
		copy(m.addrs[m.n:], lst[len(lst)-take:])
		s.free[size] = lst[:len(lst)-take]
		m.n += take
	}
	if m.n == 0 {
		if a := al.carve(s, size); a != NilAddr {
			m.addrs[0] = a
			m.n = 1
		}
	}
	s.mu.Unlock()
	return m.n > 0
}

// drainMag returns magBatch blocks from a full magazine to shard si's free
// list, keeping the rest cached for subsequent allocs.
func (al *allocator) drainMag(si, size int, m *magazine) {
	s := &al.shards[si]
	keep := m.n - magBatch
	s.mu.Lock()
	s.free[size] = append(s.free[size], m.addrs[keep:m.n]...)
	s.mu.Unlock()
	m.n = keep
}

// allocRaw obtains a recycled or freshly carved block of size payload words
// for th, without preparing its header, contents or statistics. It panics if
// the arena is exhausted.
func (al *allocator) allocRaw(th *Thread, size int) Addr {
	if size >= 1 && size <= maxMagSize {
		m := &th.mags[size]
		if m.n == 0 && !al.refillMag(th.shard, size, m) {
			for i := range al.shards {
				if i != th.shard && al.refillMag(i, size, m) {
					break
				}
			}
		}
		if m.n > 0 {
			m.n--
			return m.addrs[m.n]
		}
	} else {
		if a := al.allocBigFrom(th.shard, size); a != NilAddr {
			return a
		}
		for i := range al.shards {
			if i == th.shard {
				continue
			}
			if a := al.allocBigFrom(i, size); a != NilAddr {
				return a
			}
		}
	}
	panic(fmt.Sprintf("htm: arena exhausted allocating %d words (capacity %d; note: peer threads' magazines may cache freed blocks — size the arena with thread-cache headroom)", size, len(al.h.words)))
}

// allocBigFrom serves the slow path for sizes above maxMagSize from shard
// si's map-backed free lists or bump region, returning NilAddr on failure.
func (al *allocator) allocBigFrom(si, size int) Addr {
	s := &al.shards[si]
	s.mu.Lock()
	if lst := s.big[size]; len(lst) > 0 {
		a := lst[len(lst)-1]
		s.big[size] = lst[:len(lst)-1]
		s.mu.Unlock()
		return a
	}
	a := al.carve(s, size)
	s.mu.Unlock()
	return a
}

// alloc returns an allocated block of size words for th, holding image (which
// must then be size words long) or, with a nil image, zeros. It panics if the
// arena is exhausted.
//
// One tick of the thread's home clock shard versions the whole block, and
// each governing metadata word's free->allocated transition is a single CAS
// (one per word by default, one per stripe with striping — a block owns whole
// stripes, so every transition is exclusively this alloc's). The fresh
// version (rather than reusing the stripe's last one) is what closes the
// reallocation window: any transaction that began before this tick and read
// the block's previous life will see a tick above its rv entry for this shard
// on its next access to the block, be forced to extend, and fail revalidation
// on the word it read (whose metadata the free already rewrote — an equality
// check, so it holds whatever shard the free ticked). The word values are
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
	h.words[a-1].Store(uint64(size)<<1 | headerAllocBit)
	wv := th.tickClock()
	live := makeMeta(wv, true)
	words := h.words[a : a+Addr(size)]
	if image == nil {
		for i := range words {
			words[i].Store(0)
		}
	} else {
		for i := range words {
			words[i].Store(image[i])
		}
	}
	for si, hi := h.mi(a), h.mi(a+Addr(size)-1); si <= hi; si++ {
		m := h.meta[si].Load()
		if m&(metaAllocBit|metaLockBit) != 0 {
			panic(fmt.Sprintf("htm: allocator invariant violation: stripe of word %#x already allocated or locked", uint32(a)))
		}
		if !h.meta[si].CompareAndSwap(m, live) {
			// Free stripes are never locked and never written by anyone but
			// the allocator, which holds this block exclusively.
			panic(fmt.Sprintf("htm: allocator invariant violation: free stripe of word %#x changed concurrently", uint32(a)))
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

// free returns the block whose payload starts at a to th's magazine (or, for
// oversized blocks, to th's home shard). Each governing metadata word's
// allocated bit is cleared and its version bumped in ONE CAS — the version
// bump IS the generation flip of the old two-array design — so any in-flight
// transaction that read the block aborts at its next validation, and any
// later transactional access aborts immediately (sandboxing). With striping
// the block owns its stripes outright, so per-stripe transitions stay
// exclusively this free's.
func (al *allocator) free(th *Thread, a Addr) {
	h := al.h
	if !h.valid(a) {
		panic(fmt.Sprintf("htm: free of invalid address %#x", uint32(a)))
	}
	hdr := h.words[a-1].Load()
	if hdr&headerAllocBit == 0 {
		panic(fmt.Sprintf("htm: double free of %#x", uint32(a)))
	}
	size := int(hdr >> 1)
	h.words[a-1].Store(uint64(size) << 1)
	// One tick of th's home clock shard versions the whole block. Unlike the
	// old flip-before-release dance, the tick may precede the per-stripe
	// transitions: a transaction that began after the tick (rv admits wv) can
	// still read a not-yet-flipped word's pre-free value — that read is of
	// then-live memory and linearizes before the free — but it can never pair
	// it with post-reallocation state under one snapshot, because allocate
	// stamps reused stripes with a version from a LATER tick of SOME shard
	// that postdates every such reader's begin-scan of that shard, which
	// forces an extension whose revalidation rereads the flipped metadata and
	// aborts. A CAS that observes the lock bit (a commit's write-back, or an
	// NT write) spins: commits never block on a held word, so this cannot
	// deadlock.
	wv := th.tickClock()
	dead := makeMeta(wv, false)
	for w, hi := h.mi(a), h.mi(a+Addr(size)-1); w <= hi; w++ {
		for spins := 0; ; spins++ {
			m := h.meta[w].Load()
			if !metaAllocated(m) {
				panic(fmt.Sprintf("htm: free of already-free stripe (block %#x)", uint32(a)))
			}
			if !metaLocked(m) && h.meta[w].CompareAndSwap(m, dead) {
				break
			}
			// Held by a commit write-back (short) or a fallback lock-set
			// (potentially long); yield rather than burn the core. Two cases
			// must panic instead of waiting: our own fallback's lock would be
			// waited on forever, and ANY fallback's lock, if this thread is
			// itself inside a fallback holding locks, closes a cross-thread
			// cycle the ordered-acquisition protocol cannot see (free() waits
			// outside it). Both are a fallback body calling Thread.Free
			// directly; it must use Txn.FreeOnCommit, which runs after the
			// lock-set is released.
			if metaFallbackLocked(m) {
				if metaFallbackOwner(m) == th.id&fallbackOwnerMask {
					panic(fmt.Sprintf("htm: free of %#x inside a fallback operation holding word %#x locked (self-deadlock); use Txn.FreeOnCommit", uint32(a), uint32(w)))
				}
				if th.inTxn && th.txn.direct && len(th.txn.locks) > 0 {
					panic(fmt.Sprintf("htm: free of %#x inside a fallback operation while word %#x is fallback-locked by another thread (deadlock risk); use Txn.FreeOnCommit", uint32(a), uint32(w)))
				}
			}
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
	if size <= maxMagSize {
		m := &th.mags[size]
		if m.n == magCap {
			al.drainMag(th.shard, size, m)
		}
		m.addrs[m.n] = a
		m.n++
		return
	}
	s := &al.shards[th.shard]
	s.mu.Lock()
	s.big[size] = append(s.big[size], a)
	s.mu.Unlock()
}

// blockSize returns the payload size in words of the allocated block at a.
func (al *allocator) blockSize(a Addr) int {
	hdr := al.h.words[a-1].Load()
	return int(hdr >> 1)
}
