package htm

import "fmt"

// Inspection helpers that only this package's tests call. They live in a test
// file, so the package exports none of them; the tests keep calling them by
// the names they always had.

// ID returns the thread's unique identifier (1-based).
func (th *Thread) ID() uint64 { return th.id }

// BlockSize returns the payload size in words of the allocated block at a.
// Like free, it panics on an address that is not a block's start and on a
// block that is not allocated.
func (th *Thread) BlockSize(a Addr) int {
	h := th.h
	if !h.valid(a) || (a-1)&lineMask != 0 {
		panic(fmt.Sprintf("htm: BlockSize of invalid address %#x", uint32(a)))
	}
	hdr := h.header(a)
	if hdr&headerAllocBit == 0 {
		panic(fmt.Sprintf("htm: BlockSize of unallocated block %#x", uint32(a)))
	}
	return int(hdr >> 1)
}

// makeLive makes a's line allocated by hand, at version 0, as a carve and an
// alloc would have.
func (h *Heap) makeLive(a Addr) {
	h.meta[lineOf(a)].Store(makeMeta(0, true))
}

// mapped returns the bytes mapped by heaps not yet cleaned up: 0 in a build
// that makes its arenas (arena_make.go).
func mapped() int64 { return mappedBytes.Load() }

// AttemptStats returns the number of transaction attempts and commits made
// by this thread.
func (th *Thread) AttemptStats() (attempts, commits uint64) {
	return th.attempts, th.commits
}

// ResetMaxLive resets the live-words high-water mark to the current live
// count, so space measurements can be scoped to an experiment phase.
func (h *Heap) ResetMaxLive() {
	if h.cfg.trackMaxLive {
		h.stats.maxLiveWords.Store(h.stats.liveWords.Load())
		return
	}
	h.stats.maxLiveWords.Store(h.stats.cellLive())
}

// WriteSetSize reports the number of distinct words buffered for writing.
func (t *Txn) WriteSetSize() int { return len(t.writes) }

// parked returns how many fallback runs sleep on the waiter stripe of a's
// line (Heap.fbPark).
func (h *Heap) parked(a Addr) int32 {
	return h.fbWait[Addr(lineOf(a))&(fbWaitStripes-1)].n.Load()
}
