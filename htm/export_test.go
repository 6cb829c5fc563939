package htm

// Inspection helpers that only this package's tests call. They live in a test
// file, so the package exports none of them; the tests keep calling them by
// the names they always had.

// ID returns the thread's unique identifier (1-based).
func (th *Thread) ID() uint64 { return th.id }

// BlockSize returns the payload size in words of the allocated block at a.
func (th *Thread) BlockSize(a Addr) int { return th.h.alloc.blockSize(a) }

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
