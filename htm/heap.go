package htm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Metadata geometry and encoding. One metadata word governs one aligned
// 8-word line — the conflict granule of real HTMs, Rock included, which track
// reads and writes per cache line — and fuses the versioned ownership record
// (orec) with the allocation state that used to live in a separate generation
// array:
//
//	bit 0     lock bit (held during commit write-back and NT writes)
//	bit 1     allocated bit (set while the line belongs to a live block)
//	bits 2-63 version: the version-clock tick of the line's last transition
//
// Folding both cells into one atomic word makes every transactional load's
// entire validation predicate — unlocked, allocated, version ≤ rv — a single
// atomic read whose three fields are mutually consistent by construction, and
// makes every allocate/free transition a single CAS per line. The allocator
// starts every block (header included) on a line boundary and rounds its
// footprint up to whole lines, so no line is ever shared between blocks.
//
// The heap keeps one version clock (Heap.clock), and a version is one of its
// ticks, so a validator's whole version test is one compare against its
// snapshot rv. Invariants:
//
//   - Only live lines are ever locked (all lock paths check the allocated
//     bit in the same word they CAS), so free lines are always unlocked and
//     the allocator can transition them without a lock handshake.
//   - Every transition writes a fresh version drawn from the clock: commit
//     write-back, NT writes, free, AND allocate. Writers that hold the
//     affected metadata locks (commits, NT ops, the fallback) tick after
//     acquiring them; alloc/free own their block exclusively. Versions are
//     strictly monotonic and a tick can never recur, which is what keeps
//     recorded metadata words unrepeatable. The version bump on free is the
//     generation flip of the old design; the bump on allocate is what forces
//     any transaction that read the block's previous life to revalidate (and
//     fail) before it can observe the new one. See DESIGN.md "Line metadata"
//     and "The version clock" for the sandbox and linearization arguments.
const (
	metaLockBit  uint64 = 1 << 0
	metaAllocBit uint64 = 1 << 1
	metaVerShift        = 2

	// metaFBTagBit marks a line locked by a TLE fallback run
	// (thread.go). While a fallback operation holds a line, the version field
	// carries the owner's thread ID instead of a version — the pre-lock word
	// is preserved in the owner's lock-set and the release writes either that
	// word back (read-locked) or a fresh version (written), so no version
	// information is lost and version monotonicity is preserved. The tag sits
	// in the version field's top bit: the clock ticks once per committed
	// write/alloc/free transition, so a real version can never reach 2^61.
	// The tag lets a contending fallback distinguish a long-held
	// fallback lock (apply the deadlock-avoidance protocol) from a commit
	// write-back (always short: commits never wait while holding locks, so
	// spinning is safe), and makes the owner readable in a debugger.
	metaFBTagBit uint64 = 1 << 63
)

func metaVersion(m uint64) uint64 { return m >> metaVerShift }
func metaLocked(m uint64) bool    { return m&metaLockBit != 0 }
func metaAllocated(m uint64) bool { return m&metaAllocBit != 0 }

// makeFallbackMeta builds the metadata word for a fallback-locked live line:
// locked, allocated, fallback-tagged, owner ID in the version field.
func makeFallbackMeta(owner uint64) uint64 {
	return metaFBTagBit | owner<<metaVerShift&^metaFBTagBit | metaAllocBit | metaLockBit
}

// metaFallbackLocked reports whether m is held by a fallback lock-set (as
// opposed to a commit write-back or NT operation, which hold the bare lock
// bit for a bounded burst).
func metaFallbackLocked(m uint64) bool {
	return m&(metaFBTagBit|metaLockBit) == metaFBTagBit|metaLockBit
}

// metaFallbackOwner extracts the owner thread ID from a fallback-locked word.
func metaFallbackOwner(m uint64) uint64 {
	return m &^ (metaFBTagBit | metaAllocBit | metaLockBit) >> metaVerShift
}

func makeMeta(version uint64, allocated bool) uint64 {
	m := version << metaVerShift
	if allocated {
		m |= metaAllocBit
	}
	return m
}

// clockLine is the version clock, padded to a full cache line of its own and
// allocated apart from the Heap, so that the commits, allocs and frees that
// tick it never invalidate the line holding the heap's hot read-only fields.
type clockLine struct {
	v atomic.Uint64
	_ [7]uint64
}

// Heap is a simulated word-addressable memory with a built-in allocator and a
// transactional engine. All concurrent access — transactional or not — must
// go through its methods; a Heap is safe for use by multiple goroutines.
type Heap struct {
	cfg Config

	// words is the arena, Config.Words of them, and meta its per-line
	// metadata (lock | allocated | version). Both are address space whose
	// pages are backed, zeroed, on first touch (mapArena).
	words []atomic.Uint64
	meta  []atomic.Uint64

	// The version clock. Every writer ticks it once and publishes the tick
	// as the version of the lines it wrote (see tick).
	clock *clockLine

	// The TLE fallback (Config.EnableTLE; see runFallback). fallbackSeq is
	// the global fallback lock's epoch: even when free, odd while a global
	// critical section is in flight; on a GlobalFallback heap hardware
	// attempts snapshot it at begin and revalidate it at extend and commit.
	// It sits beside the clock pointer, which every begin loads anyway, so
	// that snapshot does not pull in a cache line of its own. fallbackMu is
	// the global fallback lock. A heap without GlobalFallback never reads
	// either; fbWait parks its fallback runs that wait for another fallback's
	// line lock (fbPark), and is nil without EnableTLE.
	fallbackSeq atomic.Uint64
	fallbackMu  sync.Mutex
	fbWait      *[fbWaitStripes]fbWaitStripe

	alloc   allocator
	stats   stats
	nextTID atomic.Uint64

	// ntAccesses drives cooperative yields for non-transactional accesses
	// when FaultPlan.YieldEvery is set, so that HTM-free algorithms pay the
	// same simulated per-access time as transactional ones on
	// under-provisioned hosts. ntYieldThresh is 2^64/YieldEvery (0 = never),
	// making the per-access decision a hash-and-compare, not a division.
	ntAccesses    atomic.Uint64
	ntYieldThresh uint64
}

// NewHeap creates a Heap with the given configuration (zero value for
// Rock-like defaults).
func NewHeap(cfg Config) *Heap {
	cfg = cfg.withDefaults()
	h := &Heap{cfg: cfg, clock: new(clockLine)}
	h.words, h.meta = mapArena(h, cfg.Words, (cfg.Words+int(lineMask))>>lineShift)
	if cfg.Faults != nil {
		h.ntYieldThresh = yieldThreshold(cfg.Faults.YieldEvery)
	}
	if cfg.EnableTLE {
		h.fbWait = new([fbWaitStripes]fbWaitStripe)
		for i := range h.fbWait {
			h.fbWait[i].cond.L = &h.fbWait[i].mu
		}
	}
	h.alloc.init(h)
	return h
}

// fbWaitStripes is the number of waiter stripes lines hash to (a power of
// two); a stripe is shared by every line congruent modulo it.
const fbWaitStripes = 64

// fbWaitStripe is where fallback runs sleep until a fallback-locked line of
// the stripe is released: n counts the sleepers, so that a release with none
// costs one load and no lock.
type fbWaitStripe struct {
	n    atomic.Int32
	mu   sync.Mutex
	cond sync.Cond
}

// fbPark blocks until line l is not fallback-locked. It is the fallback's
// wait for another fallback's line: a lock-set can be held for a whole body,
// and waiters that yield in a loop starve its holder of the CPU it needs to
// release, where a sleeper costs nothing until the release wakes it.
//
// No wakeup is lost. fbRelease is the only writer that moves a metadata word
// out of the fallback-locked state, and it stores the word before it loads
// the stripe's count; the sleeper increments the count before it re-checks
// the word under the stripe's mutex. With both sequentially consistent,
// either the release sees the count and broadcasts under the mutex — which
// the sleeper holds from its check until Wait releases it — or the sleeper's
// check comes after the store and sees the line released. A line re-locked
// by a third run in between is a new hold whose release wakes again.
func (h *Heap) fbPark(l Addr) {
	st := &h.fbWait[l&(fbWaitStripes-1)]
	st.n.Add(1)
	st.mu.Lock()
	for metaFallbackLocked(h.meta[l].Load()) {
		st.cond.Wait()
	}
	st.mu.Unlock()
	st.n.Add(-1)
}

// fbWake wakes every run parked on line l's stripe, after fbRelease stored
// l's released metadata word. A stripe is shared, so all its sleepers wake
// and each re-checks its own line.
func (h *Heap) fbWake(l Addr) {
	if st := &h.fbWait[l&(fbWaitStripes-1)]; st.n.Load() != 0 {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// lineShift is log2 of the words one metadata word governs, and lineMask
// extracts a word's offset within its line.
const (
	lineShift      = 3
	lineMask  Addr = 1<<lineShift - 1
)

// lineOf maps a word address to its line: the index of its metadata word.
func lineOf(a Addr) int { return int(a) >> lineShift }

// tick advances the version clock and returns the new tick, which is the
// version the caller publishes. Callers must already exclude every concurrent
// writer of the metadata words the version will be stored to (by holding
// their locks, or — for alloc/free — by owning the block). It bumps no
// statistic: Stats.ClockShardTicks is derived, so every tick a thread issues
// must end in a counter that implies it (writeCommits, allocCalls, freeCalls)
// or bump extraTicks itself; the threadless NT operations' ticks go uncounted.
func (h *Heap) tick() uint64 { return h.clock.v.Add(1) }

// Config returns the effective configuration of the heap.
func (h *Heap) Config() Config { return h.cfg }

// valid reports whether a is a non-nil address inside the arena.
func (h *Heap) valid(a Addr) bool {
	return a != NilAddr && int(a) < h.cfg.Words
}

// allocated reports whether the word at a is currently allocated.
func (h *Heap) allocated(a Addr) bool {
	return h.valid(a) && metaAllocated(h.meta[lineOf(a)].Load())
}

// yieldThreshold converts FaultPlan.YieldEvery into the compare threshold
// used by the per-access yield checks: a uniformly random uint64 falls below
// it with probability 1/y. YieldEvery=1 saturates to always-yield (the naive
// 2^64/1+1 would wrap to zero and disable yielding entirely).
func yieldThreshold(y int) uint64 {
	switch {
	case y <= 0:
		return 0
	case y == 1:
		return ^uint64(0)
	default:
		return ^uint64(0)/uint64(y) + 1
	}
}

// maybeYieldNT models access time for non-transactional operations; see
// FaultPlan.YieldEvery. A shared counter (cheap on the hosts where this is on)
// spreads yields across all NT traffic; hashing it keeps the expected rate at
// one yield per YieldEvery accesses without a per-access division.
func (h *Heap) maybeYieldNT() {
	if h.ntYieldThresh != 0 {
		if h.ntAccesses.Add(1)*0x9E3779B97F4A7C15 < h.ntYieldThresh {
			runtime.Gosched()
		}
	}
}

func (h *Heap) checkNTAddr(a Addr, op string) {
	if !h.valid(a) {
		panic(fmt.Sprintf("htm: non-transactional %s through invalid address %#x (simulated segmentation fault)", op, uint32(a)))
	}
}

func ntFreedPanic(a Addr, op string) {
	panic(fmt.Sprintf("htm: non-transactional %s of freed word %#x (simulated segmentation fault)", op, uint32(a)))
}

// lockMeta spin-acquires the metadata word governing a and returns the
// pre-acquisition value. The allocated check rides in the same CAS'd word, so
// lock acquisition and the liveness check are one atomic step; it panics on
// freed words (simulated segmentation fault: correct non-transactional code
// never writes freed memory). A held lock is either a commit write-back
// (short) or a fallback lock-set hold (potentially long — the owner may be
// descheduled mid-operation), so the loop yields periodically instead of
// burning the core.
func (h *Heap) lockMeta(a Addr, op string) uint64 {
	mi := lineOf(a)
	for spins := 0; ; spins++ {
		m := h.meta[mi].Load()
		if !metaAllocated(m) {
			ntFreedPanic(a, op)
		}
		if !metaLocked(m) && h.meta[mi].CompareAndSwap(m, m|metaLockBit) {
			return m
		}
		if spins&63 == 63 {
			runtime.Gosched()
		}
	}
}

// releaseMeta publishes a new version for a previously locked live metadata
// word (indexed by metadata index, not word address).
func (h *Heap) releaseMeta(mi int, version uint64) {
	h.meta[mi].Store(makeMeta(version, true))
}

// releaseMetaUnchanged unlocks a metadata word without changing its version,
// used when a locked line was not actually modified.
func (h *Heap) releaseMetaUnchanged(mi int, prev uint64) {
	h.meta[mi].Store(prev)
}

// LoadNT performs a non-transactional (strongly atomic) load of the word at
// a. It panics if a is invalid or freed, modeling a segmentation fault:
// correct non-transactional code never touches freed memory.
func (h *Heap) LoadNT(a Addr) uint64 {
	h.maybeYieldNT()
	h.checkNTAddr(a, "load")
	mi := lineOf(a)
	for spins := 0; ; spins++ {
		m1 := h.meta[mi].Load()
		if metaLocked(m1) {
			if spins&63 == 63 {
				runtime.Gosched()
			}
			continue
		}
		if !metaAllocated(m1) {
			ntFreedPanic(a, "load")
		}
		v := h.words[a].Load()
		if h.meta[mi].Load() == m1 {
			return v
		}
	}
}

// StoreNT performs a non-transactional (strongly atomic) store of v to the
// word at a. It is equivalent to — but cheaper than — a one-word transaction,
// and conflicts correctly with concurrent transactions.
func (h *Heap) StoreNT(a Addr, v uint64) {
	h.maybeYieldNT()
	h.checkNTAddr(a, "store")
	h.lockMeta(a, "store")
	h.words[a].Store(v)
	wv := h.tick()
	h.releaseMeta(lineOf(a), wv)
}

// CASNT performs a non-transactional compare-and-swap on the word at a,
// returning whether the swap was performed. It models the CAS instruction
// used by the paper's non-HTM baseline algorithms.
func (h *Heap) CASNT(a Addr, old, new uint64) bool {
	h.maybeYieldNT()
	h.checkNTAddr(a, "cas")
	prev := h.lockMeta(a, "cas")
	w := &h.words[a]
	if w.Load() != old {
		h.releaseMetaUnchanged(lineOf(a), prev)
		return false
	}
	w.Store(new)
	wv := h.tick()
	h.releaseMeta(lineOf(a), wv)
	return true
}

// AddNT atomically adds delta to the word at a non-transactionally and
// returns the new value.
func (h *Heap) AddNT(a Addr, delta uint64) uint64 {
	h.maybeYieldNT()
	h.checkNTAddr(a, "add")
	h.lockMeta(a, "add")
	w := &h.words[a]
	v := w.Load() + delta
	w.Store(v)
	wv := h.tick()
	h.releaseMeta(lineOf(a), wv)
	return v
}

// ClockNow returns the version clock: the number of ticks issued so far. It
// is exported for the queue and internal/core tests, which pin clock ticks
// per operation.
func (h *Heap) ClockNow() uint64 { return h.clock.v.Load() }
