package htm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Metadata encoding. Each metadata word governs one heap word (the default)
// or one 2^StripeShift-word stripe, and fuses the versioned ownership record
// (orec) with the allocation state that used to live in a separate generation
// array:
//
//	bit 0     lock bit (held during commit write-back and NT writes)
//	bit 1     allocated bit (set while the word belongs to a live block)
//	bits 2-63 version: (per-shard tick << shardBits) | shard ID
//
// Folding both cells into one atomic word makes every transactional load's
// entire validation predicate — unlocked, allocated, version ≤ rv — a single
// atomic read whose three fields are mutually consistent by construction, and
// makes every allocate/free transition a single CAS per metadata word.
//
// The version field is shard-relative (Config.ClockShards): the heap keeps one
// padded clock word per shard, a writer ticks exactly one shard, and the
// encoded version carries the shard ID in its low bits so a validator can
// compare the tick against the right entry of its per-shard snapshot. With
// ClockShards=1 (the default) shardBits is zero and the encoding degenerates
// to the plain global-clock version of the pre-shard engine. Invariants:
//
//   - Only live stripes are ever locked (all lock paths check the allocated
//     bit in the same word they CAS), so free stripes are always unlocked and
//     the allocator can transition them without a lock handshake.
//   - Every transition writes a fresh version drawn from SOME shard's clock:
//     commit write-back, NT writes, free, AND allocate. Writers that hold the
//     affected metadata locks (commits, NT ops, the fallback) tick after
//     acquiring them; alloc/free own their block exclusively. Versions within
//     one shard are strictly monotonic and a (tick, shard) pair can never
//     recur, which is what keeps recorded metadata words unrepeatable. The
//     version bump on free is the generation flip of the old design; the bump
//     on allocate is what forces any transaction that read the block's
//     previous life to revalidate (and fail) before it can observe the new
//     one. See DESIGN.md "Per-word metadata" and "Sharded clock & striped
//     metadata" for the sandbox and linearization arguments.
const (
	metaLockBit  uint64 = 1 << 0
	metaAllocBit uint64 = 1 << 1
	metaVerShift        = 2

	// metaFBTagBit marks a word locked by the fine-grained TLE fallback
	// (thread.go). While a fallback operation holds a word, the version field
	// carries the owner's thread ID instead of a version — the pre-lock word
	// is preserved in the owner's lock-set and the release writes either that
	// word back (read-locked) or a fresh version (written), so no version
	// information is lost and version monotonicity is preserved. The tag sits
	// in the version field's top bit: each clock shard ticks once per
	// committed write/alloc/free transition and the shard ID occupies at most
	// 8 low bits, so a real encoded version can never reach 2^61. The tag
	// lets a contending fallback distinguish a long-held
	// fallback lock (apply the deadlock-avoidance protocol) from a commit
	// write-back (always short: commits never wait while holding locks, so
	// spinning is safe), and makes the owner readable in a debugger.
	metaFBTagBit uint64 = 1 << 63
)

func metaVersion(m uint64) uint64 { return m >> metaVerShift }
func metaLocked(m uint64) bool    { return m&metaLockBit != 0 }
func metaAllocated(m uint64) bool { return m&metaAllocBit != 0 }

// makeFallbackMeta builds the metadata word for a fallback-locked live word:
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

// clockLine is one version-clock shard, padded to a full cache line so that
// commits homed on different shards never contend on adjacent clock words —
// the whole point of sharding the clock.
type clockLine struct {
	v atomic.Uint64
	_ [7]uint64
}

// Heap is a simulated word-addressable memory with a built-in allocator and a
// transactional engine. All concurrent access — transactional or not — must
// go through its methods; a Heap is safe for use by multiple goroutines.
type Heap struct {
	cfg Config

	words []atomic.Uint64 // word values
	meta  []atomic.Uint64 // per-stripe metadata: lock | allocated | version

	// Sharded version clock (Config.ClockShards). Every writer ticks exactly
	// one shard — its thread's home shard, or an address-hashed shard for the
	// threadless NT operations — and encodes the shard ID into the versions
	// it publishes (shardBits/shardMask below decode that encoding).
	clock []clockLine

	// TLE fallback dispatch (Config.EnableTLE; see mode.go). fallbackSeq is
	// the global fallback lock's epoch: even when free, odd while a global
	// critical section is in flight; hardware attempts snapshot it at begin
	// and revalidate it at extend and commit. It sits beside the clock slice
	// header, which every begin loads anyway, so that snapshot does not pull
	// in a cache line of its own. fbMode is the runtime mode word consulted
	// at fallback entry, seeded by Config.GlobalFallback; fallbackMu is the
	// global fallback lock; fbSpins is the live FallbackSpins knob, read as
	// each fine-grained fallback attempt starts; modeSwitches counts applied
	// mode changes. A heap without TLE never reads any of them on a
	// transactional path.
	fallbackSeq  atomic.Uint64
	fbMode       atomic.Uint32
	fallbackMu   sync.Mutex
	fbSpins      atomic.Int64
	modeSwitches atomic.Uint64

	// Version encoding (tick<<shardBits | shard); both are zero with one clock
	// shard, collapsing the scheme to the single global clock.
	shardBits   uint
	shardMask   uint64
	stripeShift uint // log2 words per metadata stripe (Config.StripeShift)

	alloc   allocator
	stats   stats
	nextTID atomic.Uint64

	// ntAccesses drives cooperative yields for non-transactional accesses
	// when Config.YieldEvery is set, so that HTM-free algorithms pay the
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
	shift := uint(cfg.StripeShift)
	h := &Heap{
		cfg:         cfg,
		words:       make([]atomic.Uint64, cfg.Words),
		meta:        make([]atomic.Uint64, (cfg.Words+(1<<shift)-1)>>shift),
		clock:       make([]clockLine, cfg.ClockShards),
		shardMask:   uint64(cfg.ClockShards - 1),
		stripeShift: shift,
	}
	for n := cfg.ClockShards; n > 1; n >>= 1 {
		h.shardBits++
	}
	h.ntYieldThresh = yieldThreshold(cfg.YieldEvery)
	if cfg.GlobalFallback {
		h.fbMode.Store(uint32(ModeGlobal))
	}
	h.fbSpins.Store(int64(cfg.fallbackSpins()))
	h.alloc.init(h)
	return h
}

// mi maps a word address to the index of its governing metadata word: the
// identity with per-word metadata, the stripe index with Config.StripeShift.
func (h *Heap) mi(a Addr) int { return int(a) >> h.stripeShift }

// tickShard advances shard s of the version clock and returns the new tick
// encoded as a version (tick<<shardBits | s). Callers must already exclude
// every concurrent writer of the metadata words the version will be stored to
// (by holding their locks, or — for alloc/free — by owning the block).
func (h *Heap) tickShard(s int) uint64 {
	return h.clock[s].v.Add(1)<<h.shardBits | uint64(s)
}

// ntShard picks the clock shard ticked by a non-transactional write to a.
// NT operations have no Thread and hence no home shard; any shard is correct
// (the encoded version always names the shard that was ticked), so hash the
// address to spread unrelated NT traffic across shards.
func (h *Heap) ntShard(a Addr) int { return int(uint64(a) & h.shardMask) }

// versionTick and versionShard decode an encoded version.
func (h *Heap) versionTick(v uint64) uint64 { return v >> h.shardBits }
func (h *Heap) versionShard(v uint64) int   { return int(v & h.shardMask) }

// Config returns the effective configuration of the heap.
func (h *Heap) Config() Config { return h.cfg }

// valid reports whether a is a non-nil address inside the arena.
func (h *Heap) valid(a Addr) bool {
	return a != NilAddr && int(a) < len(h.words)
}

// allocated reports whether the word at a is currently allocated.
func (h *Heap) allocated(a Addr) bool {
	return h.valid(a) && metaAllocated(h.meta[h.mi(a)].Load())
}

// yieldThreshold converts Config.YieldEvery into the compare threshold used
// by the per-access yield checks: a uniformly random uint64 falls below it
// with probability 1/y. YieldEvery=1 saturates to always-yield (the naive
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
// Config.YieldEvery. A shared counter (cheap on the hosts where this is on)
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
	mi := h.mi(a)
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
// used when a locked stripe was not actually modified.
func (h *Heap) releaseMetaUnchanged(mi int, prev uint64) {
	h.meta[mi].Store(prev)
}

// LoadNT performs a non-transactional (strongly atomic) load of the word at
// a. It panics if a is invalid or freed, modeling a segmentation fault:
// correct non-transactional code never touches freed memory.
func (h *Heap) LoadNT(a Addr) uint64 {
	h.maybeYieldNT()
	h.checkNTAddr(a, "load")
	mi := h.mi(a)
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

// LoadWordsNT performs non-transactional (strongly atomic) loads of the
// len(dst) consecutive words starting at a into dst. It is DEFINED as
//
//	for i := range dst { dst[i] = h.LoadNT(a + Addr(i)) }
//
// — each word individually atomic, the same panic on an invalid or freed
// address — and is that loop under YieldEvery or when the range leaves the
// arena. Otherwise the yield and bounds dispatch is decided once, and each
// word whose metadata is live, unlocked and stable across the value read is
// copied inline; any other word is handed to LoadNT, which spins or panics
// exactly as it would have.
func (h *Heap) LoadWordsNT(a Addr, dst []uint64) {
	if h.ntYieldThresh != 0 || !h.valid(a) || int(a)+len(dst) > len(h.words) {
		for i := range dst {
			dst[i] = h.LoadNT(a + Addr(i))
		}
		return
	}
	// Locals and a slice cut to the range, for the reason Txn.loadRun gives.
	words, meta, shift := h.words[a:][:len(dst)], h.meta, h.stripeShift&63
	for i := range dst {
		mw := &meta[(int(a)+i)>>shift]
		if m1 := mw.Load(); m1&(metaLockBit|metaAllocBit) == metaAllocBit {
			v := words[i].Load()
			if mw.Load() == m1 {
				dst[i] = v
				continue
			}
		}
		dst[i] = h.LoadNT(a + Addr(i))
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
	wv := h.tickShard(h.ntShard(a))
	h.releaseMeta(h.mi(a), wv)
}

// CASNT performs a non-transactional compare-and-swap on the word at a,
// returning whether the swap was performed. It models the CAS instruction
// used by the paper's non-HTM baseline algorithms.
func (h *Heap) CASNT(a Addr, old, new uint64) bool {
	h.maybeYieldNT()
	h.checkNTAddr(a, "cas")
	prev := h.lockMeta(a, "cas")
	if h.words[a].Load() != old {
		h.releaseMetaUnchanged(h.mi(a), prev)
		return false
	}
	h.words[a].Store(new)
	wv := h.tickShard(h.ntShard(a))
	h.releaseMeta(h.mi(a), wv)
	return true
}

// AddNT atomically adds delta to the word at a non-transactionally and
// returns the new value.
func (h *Heap) AddNT(a Addr, delta uint64) uint64 {
	h.maybeYieldNT()
	h.checkNTAddr(a, "add")
	h.lockMeta(a, "add")
	v := h.words[a].Load() + delta
	h.words[a].Store(v)
	wv := h.tickShard(h.ntShard(a))
	h.releaseMeta(h.mi(a), wv)
	return v
}

// ClockNow returns the total number of version-clock ticks across all shards.
// With ClockShards=1 this is exactly the pre-shard global clock value; with
// more shards it is a census, not a version — versions are shard-relative and
// only per-shard ticks (ClockShardNow) are comparable. It is exported for
// tests and diagnostics.
func (h *Heap) ClockNow() uint64 {
	var sum uint64
	for i := range h.clock {
		sum += h.clock[i].v.Load()
	}
	return sum
}

// ClockShards returns the effective number of version-clock shards.
func (h *Heap) ClockShards() int { return len(h.clock) }

// ClockShardNow returns the current tick of clock shard s.
func (h *Heap) ClockShardNow(s int) uint64 { return h.clock[s].v.Load() }

// StripeWords returns the number of heap words governed by one metadata word
// (1 unless Config.StripeShift is set).
func (h *Heap) StripeWords() int { return 1 << h.stripeShift }
