package htm

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
)

// txnAbort is the internal panic payload used to unwind a failed transaction
// attempt back to the retry loop from inside the transaction body. It is a
// preallocated sentinel — panicking with it never allocates, and it can never
// be mistaken for a user panic; the abort's code and address travel in the
// Txn. Aborts detected at commit time (after the body returned) skip panic
// unwinding entirely and propagate by return value.
type txnAbort struct{}

var abortSentinel = &txnAbort{}

// readEntry records one read: the address and the full metadata word observed
// when the value was read (unlocked, allocated, version ≤ rv at that time).
// Validation is a single load-and-compare against the live metadata: any
// concurrent commit, free, or reallocation of the governing stripe rewrites
// the one word the validator rereads.
type readEntry struct {
	addr Addr
	meta uint64
}

// writeEntry buffers one write: the address, the value, and the metadata
// word observed when the store was buffered (lock bit cleared). Commit
// acquisition CASes the live metadata from exactly this recorded word, so a
// stripe that changed in ANY way since the store — a concurrent commit, an NT
// write, a free, or a free-and-reallocation — fails acquisition and aborts.
// Per-shard version monotonicity makes the recorded word unrepeatable, which
// is what keeps a blind write from ever landing in a reused block's new life.
type writeEntry struct {
	addr Addr
	val  uint64
	meta uint64
}

// lockEntry records one metadata word (a word's, or a whole stripe's with
// Config.StripeShift) held by a fine-grained fallback operation: the METADATA
// INDEX, the metadata word displaced by the lock acquisition (restored
// verbatim if the stripe is released unwritten), and whether the operation
// buffered a store under it (released with a fresh version instead).
type lockEntry struct {
	addr    Addr // metadata index, not a word address
	prev    uint64
	written bool
}

// Txn is a transaction in progress. A Txn is valid only inside the function
// passed to Thread.Atomic or Thread.TryAtomic, and only on that goroutine.
//
// The transaction body may be re-executed after an abort, so it must be
// restartable: accumulate results in locals that are reset at the top of the
// body, and publish them only after Atomic returns.
type Txn struct {
	th *Thread
	h  *Heap
	// rv is the read-validity snapshot: one tick per clock shard, taken at
	// begin and advanced wholesale by extend(). A version with shard s and
	// tick k is readable iff k <= rv[s]. With one shard this is the classic
	// TL2 scalar timestamp; the slice is allocated once per Thread and reused
	// by every attempt, so begin stays allocation-free.
	rv     []uint64
	fbSeq  uint64 // fallback-lock sequence observed at begin
	reads  []readEntry
	writes []writeEntry
	// charged counts the store-buffer entries ChargeStores consumed: stores
	// to caller-private memory that occupy the buffer but publish nothing.
	charged int
	frees   []Addr // to free after commit
	allocs  []Addr // allocated inside the txn; rolled back on abort
	direct  bool   // executing on the TLE fallback path

	// abortCode/abortAddr carry the failure reason of an in-body abort while
	// the abortSentinel panic unwinds to the retry loop.
	abortCode AbortCode
	abortAddr Addr

	// Hot-path caches of immutable heap state, set once when the descriptor
	// is bound to its thread: they save a pointer chase through t.h (and its
	// cfg) on every transactional access.
	words        []atomic.Uint64
	meta         []atomic.Uint64
	clock        []clockLine // the heap's sharded version clock
	shardBits    uint        // version encoding: tick<<shardBits | shard
	shardMask    uint64
	sshift       uint   // metadata stripe shift (Config.StripeShift)
	yieldThresh  uint64 // rand() below this yields; 0 = never (see maybeYield)
	maxReadSet   int
	storeBufSize int
	dedupAfter   int  // read-set length at which dedup engages (see below)
	tle          bool // Config.EnableTLE: monitor the global fallback epoch

	// Fault injection (Config.Faults): faults is the owning thread's injection
	// state (nil without a plan — one pointer check per access), fbDelay the
	// injected yield count between fallback write-back and lock-set release.
	faults  *threadFaults
	fbDelay int

	// Read-set dedup state. Attempts start in BYPASS mode: loads append to
	// the read set without any duplicate tracking — duplicate entries are
	// harmless for correctness (validation and commit re-check the same
	// predicate once per entry, and all duplicates of one address provably
	// hold identical metadata) and the common scan-shaped transaction has
	// none, so it pays nothing per load. When the read set reaches
	// dedupAfter entries (MaxReadSet pressure), engageDedup compacts the
	// duplicates away and switches the attempt to FILTERED mode: rfilter is
	// a 512-bit presence filter over read addresses (two hash bits per
	// address); a load whose bits are clear is definitely new and appends
	// without any lookup. When both bits are set the read is confirmed
	// against rindex, built lazily on the first suspected repeat (rindexed
	// tracks whether it is current for this attempt). This keeps the
	// AbortCapacity guarantee of dedup — a transaction whose DISTINCT read
	// set fits MaxReadSet never aborts for capacity — while removing the
	// per-load filter cost from transactions that never near the bound.
	dedup    bool
	rfilter  [readFilterWords]uint64
	rindexed bool
	rindex   setIndex

	// windex indexes the write set by address once it outgrows setLinearMax,
	// keeping read-own-writes lookups O(1). It is built LAZILY: addWrite only
	// appends, and a lookup past the threshold first indexes the entries added
	// since the previous one. Invariant: windexed <= len(writes), entries
	// [0, windexed) are in windex, and reset() zeroes windexed — so an attempt
	// that never looks up after its 9th store (any bulk writer) never hashes
	// at all, while a body that interleaves lookups and stores inserts each
	// entry exactly once, as the eager index did.
	windex   setIndex
	windexed int

	// Fine-grained fallback state (see thread.go runFallback). locks is the
	// lock-set: every word this fallback operation holds, with its displaced
	// metadata. lindex indexes it past setLinearMax, exactly as windex does
	// the write set. fbMax is the highest address currently held — the
	// ordered-acquisition watermark the deadlock-avoidance protocol compares
	// against. fbOwner is the thread ID masked to FallbackOwnerBits, recorded
	// in each held word's metadata. fbSpins is the out-of-order try-lock bound,
	// read from the heap's live knob as each fine-grained attempt starts.
	// directGlobal is per-run state: this fallback run executes under the
	// global lock (set by runGlobalFallback), so loads are NT reads and the
	// buffered stores are written back with NT stores — no word locks held.
	locks        []lockEntry
	lindex       setIndex
	fbMax        Addr
	fbOwner      uint64
	fbSpins      int
	directGlobal bool
}

// readFilterWords sizes rfilter; 8 words = 512 bits keeps the false-positive
// rate low for read sets up to a few hundred words.
const readFilterWords = 8

// readFilterBits maps an address to its filter word and two-bit mask (two
// hash bits within one filter word: one load tests both, one store sets
// both). Shared by Load's filtered path and engageDedup's rebuild.
func readFilterBits(a Addr) (fw uint32, mask uint64) {
	hb := idxHash(a)
	return (hb >> 12) & (readFilterWords - 1), uint64(1)<<(hb&63) | uint64(1)<<((hb>>6)&63)
}

// bypassReadCap bounds how long an attempt may stay in read-set bypass mode,
// so pathological repeat-heavy bodies cannot grow the duplicated read set
// without limit (Config.dedupBypassThreshold clamps it to MaxReadSet/2).
const bypassReadCap = 4096

// mi maps a word address to the index of its governing metadata word; the
// identity unless Config.StripeShift groups words into stripes (see Heap.mi).
func (t *Txn) mi(a Addr) int { return int(a) >> t.sshift }

// findWrite returns the write-set slot holding a, or -1.
func (t *Txn) findWrite(a Addr) int {
	w := t.writes
	if len(w) <= setLinearMax {
		for i := range w {
			if w[i].addr == a {
				return i
			}
		}
		return -1
	}
	if t.windexed != len(w) {
		t.indexWrites()
	}
	return t.windex.lookup(a)
}

// indexWrites catches windex up with the entries appended since the last
// lookup; the first catch-up of an attempt starts from an emptied index.
func (t *Txn) indexWrites() {
	if t.windexed == 0 {
		t.windex.reset()
	}
	for i := t.windexed; i < len(t.writes); i++ {
		t.windex.insert(t.writes[i].addr, i)
	}
	t.windexed = len(t.writes)
}

// addWrite appends a new write entry. It never touches windex: findWrite
// indexes lazily (see the windex field).
func (t *Txn) addWrite(a Addr, v, meta uint64) {
	t.writes = append(t.writes, writeEntry{addr: a, val: v, meta: meta})
}

// stripeWritten reports whether any write entry maps to stripe si. Used only
// on the striped commit path (the per-word path uses findWrite); the write
// set is bounded by the store buffer, so the scan is small.
func (t *Txn) stripeWritten(si int) bool {
	for i := range t.writes {
		if t.mi(t.writes[i].addr) == si {
			return true
		}
	}
	return false
}

// findLock returns the lock-set slot holding a, or -1. Same shape as
// findWrite: linear scan up to setLinearMax, indexed lookup above.
func (t *Txn) findLock(a Addr) int {
	l := t.locks
	if len(l) <= setLinearMax {
		for i := range l {
			if l[i].addr == a {
				return i
			}
		}
		return -1
	}
	return t.lindex.lookup(a)
}

// addLock appends a newly acquired word to the lock-set, indexing it past the
// linear threshold, and returns its slot.
func (t *Txn) addLock(a Addr, prev uint64) int {
	t.locks = append(t.locks, lockEntry{addr: a, prev: prev})
	n := len(t.locks)
	if n > setLinearMax {
		if n == setLinearMax+1 {
			t.lindex.reset()
			for i := range t.locks {
				t.lindex.insert(t.locks[i].addr, i)
			}
		} else {
			t.lindex.insert(a, n-1)
		}
	}
	if a > t.fbMax {
		t.fbMax = a
	}
	return n - 1
}

// defaultFallbackSpins is the default bound on how long a fallback operation
// try-locks a word BELOW its acquisition watermark before releasing everything
// and retrying (Config.FallbackSpins overrides it). Waiting on a word above
// every held address follows the global address order and cannot deadlock, so
// in-order waits are unbounded; out-of-order waits are where cycles form, so
// they are bounded.
const defaultFallbackSpins = 128

// fbAcquire takes the fine-grained fallback lock on the metadata word
// governing a and returns its lock-set slot (immediately, if already held).
// With Config.StripeShift the lock-set is keyed by stripe index, so two words
// in one stripe cost one acquisition — exactly as a hardware commit CASes one
// stripe once. Deadlock avoidance is ordered try-lock with bounded backoff:
// acquiring above the watermark may wait indefinitely (metadata-index order is
// a global total order, so such waits cannot cycle; hardware commits and NT
// operations never wait while holding locks and are waited out
// unconditionally), while acquiring below it try-locks Config.FallbackSpins
// times and then aborts the attempt — the runFallback loop releases the entire
// lock-set, backs off with jitter, and re-runs the body. The owner ID recorded
// in the held word lets a contending fallback see who holds it in a debugger
// and turns a same-thread re-lock — impossible unless the lock-set invariant
// broke — into a loud panic instead of a silent self-deadlock.
func (t *Txn) fbAcquire(a Addr, op string) int {
	s := Addr(t.mi(a))
	if i := t.findLock(s); i >= 0 {
		return i
	}
	locked := makeFallbackMeta(t.fbOwner)
	waited := false
	for spins := 0; ; spins++ {
		m := t.meta[s].Load()
		switch {
		case !metaLocked(m):
			if !metaAllocated(m) {
				t.accessFault(a, op)
			}
			if t.meta[s].CompareAndSwap(m, locked) {
				bump(&t.th.cell.fallbackLocks)
				return t.addLock(s, m)
			}
		case metaFallbackLocked(m):
			if metaFallbackOwner(m) == t.fbOwner {
				panic(fmt.Sprintf("htm: fallback self-deadlock: word %#x is locked by this thread but missing from its lock-set", uint32(a)))
			}
			if !waited {
				// Count the collision once per acquisition, in-order or not:
				// this is the Tuner's shared-footprint signal (FallbackWaits).
				waited = true
				bump(&t.th.cell.fallbackWaits)
			}
			// Held by another fallback operation, potentially for long.
			if len(t.locks) > 0 && s < t.fbMax && spins >= t.fbSpins {
				t.abort(AbortConflict, a) // release-and-retry (runFallback)
			}
			if t.h.fallbackSeq.Load()&1 != 0 || FallbackMode(t.h.fbMode.Load()) == ModeGlobal {
				// A global critical section is pending, or the mode switched
				// mid-storm. In-order waits are normally unbounded (they
				// follow the address order, so they cannot deadlock), but an
				// unbounded wait here would hold inFine hostage to the very
				// storm the switch is meant to break — the global acquirer's
				// quiesce cannot finish until this thread drains. Abandoning
				// the attempt is always safe; the retry loop re-enters the
				// barrier and redirects to the global path.
				t.abort(AbortConflict, a)
			}
			runtime.Gosched()
		default:
			// Commit write-back or NT operation: short by construction
			// (neither ever waits while holding word locks), so spin it out.
			if spins&63 == 63 {
				runtime.Gosched()
			}
		}
	}
}

// fbLoad is Txn.Load on the fine-grained fallback path: lock the governing
// stripe, then read the word directly — the lock excludes every writer
// (commits and NT writes take the same metadata lock), so no read-set entry
// or validation is needed.
func (t *Txn) fbLoad(a Addr) uint64 {
	t.maybeYield()
	if a == NilAddr || int(a) >= len(t.words) {
		t.accessFault(a, "load")
	}
	if i := t.findWrite(a); i >= 0 {
		return t.writes[i].val
	}
	t.fbAcquire(a, "load")
	return t.words[a].Load()
}

// fbStore is Txn.Store on the fine-grained fallback path: lock the word and
// buffer the write. Buffering (rather than writing in place) is what makes
// the deadlock-avoidance release-and-retry safe: an attempt that drops its
// lock-set has published nothing. The store buffer bound does not apply —
// the fallback exists precisely to complete bodies that overflow it.
func (t *Txn) fbStore(a Addr, v uint64) {
	t.maybeYield()
	if a == NilAddr || int(a) >= len(t.words) {
		t.accessFault(a, "store")
	}
	if i := t.findWrite(a); i >= 0 {
		t.writes[i].val = v
		return
	}
	li := t.fbAcquire(a, "store")
	t.locks[li].written = true
	t.addWrite(a, v, 0) // metadata slot unused: release stores, not CASes
}

// directLoad and directStore are Txn.Load and Txn.Store on the TLE fallback
// paths, kept out of line so the hardware path's functions stay small. Under
// the global lock nothing else commits: a load reads its own buffered store or
// the word itself, a store is buffered until commit writes it back.
func (t *Txn) directLoad(a Addr) uint64 {
	if !t.directGlobal {
		return t.fbLoad(a)
	}
	t.checkAccess(a, "load")
	if i := t.findWrite(a); i >= 0 {
		return t.writes[i].val
	}
	return t.h.LoadNT(a)
}

func (t *Txn) directStore(a Addr, v uint64) {
	if !t.directGlobal {
		t.fbStore(a, v)
		return
	}
	t.checkAccess(a, "store")
	if i := t.findWrite(a); i >= 0 {
		t.writes[i].val = v
		return
	}
	t.addWrite(a, v, 0) // metadata slot unused: write-back is StoreNT
}

// fbRelease releases the whole lock-set: written stripes take a fresh live
// metadata word at version wv (the caller has already stored their values),
// read-locked stripes get their displaced metadata back verbatim (no
// observable transition). Pass wv=0 on abort/retry paths — buffered writes
// were never applied, so every stripe restores to its pre-lock state.
func (t *Txn) fbRelease(wv uint64) {
	for i := range t.locks {
		l := &t.locks[i]
		if l.written && wv != 0 {
			t.meta[l.addr].Store(makeMeta(wv, true))
		} else {
			t.meta[l.addr].Store(l.prev)
		}
	}
	t.locks = t.locks[:0]
	t.fbMax = 0
}

// InFallback reports whether this attempt is executing on the TLE fallback
// path (fine-grained lock-set or global lock) rather than as a hardware
// transaction attempt. Bodies can use it to adapt — e.g. tests that must
// synchronize only once the fallback engaged.
func (t *Txn) InFallback() bool { return t.direct }

// confirmRead reports whether a is in the read set, building the exact index
// on the first suspected repeat of this attempt.
func (t *Txn) confirmRead(a Addr) bool {
	if !t.rindexed {
		t.rindex.reset()
		for i := range t.reads {
			t.rindex.insert(t.reads[i].addr, i)
		}
		t.rindexed = true
	}
	return t.rindex.lookup(a) >= 0
}

// engageDedup switches the attempt from bypass to filtered mode: the read set
// accumulated so far is compacted in place — duplicates of one address are
// guaranteed to hold identical metadata (a load that would record a different
// metadata word first forces an extension that revalidates, and fails on, the
// earlier entry) so dropping all but the first is exact — and the presence
// filter and index are rebuilt over the survivors. Idempotent.
func (t *Txn) engageDedup() {
	if t.dedup || t.direct {
		return
	}
	t.dedup = true
	bump(&t.th.cell.dedupEngages)
	t.rfilter = [readFilterWords]uint64{}
	t.rindex.reset()
	kept := t.reads[:0]
	for i := range t.reads {
		r := t.reads[i]
		if t.rindex.lookup(r.addr) >= 0 {
			continue
		}
		t.rindex.insert(r.addr, len(kept))
		kept = append(kept, r)
		fw, m := readFilterBits(r.addr)
		t.rfilter[fw] |= m
	}
	t.reads = kept
	t.rindexed = true
}

func (t *Txn) abort(code AbortCode, a Addr) {
	t.abortCode = code
	t.abortAddr = a
	panic(abortSentinel)
}

// Abort explicitly aborts the current transaction attempt. Thread.Atomic
// retries it; Thread.TryAtomic reports it as an *AbortError with
// AbortExplicit.
func (t *Txn) Abort() {
	t.abort(AbortExplicit, NilAddr)
}

// checkAccess validates that a names an allocated word, aborting with
// AbortIllegal under sandboxing or panicking (simulated segmentation fault)
// otherwise. The direct (TLE fallback) paths call it; Load and Store inline
// the identical guard by hand because the combined check+call exceeds the
// compiler's inlining budget — keep the three copies in sync.
func (t *Txn) checkAccess(a Addr, op string) {
	if a != NilAddr && int(a) < len(t.words) && metaAllocated(t.meta[t.mi(a)].Load()) {
		return
	}
	t.accessFault(a, op)
}

func (t *Txn) accessFault(a Addr, op string) {
	if t.h.cfg.sandboxed && !t.direct {
		t.abort(AbortIllegal, a)
	}
	panic(fmt.Sprintf("htm: transactional %s of invalid or freed address %#x without sandboxing (simulated segmentation fault)", op, uint32(a)))
}

// validate checks that every read performed so far still holds the metadata
// word it held when read — one atomic load and compare per entry; a lock, a
// version bump, a free, or a reallocation all fail it — and returns the first
// read that does not. Stripes locked by this transaction's own commit are
// checked against their pre-lock metadata by publish.
func (t *Txn) validate() (Addr, bool) {
	for i := range t.reads {
		r := &t.reads[i]
		if t.meta[t.mi(r.addr)].Load() != r.meta {
			return r.addr, false
		}
	}
	return NilAddr, true
}

// extend attempts to move the read-validity snapshot forward after
// encountering a version newer than its shard's rv entry, aborting on any
// stale read. This gives the engine HTM-like conflict behaviour: transactions
// abort only when a word they actually read or wrote is modified
// concurrently. The shard clocks are re-read BEFORE revalidating, exactly as
// the scalar scheme read the clock before validate(): any write that the new
// snapshot admits but that landed before the scan is caught by the equality
// revalidation, so a torn snapshot can never be certified.
func (t *Txn) extend() {
	// A timestamp extension across a global-lock fallback acquisition could
	// mix pre- and post-critical-section state; abort instead, exactly as a
	// hardware transaction holding the lock word in its read set would. The
	// fine-grained fallback needs no check here — a fallback that touched any
	// word this transaction read rewrote that word's metadata, so validate()
	// below catches it.
	if t.tle && t.h.fallbackSeq.Load() != t.fbSeq {
		t.abort(AbortFallback, NilAddr)
	}
	for i := range t.rv {
		t.rv[i] = t.clock[i].v.Load()
	}
	if _, ok := t.validate(); !ok {
		if t.sshift != 0 {
			bump(&t.th.cell.stripeConflicts)
		}
		t.abort(AbortConflict, NilAddr)
	}
}

// maybeYield models transaction duration on under-provisioned hosts; see
// Config.YieldEvery. The yield decision is randomized (expected one yield per
// YieldEvery accesses): a deterministic cadence would park every attempt of a
// given transaction at the same point — e.g. right before commit — making
// hot-word conflicts certain instead of probable and livelocking retries.
// yieldThresh precomputes 2^64/YieldEvery so the per-access check is a
// compare, not a division.
func (t *Txn) maybeYield() {
	if t.yieldThresh != 0 {
		t.yieldSlow()
	}
}

func (t *Txn) yieldSlow() {
	if t.th.rand() < t.yieldThresh {
		runtime.Gosched()
	}
}

// Load transactionally reads the word at a.
func (t *Txn) Load(a Addr) uint64 {
	if t.direct {
		return t.directLoad(a)
	}
	t.maybeYield()
	// Access-site injection (hardware attempts only — the direct paths
	// returned above): the attempt dies mid-body, like a TLB miss or cache
	// displacement landing on a transactional access.
	if t.faults != nil && t.faults.fireAccess() {
		t.abort(AbortSpurious, NilAddr)
	}
	if a == NilAddr || int(a) >= len(t.words) {
		t.accessFault(a, "load")
	}
	mi := t.mi(a)
	if i := t.findWrite(a); i >= 0 {
		// Read-own-write still faults at the access if the word was freed
		// since the store — same semantics as Store and the loop below.
		if !metaAllocated(t.meta[mi].Load()) {
			t.accessFault(a, "load")
		}
		return t.writes[i].val
	}
	for spins := 0; ; spins++ {
		// The entire validation predicate — unlocked, allocated, version — is
		// one atomic load: its fields are mutually consistent by construction.
		// free() rewrites this same word, so m1 carrying the allocated bit
		// plus an unchanged metadata word below proves the value is a read of
		// then-live memory.
		m1 := t.meta[mi].Load()
		if m1&(metaLockBit|metaAllocBit) != metaAllocBit {
			if metaLocked(m1) {
				if spins < 64 {
					continue // writer is in its (short) commit write-back
				}
				t.abort(AbortConflict, a)
			}
			t.accessFault(a, "load")
		}
		v := t.words[a].Load()
		if t.meta[mi].Load() != m1 {
			continue
		}
		// The version is shard-relative: compare its tick against the rv
		// entry of the shard that issued it (one decode, one indexed load;
		// with one shard this is exactly the scalar version > rv test).
		if ver := metaVersion(m1); ver>>t.shardBits > t.rv[ver&t.shardMask] {
			t.extend()
			// The word may have changed again between the value read and the
			// extension; re-read under the new snapshot.
			if t.meta[mi].Load() != m1 {
				continue
			}
		}
		if !t.dedup {
			// Bypass mode: append without duplicate tracking (see the dedup
			// field) until MaxReadSet pressure forces compaction.
			if len(t.reads) < t.dedupAfter {
				t.reads = append(t.reads, readEntry{addr: a, meta: m1})
				return v
			}
			t.engageDedup()
		}
		// Repeated reads do not grow the read set: the entry recorded by the
		// first read still guards this word (any later write to it carries a
		// version above rv and the extension above would have aborted), so a
		// duplicate would only inflate validate() and burn MaxReadSet
		// capacity the distinct working set never used.
		fw, m := readFilterBits(a)
		if t.rfilter[fw]&m == m && t.confirmRead(a) {
			return v
		}
		if t.maxReadSet >= 0 && len(t.reads) >= t.maxReadSet {
			t.abort(AbortCapacity, a)
		}
		t.reads = append(t.reads, readEntry{addr: a, meta: m1})
		t.rfilter[fw] |= m
		if t.rindexed {
			t.rindex.insert(a, len(t.reads)-1)
		}
		return v
	}
}

// LoadWords transactionally reads the len(dst) consecutive words starting at a
// into dst. It is DEFINED as
//
//	for i := range dst { dst[i] = t.Load(a + Addr(i)) }
//
// — same read-set entries in the same order, same sandbox predicate per word,
// same abort codes and addresses — and is that loop whenever anything but the
// plain hardware-path case is in play: the fallback paths, fault injection
// (every access must draw from the plan), YieldEvery, a non-empty write set
// (read-own-writes), a range that leaves the arena, and every word from the
// point where the read set reaches dedupAfter. Otherwise the per-access
// dispatch is decided once for the whole range, and each word whose metadata
// is live, unlocked, stable across the value read and no newer than rv takes
// the bypass-mode append inline; any other word goes through Load, which
// spins, extends or aborts exactly as it would have.
func (t *Txn) LoadWords(a Addr, dst []uint64) {
	if len(dst) == 1 { // nothing to amortize the range set-up over
		dst[0] = t.Load(a)
		return
	}
	fast := t.bypassPrefix(int(a), int(a)+len(dst)-1, len(dst))
	if fast > 0 {
		// Reserve the prefix's read entries once; loadRun stores them by index
		// and t.reads is re-sliced over them at the end. Load must see the set
		// exactly as the loop it stands in for would have left it (extend
		// validates it), so a word that takes Load first publishes the entries
		// staged so far — Load then appends its own into the next reserved slot,
		// in place.
		base := len(t.reads)
		t.reads = slices.Grow(t.reads, fast)
		ents := t.reads[base : base+fast]
		for i := 0; i < fast; i++ {
			i += t.loadRun(a+Addr(i), dst[i:fast], ents[i:])
			if i < fast {
				t.reads = t.reads[:base+i]
				dst[i] = t.Load(a + Addr(i))
			}
		}
		t.reads = t.reads[:base+fast]
	}
	for i := fast; i < len(dst); i++ {
		dst[i] = t.Load(a + Addr(i))
	}
}

// loadRun is LoadWords' inner loop: it reads words from a on into dst, staging
// one read entry each in ents (len(ents) == len(dst), the range is inside the
// arena), and returns how many it read before the first word that fails the
// bypass predicate — locked, freed, changed under the value read, or newer
// than rv — which it leaves to Load. The predicate's metadata half is decided
// once per run of words under one metadata value (a stripe's word; a block's
// words since its allocation or last commit, which all carry the same one),
// since words with identical metadata pass or fail together; what is left per
// word is metadata, value, metadata again. The loops are leaves over slices
// cut to the range: the atomic loads are compiler barriers, so a t.field or a
// bounds check inside them is paid again after every one.
func (t *Txn) loadRun(a Addr, dst []uint64, ents []readEntry) int {
	words, dst := t.words[a:][:len(ents)], dst[:len(ents)]
	readable := func(m uint64) bool {
		ver := metaVersion(m)
		return m&(metaLockBit|metaAllocBit) == metaAllocBit && ver>>(t.shardBits&63) <= t.rv[ver&t.shardMask]
	}
	if sshift := t.sshift & 63; sshift != 0 {
		for i := 0; i < len(ents); {
			si := (int(a) + i) >> sshift
			mw := &t.meta[si]
			m1 := mw.Load()
			if !readable(m1) {
				return i
			}
			for end := min(len(ents), (si+1)<<sshift-int(a)); i < end; i++ {
				v := words[i].Load()
				if mw.Load() != m1 {
					return i
				}
				ents[i] = readEntry{addr: a + Addr(i), meta: m1}
				dst[i] = v
			}
		}
		return len(ents)
	}
	meta := t.meta[a:][:len(ents)]
	for i := 0; i < len(ents); {
		m1 := meta[i].Load()
		if !readable(m1) {
			return i
		}
		for ; i < len(ents); i++ {
			mw := &meta[i]
			if mw.Load() != m1 {
				break
			}
			v := words[i].Load()
			if mw.Load() != m1 {
				return i
			}
			ents[i] = readEntry{addr: a + Addr(i), meta: m1}
			dst[i] = v
		}
	}
	return len(ents)
}

// bypassPrefix is the fast-path gate of both bulk reads: how many leading
// words of a read of n words, the lowest at lo and the highest at hi, may take
// the bypass-mode append inline. It is 0 unless the plain hardware-path case
// is in play — no fallback path, no YieldEvery, no fault plan, an empty write
// set, a bypass-mode read set — and every word is inside the arena. Then every
// word appends exactly one read entry while the set is below dedupAfter
// (extend never grows it), so the prefix is the room left below dedupAfter.
func (t *Txn) bypassPrefix(lo, hi, n int) int {
	if t.direct || t.yieldThresh != 0 || t.faults != nil || len(t.writes) != 0 || t.dedup ||
		lo <= int(NilAddr) || hi >= len(t.words) {
		return 0
	}
	return min(n, max(t.dedupAfter-len(t.reads), 0))
}

// LoadStrided transactionally reads len(dst) words spaced stride words apart,
// the first at a, into dst. It is DEFINED as
//
//	for i := range dst { dst[i] = t.Load(a + Addr(i*stride)) }
//
// with everything LoadWords promises of its loop; stride may be negative, for
// a walk down an array. Stride 1 is LoadWords. Otherwise it takes the fast
// path under LoadWords' conditions (bypassPrefix), and each word of the
// prefix costs the whole bypass predicate — metadata, value, metadata again —
// plus one read entry staged in place, exactly as in LoadWords (stridedRun).
func (t *Txn) LoadStrided(a Addr, stride int, dst []uint64) {
	if stride == 1 {
		t.LoadWords(a, dst)
		return
	}
	lo, hi := int(a), int(a)+(len(dst)-1)*stride
	if stride < 0 {
		lo, hi = hi, lo
	}
	fast := t.bypassPrefix(lo, hi, len(dst))
	if fast > 0 {
		base := len(t.reads)
		t.reads = slices.Grow(t.reads, fast)
		ents := t.reads[base : base+fast]
		for i := 0; i < fast; i++ {
			i += t.stridedRun(a+Addr(i*stride), stride, dst[i:fast], ents[i:])
			if i < fast {
				t.reads = t.reads[:base+i]
				dst[i] = t.Load(a + Addr(i*stride))
			}
		}
		t.reads = t.reads[:base+fast]
	}
	for i := fast; i < len(dst); i++ {
		dst[i] = t.Load(a + Addr(i*stride))
	}
}

// stridedRun is LoadStrided's inner loop: it reads the words stride apart
// from a into dst, staging one read entry each in ents (len(ents) ==
// len(dst), every word inside the arena), and returns how many it read before
// the first word that fails the bypass predicate, which it leaves to Load.
// Unlike loadRun it decides the whole predicate at every word: the words of a
// strided walk — one per slot of an array — each carry the metadata of their
// own last commit. Like loadRun it keeps the heap and the snapshot in locals,
// since the atomic loads are compiler barriers.
func (t *Txn) stridedRun(a Addr, stride int, dst []uint64, ents []readEntry) int {
	words, meta, rv := t.words, t.meta, t.rv
	sshift, shardBits, shardMask := t.sshift&63, t.shardBits&63, t.shardMask
	dst = dst[:len(ents)]
	w := int(a)
	for i := range ents {
		mw := &meta[w>>sshift]
		m1 := mw.Load()
		ver := metaVersion(m1)
		if m1&(metaLockBit|metaAllocBit) != metaAllocBit || ver>>shardBits > rv[ver&shardMask] {
			return i
		}
		v := words[w].Load()
		if mw.Load() != m1 {
			return i
		}
		ents[i] = readEntry{addr: Addr(w), meta: m1}
		dst[i] = v
		w += stride
	}
	return len(ents)
}

// Store transactionally writes v to the word at a. Writes are buffered and
// become visible atomically at commit. Writing more distinct words than the
// configured store buffer size aborts with AbortOverflow, reproducing Rock's
// bounded transactions.
func (t *Txn) Store(a Addr, v uint64) {
	if t.direct {
		t.directStore(a, v)
		return
	}
	t.maybeYield()
	// Access-site injection; see Load.
	if t.faults != nil && t.faults.fireAccess() {
		t.abort(AbortSpurious, NilAddr)
	}
	if a == NilAddr || int(a) >= len(t.words) {
		t.accessFault(a, "store")
	}
	m := t.meta[t.mi(a)].Load()
	if !metaAllocated(m) {
		t.accessFault(a, "store")
	}
	if i := t.findWrite(a); i >= 0 {
		t.writes[i].val = v
		return
	}
	if t.storeBufSize >= 0 && len(t.writes)+t.charged >= t.storeBufSize {
		t.abort(AbortOverflow, a)
	}
	// Record the metadata with the lock bit cleared: a word locked right now
	// is mid-commit elsewhere, and its release will bump the version, so our
	// commit's CAS from this recorded word correctly fails as a conflict.
	t.addWrite(a, v, m&^metaLockBit)
}

// StoreWords transactionally writes src to the len(src) consecutive words
// starting at a. It is DEFINED as
//
//	for i := range src { t.Store(a+Addr(i), src[i]) }
//
// — same write-set entries in the same order, same recorded metadata, same
// abort codes and addresses — and is that loop whenever anything but the plain
// hardware-path case is in play: the fallback paths, fault injection (every
// access must draw from the plan), YieldEvery, a non-empty write set (a word
// of the range may already be buffered), a range that leaves the arena, and a
// range longer than what ChargeStores left of the store buffer (the loop
// aborts at the word that overflows it). Otherwise no word of the range can
// hit the write set or overflow it, so the per-access dispatch is decided
// once, the entries are reserved once, and each word costs one metadata load
// and one append.
func (t *Txn) StoreWords(a Addr, src []uint64) {
	if t.direct || t.yieldThresh != 0 || t.faults != nil || len(t.writes) != 0 ||
		a == NilAddr || int(a)+len(src) > len(t.words) ||
		(t.storeBufSize >= 0 && len(src)+t.charged > t.storeBufSize) {
		for i := range src {
			t.Store(a+Addr(i), src[i])
		}
		return
	}
	t.writes = slices.Grow(t.writes, len(src))
	meta := t.meta
	for i, v := range src {
		w := a + Addr(i)
		m := meta[int(w)>>t.sshift].Load()
		if !metaAllocated(m) {
			t.accessFault(w, "store")
		}
		// Lock bit cleared, exactly as Store records it.
		t.writes = append(t.writes, writeEntry{addr: w, val: v, meta: m &^ metaLockBit})
	}
}

// ChargeStores consumes n store-buffer entries for stores to memory only the
// caller can see — a Go slice, say — without buffering a shared write. It
// stands for n Stores to fresh allocated words that no other thread reads: it
// aborts AbortOverflow (at NilAddr: the words have no heap address) exactly
// where that loop would, Store and StoreWords count the charged entries
// against the same bound, and under YieldEvery or a fault plan each entry
// draws the yield and fault decision its Store would have. A transaction
// whose only stores were charged commits as such a write commit would, minus
// its lock, tick and write-back (see commitCharged). On the fallback paths,
// which have no store buffer, it does nothing.
func (t *Txn) ChargeStores(n int) {
	if t.direct {
		return
	}
	if t.yieldThresh == 0 && t.faults == nil {
		if t.storeBufSize >= 0 && len(t.writes)+t.charged+n > t.storeBufSize {
			t.abort(AbortOverflow, NilAddr)
		}
		t.charged += n
		return
	}
	for ; n > 0; n-- {
		t.maybeYield()
		if t.faults != nil && t.faults.fireAccess() {
			t.abort(AbortSpurious, NilAddr)
		}
		if t.storeBufSize >= 0 && len(t.writes)+t.charged >= t.storeBufSize {
			t.abort(AbortOverflow, NilAddr)
		}
		t.charged++
	}
}

// Add transactionally adds delta to the word at a and returns the new value.
func (t *Txn) Add(a Addr, delta uint64) uint64 {
	v := t.Load(a) + delta
	t.Store(a, v)
	return v
}

// FreeOnCommit schedules the block whose payload starts at a to be freed
// after — and only if — this transaction commits. This is the paper's idiom
// of freeing memory immediately after the transaction that unlinks it (e.g.
// the HTM queue's dequeue, or line 130 of the ArrayDynAppendDereg
// pseudocode).
func (t *Txn) FreeOnCommit(a Addr) {
	t.frees = append(t.frees, a)
}

// Alloc allocates a zeroed block of size words inside the transaction,
// rolled back if the transaction aborts. It panics unless the heap was
// configured with AllowAllocInTxn: Rock could not execute the CAS-based
// malloc inside transactions (paper §6), so the paper's algorithms
// pre-allocate outside transactions.
func (t *Txn) Alloc(size int) Addr {
	if !t.h.cfg.AllowAllocInTxn {
		panic("htm: Txn.Alloc requires Config.AllowAllocInTxn (Rock cannot allocate inside transactions; pre-allocate outside, as the paper's algorithms do)")
	}
	a := t.th.Alloc(size)
	// Tracked even on the fallback path: a fine-grained fallback attempt can
	// release-and-retry (deadlock avoidance), which must roll its allocations
	// back exactly as an aborted hardware attempt does. Committed attempts
	// clear the list without freeing.
	t.allocs = append(t.allocs, a)
	return a
}

// rollbackAllocs frees blocks allocated inside an aborted attempt.
func (t *Txn) rollbackAllocs() {
	for _, a := range t.allocs {
		t.th.Free(a)
	}
	t.allocs = t.allocs[:0]
}

// commit attempts to atomically publish the transaction's writes. It returns
// the zero AbortCode on success and the failure reason otherwise; running
// after the transaction body has returned, it can report aborts by value and
// skip panic unwinding entirely.
func (t *Txn) commit() (AbortCode, Addr) {
	h := t.h
	if t.direct {
		switch {
		case t.directGlobal:
			// Global fallback: nothing else can commit, so the buffered stores
			// go back one NT store at a time.
			for i := range t.writes {
				h.StoreNT(t.writes[i].addr, t.writes[i].val)
			}
		case len(t.writes) > 0:
			// Fine-grained fallback: write the buffered stores back under the
			// held locks, then release every word — written words with one
			// fresh version tick shared by the whole operation (exactly as a
			// hardware commit versions its write set), read-locked words by
			// restoring their displaced metadata. Frees run only after the
			// release: a block being freed may contain held words, and free()
			// waits out word locks.
			for i := range t.writes {
				h.words[t.writes[i].addr].Store(t.writes[i].val)
			}
			// Injected adversity (Config.Faults.ReleaseDelay): hold the
			// lock-set a while longer after write-back, stretching the
			// window in which contenders see the words fallback-locked.
			for i := 0; i < t.fbDelay; i++ {
				runtime.Gosched()
			}
			// Tick the home shard with the whole lock-set held — same
			// lock-then-tick order as a hardware commit. No other counter
			// implies this tick (FallbackRuns also counts read-only and
			// global runs), so it is counted here.
			t.fbRelease(t.th.tickClock())
			bump(&t.th.cell.extraTicks)
		default:
			t.fbRelease(0)
		}
		t.runFrees()
		t.allocs = t.allocs[:0] // committed: the body keeps its allocations
		return 0, NilAddr
	}
	if len(t.writes) == 0 {
		// Read-only transactions hold a consistent snapshot as of rv at all
		// times thanks to incremental validation, so they commit for free —
		// as on real HTM, where an uncontended read-only transaction simply
		// commits. One that charged stores still decides its outcome the way a
		// write commit does.
		if t.charged > 0 {
			if code, addr := t.commitCharged(); code != 0 {
				return code, addr
			}
		}
		t.runFrees()
		return 0, NilAddr
	}
	var code AbortCode
	var addr Addr
	if t.tle {
		// Global-fallback fence: a write-back may not overlap a global-lock
		// fallback critical section, and the global path may engage at any
		// moment. inCommit is published BEFORE revalidating the epoch, so this
		// commit either observes the section (and aborts) or is observed by
		// its acquirer (and waited out). The fine-grained fallback needs no
		// fence — it holds the metadata locks of the words it touches, so a
		// conflicting commit simply fails its acquisition CAS, and a disjoint
		// commit proceeds concurrently.
		fence := &t.th.cell.inCommit
		fence.Store(1)
		if h.fallbackSeq.Load() == t.fbSeq {
			code, addr = t.publish()
		} else {
			code = AbortFallback
		}
		fence.Store(0)
	} else {
		code, addr = t.publish()
	}
	switch {
	case code == 0:
		t.runFrees()
	case code == AbortIllegal && !h.cfg.sandboxed:
		panic(fmt.Sprintf("htm: commit to freed word %#x without sandboxing", uint32(addr)))
	}
	return code, addr
}

// commitCharged is the commit of a transaction whose only stores were charged:
// what publish decides for a write set of private words. Their acquisition
// CASes can never fail and nobody reads them, so only the steps that decide
// the outcome are left — the TLE epoch check (AbortFallback), then read-set
// validation against live metadata (AbortConflict at the first changed word)
// — and none of the lock, the clock tick or the write-back. It counts as a
// read-only commit: nothing ticked.
func (t *Txn) commitCharged() (AbortCode, Addr) {
	if t.tle && t.h.fallbackSeq.Load() != t.fbSeq {
		return AbortFallback, NilAddr
	}
	if a, ok := t.validate(); !ok {
		if t.sshift != 0 {
			bump(&t.th.cell.stripeConflicts)
		}
		return AbortConflict, a
	}
	return 0, NilAddr
}

// publish is the hardware write commit proper: lock the write set, tick the
// clock, validate the read set, write back, release. It reports AbortIllegal
// only for a written word freed (and not yet reused) since its store; nothing
// is held when it returns, whatever the outcome.
func (t *Txn) publish() (AbortCode, Addr) {
	h := t.h
	// Acquire ownership of the write set: one CAS per governing metadata word
	// (per word by default, per stripe with Config.StripeShift), from exactly
	// the metadata recorded when the store was buffered to that word locked.
	// The CAS doubles as full validation of the written stripe — a concurrent
	// commit, an NT write, a free, or a free-and-reallocation all rewrote
	// the metadata since then (versions only grow within their shard and the
	// shard rides in the encoding, so a recorded word can never recur), and
	// each fails the acquisition. In particular a blind write can never land
	// in a reused block's new life, and a freed stripe is never locked (which
	// is what lets the allocator transition free stripes with a bare CAS
	// instead of a lock handshake).
	//
	// With striping, several write entries can share a stripe; only the FIRST
	// entry of each stripe CASes it (later entries are skipped by a backscan —
	// the write set is bounded by the store buffer, so the scan is tiny). A
	// later entry whose recorded metadata differs from the first's proves the
	// stripe changed between the two stores: abort, as the per-word engine
	// would have on whichever word changed.
	striped := t.sshift != 0
	acquired := 0
	skip := func(i int, si int) bool { // a non-first entry of an acquired stripe?
		for j := 0; j < i; j++ {
			if t.mi(t.writes[j].addr) == si {
				return true
			}
		}
		return false
	}
	fail := func(code AbortCode, a Addr) (AbortCode, Addr) {
		for i := 0; i < acquired; i++ {
			si := t.mi(t.writes[i].addr)
			if striped && skip(i, si) {
				continue
			}
			h.releaseMetaUnchanged(si, t.writes[i].meta)
		}
		if striped && code == AbortConflict {
			bump(&t.th.cell.stripeConflicts)
		}
		return code, a
	}
	for i := range t.writes {
		w := &t.writes[i]
		si := t.mi(w.addr)
		if striped && skip(i, si) {
			if t.writes[i].meta != h.meta[si].Load()&^metaLockBit {
				// Our own lock bit is set on the stripe; anything else
				// differing from this entry's recorded metadata means the
				// stripe moved between this store and the first one.
				return fail(AbortConflict, w.addr)
			}
			acquired++
			continue
		}
		if !h.meta[si].CompareAndSwap(w.meta, w.meta|metaLockBit) {
			if cur := h.meta[si].Load(); !metaAllocated(cur) && !metaLocked(cur) {
				// The word was freed — and not yet reused — since our store.
				// (A freed-and-reused word aborts as a conflict below, which
				// is equally safe: nothing was locked or written.)
				return fail(AbortIllegal, w.addr)
			}
			return fail(AbortConflict, w.addr)
		}
		acquired++
	}

	// Tick the home shard of the version clock. The order is load-bearing and
	// unchanged from the scalar clock: every write lock is already held, so
	// any transaction whose begin-scan observes this tick and then reads one
	// of our words either sees it locked (waits/aborts) or sees the fresh
	// version — never the old value under a snapshot that admits the new one.
	wv := t.th.tickClock()

	// Validate the read set. Stripes we hold locked for writing are validated
	// against their pre-lock (recorded) metadata.
	for i := range t.reads {
		r := &t.reads[i]
		si := t.mi(r.addr)
		o := h.meta[si].Load()
		if o == r.meta {
			continue
		}
		if metaLocked(o) {
			if striped {
				// Own-lock check at stripe granularity: the read is covered if
				// ANY of our write entries locked this stripe from exactly the
				// metadata the read recorded.
				if o&^metaLockBit == r.meta && t.stripeWritten(si) {
					continue
				}
			} else if j := t.findWrite(r.addr); j >= 0 && t.writes[j].meta == r.meta {
				continue
			}
		}
		// The tick above is spent but no write commit will account for it.
		bump(&t.th.cell.extraTicks)
		return fail(AbortConflict, r.addr)
	}

	for i := range t.writes {
		h.words[t.writes[i].addr].Store(t.writes[i].val)
	}
	// Release each stripe once, from its first entry, as acquisition locked
	// it: a second release is no idempotent store, because another committer
	// may acquire the stripe between the two — and the second would then
	// unlock the stripe under it.
	for i := range t.writes {
		si := t.mi(t.writes[i].addr)
		if striped && skip(i, si) {
			continue
		}
		h.releaseMeta(si, wv)
	}
	return 0, NilAddr
}

func (t *Txn) runFrees() {
	for _, a := range t.frees {
		t.th.Free(a)
	}
}

// reset prepares the Txn for a fresh attempt.
func (t *Txn) reset() {
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	t.charged = 0
	t.frees = t.frees[:0]
	t.allocs = t.allocs[:0]
	t.windexed = 0
	t.locks = t.locks[:0]
	t.fbMax = 0
	t.direct = false
	t.directGlobal = false
	t.fbSeq = 0
	if t.dedup {
		// The filter carries bits only when the previous attempt engaged
		// dedup; bypass attempts never touch it, so read-only transactions
		// skip the 64-byte clear too.
		t.rfilter = [readFilterWords]uint64{}
		t.dedup = false
	}
	t.rindexed = false
}

// ReadSetSize and WriteSetSize report the current footprint of the attempt;
// useful for tests and for algorithms that adapt transaction size.
// ReadSetSize counts distinct words read: it compacts any bypass-mode
// duplicates first (engaging dedup for the rest of the attempt), so repeat
// reads are never counted.
func (t *Txn) ReadSetSize() int {
	t.engageDedup()
	return len(t.reads)
}

// WriteSetSize reports the number of distinct words buffered for writing.
func (t *Txn) WriteSetSize() int { return len(t.writes) }
