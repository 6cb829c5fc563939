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

// readEntry records one run of reads of a line: the first word the run read
// and the full metadata word observed when it was read (unlocked, allocated,
// version ≤ rv at that time). Validation is a single load-and-compare against
// the live metadata: any concurrent commit, free, or reallocation of the line
// rewrites the one word the validator rereads.
type readEntry struct {
	addr Addr
	meta uint64
}

// writeEntry buffers one write: the address and the value. What the commit
// validates it by is its line's entry in Txn.lines.
type writeEntry struct {
	addr Addr
	val  uint64
}

// lineEntry records one line an attempt writes or holds: the first word the
// attempt touched in it (the line is addr>>lineShift), the line's metadata
// word as the attempt found it, and — on the fallback — whether the
// operation buffered a store under it.
//
// On the hardware path the entry is made by the first Store to the line, and
// prev is the metadata that Store observed, lock bit cleared. Commit
// acquisition CASes the line from exactly that word, so a line that changed in
// ANY way since its first store — a concurrent commit, an NT write, a free, or
// a free-and-reallocation — fails acquisition and aborts. Version
// monotonicity makes the recorded word unrepeatable, which is what keeps a
// blind write from ever landing in a reused block's new life.
//
// On the fallback path the entry is the lock-set's: prev is the metadata word
// displaced by the lock acquisition, restored verbatim if the line is released
// unwritten; a written line is released with a fresh version instead.
type lineEntry struct {
	addr    Addr
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
	// rv is the read-validity snapshot, TL2's timestamp: the clock as begin
	// read it, advanced by extend(). A version is readable iff it is <= rv.
	rv     uint64
	fbSeq  uint64 // global fallback-lock sequence observed at begin
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
	chunks       []atomic.Pointer[chunk]
	arenaWords   int // Config.Words: one past the last address
	meta         []atomic.Uint64
	maxReadSet   int
	storeBufSize int
	global       bool // EnableTLE && GlobalFallback: monitor the global fallback epoch

	// env is the owning thread's environment state (Config.Faults: fault
	// injection and yields), nil without an enabled plan — the one pointer
	// every instrumented site tests.
	env *threadEnv

	// rindex indexes the read set by line while a full set is compacted
	// (compactReads).
	rindex setIndex

	// windex indexes the write set by address once it outgrows setLinearMax,
	// keeping read-own-writes lookups O(1).
	windex setIndex

	// lines holds one entry per line written (hardware path) or held
	// (fallback), in first-touch order; lindex indexes it past setLinearMax,
	// as windex does the write set.
	lines  []lineEntry
	lindex setIndex

	// Fallback state (see thread.go runFallback); the lock-set is lines. fbMax
	// is the highest line currently held — the ordered-acquisition watermark
	// the deadlock-avoidance protocol compares against. fbOwner is the thread
	// ID masked to FallbackOwnerBits, recorded in each held line's metadata.
	fbMax   Addr
	fbOwner uint64
}

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
	return t.windex.lookup(a)
}

// addWrite appends a new write entry, indexing it past the linear threshold.
// The index work stays out of line so that Store inlines the append.
func (t *Txn) addWrite(a Addr, v uint64) {
	t.writes = append(t.writes, writeEntry{addr: a, val: v})
	if len(t.writes) > setLinearMax {
		t.indexWrite()
	}
}

// indexWrite brings windex up to date with t.writes after an append past the
// linear threshold, as indexLines does lindex.
func (t *Txn) indexWrite() {
	n := len(t.writes)
	if n > setLinearMax+1 {
		t.windex.insert(t.writes[n-1].addr, n-1)
		return
	}
	t.windex.reset()
	for i := range t.writes {
		t.windex.insert(t.writes[i].addr, i)
	}
}

// findLine returns the slot of line l in t.lines, or -1. Same shape as
// findWrite: linear scan up to setLinearMax, indexed lookup above.
func (t *Txn) findLine(l Addr) int {
	if len(t.lines) > setLinearMax {
		return t.lindex.lookup(l)
	}
	for i := range t.lines {
		if t.lines[i].addr>>lineShift == l {
			return i
		}
	}
	return -1
}

// addLine appends line a>>lineShift, first touched at a with metadata prev,
// indexing it past the linear threshold.
func (t *Txn) addLine(a Addr, prev uint64) {
	t.lines = append(t.lines, lineEntry{addr: a, prev: prev})
	if len(t.lines) > setLinearMax {
		t.indexLines()
	}
}

// indexLines brings lindex up to date with t.lines after an append past the
// linear threshold: the first such append indexes every entry, later ones
// just their own.
func (t *Txn) indexLines() {
	n := len(t.lines)
	if n > setLinearMax+1 {
		t.lindex.insert(t.lines[n-1].addr>>lineShift, n-1)
		return
	}
	t.lindex.reset()
	for i := range t.lines {
		t.lindex.insert(t.lines[i].addr>>lineShift, i)
	}
}

// fbAcquire takes the fallback lock on a's line and returns its lock-set slot
// (immediately, if already held): two words in one line cost one
// acquisition, exactly as a hardware commit CASes a line once. Deadlock
// avoidance is ordered acquisition with release-and-retry: a line above the
// watermark (every held line) may be waited for indefinitely, because line
// order is a global total order and such waits cannot cycle; the run parks
// until the holder's release wakes it (Heap.fbPark). Hardware commits and NT
// operations never wait while holding locks, so they are spun out
// unconditionally. A line below the watermark that another fallback run
// holds is where a cycle could close, so the attempt aborts at once — the
// runFallback loop releases the entire lock-set, parks holding nothing until
// that line is released, and re-runs the body. Every fallback wait therefore
// points up the line order, and no cycle of waits exists. A GlobalFallback
// attempt also holds fallbackMu, but it takes the mutex before its first line
// and nothing waits for the mutex while holding a line, so the mutex closes no
// cycle. The owner ID recorded in the held line lets a contending fallback see
// who holds it in a debugger and turns a same-thread re-lock — impossible
// unless the lock-set invariant broke — into a loud panic instead of a silent
// self-deadlock.
func (t *Txn) fbAcquire(a Addr, op string) int {
	s := a >> lineShift
	if i := t.findLine(s); i >= 0 {
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
				t.fbMax = max(t.fbMax, s)
				t.addLine(a, m)
				return len(t.lines) - 1
			}
		case metaFallbackLocked(m):
			if metaFallbackOwner(m) == t.fbOwner {
				panic(fmt.Sprintf("htm: fallback self-deadlock: the line of word %#x is locked by this thread but missing from its lock-set", uint32(a)))
			}
			if !waited {
				// Count the collision once per acquisition, in-order or not.
				waited = true
				bump(&t.th.cell.fallbackWaits)
			}
			// Held by another fallback operation, potentially for long.
			if s < t.fbMax {
				t.abort(AbortConflict, a) // release, park on s, retry (runFallback)
			}
			t.h.fbPark(s)
		default:
			// Commit write-back or NT operation: short by construction
			// (neither ever waits while holding line locks), so spin it out.
			if spins&63 == 63 {
				runtime.Gosched()
			}
		}
	}
}

// fbLoad is Txn.Load on the fallback path: lock the word's line,
// then read the word directly — the lock excludes every writer
// (commits and NT writes take the same metadata lock), so no read-set entry
// or validation is needed.
func (t *Txn) fbLoad(a Addr) uint64 {
	if t.env != nil {
		t.env.yield(t.th) // the fallback yields but is never injected into
	}
	if a == NilAddr || int(a) >= t.arenaWords {
		t.accessFault(a, "load")
	}
	if i := t.findWrite(a); i >= 0 {
		return t.writes[i].val
	}
	t.fbAcquire(a, "load")
	return t.word(a).Load()
}

// fbStore is Txn.Store on the fallback path: lock the word's line
// and buffer the write. Buffering (rather than writing in place) is what makes
// the deadlock-avoidance release-and-retry safe: an attempt that drops its
// lock-set has published nothing. The store buffer bound does not apply —
// the fallback exists precisely to complete bodies that overflow it.
func (t *Txn) fbStore(a Addr, v uint64) {
	if t.env != nil {
		t.env.yield(t.th)
	}
	if a == NilAddr || int(a) >= t.arenaWords {
		t.accessFault(a, "store")
	}
	if i := t.findWrite(a); i >= 0 {
		t.writes[i].val = v
		return
	}
	li := t.fbAcquire(a, "store")
	t.lines[li].written = true
	t.addWrite(a, v)
}

// fbRelease releases the whole lock-set: written lines take a fresh live
// metadata word at version wv (the caller has already stored their values),
// read-locked lines get their displaced metadata back verbatim (no
// observable transition). Pass wv=0 on abort/retry paths — buffered writes
// were never applied, so every line restores to its pre-lock state.
func (t *Txn) fbRelease(wv uint64) {
	for i := range t.lines {
		l := &t.lines[i]
		if l.written && wv != 0 {
			t.meta[l.addr>>lineShift].Store(makeMeta(wv, true))
		} else {
			t.meta[l.addr>>lineShift].Store(l.prev)
		}
		t.h.fbWake(l.addr >> lineShift)
	}
	t.lines = t.lines[:0]
	t.fbMax = 0
}

// InFallback reports whether this attempt is executing on the TLE fallback
// path (with or without the global lock) rather than as a hardware
// transaction attempt. Bodies can use it to adapt — e.g. tests that must
// synchronize only once the fallback engaged.
func (t *Txn) InFallback() bool { return t.direct }

// compactReads drops, in place, every read entry whose line an earlier entry
// already holds, leaving one entry per distinct line and rindex mapping each
// line to its entry. It is exact: two entries of one line hold the same
// metadata word, because a read that finds its line's metadata changed since
// the earlier entry sees a version above rv and extends, and the extension's
// validation fails on the earlier entry.
func (t *Txn) compactReads() {
	t.rindex.reset()
	kept := t.reads[:0]
	for _, r := range t.reads {
		l := r.addr >> lineShift
		if t.rindex.lookup(l) >= 0 {
			continue
		}
		t.rindex.insert(l, len(kept))
		kept = append(kept, r)
	}
	t.reads = kept
}

// readSetFull is Load's capacity edge: the set holds MaxReadSet entries and
// the word at a starts a new run. It compacts the set and reports whether a's
// line is already held — the read then needs no entry — and aborts
// AbortCapacity at a if every entry is still a distinct line.
func (t *Txn) readSetFull(a Addr) bool {
	t.compactReads()
	if t.rindex.lookup(a>>lineShift) >= 0 {
		return true
	}
	if len(t.reads) == t.maxReadSet {
		t.abort(AbortCapacity, a)
	}
	return false
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

// accessFault is a transactional access to an invalid or freed word. Rock's
// sandboxing turns it into an AbortIllegal on the hardware path; the fallback
// path runs non-speculatively, so there it is a segmentation fault.
func (t *Txn) accessFault(a Addr, op string) {
	if !t.direct {
		t.abort(AbortIllegal, a)
	}
	panic(fmt.Sprintf("htm: fallback %s of invalid or freed address %#x (simulated segmentation fault)", op, uint32(a)))
}

// validate checks that every read performed so far still holds the metadata
// word it held when read — one atomic load and compare per entry; a lock, a
// version bump, a free, or a reallocation all fail it — and returns the first
// read that does not. Lines locked by this transaction's own commit are
// checked against their pre-lock metadata by publish.
func (t *Txn) validate() (Addr, bool) {
	for i := range t.reads {
		r := &t.reads[i]
		if t.meta[r.addr>>lineShift].Load() != r.meta {
			return r.addr, false
		}
	}
	return NilAddr, true
}

// extend attempts to move the read-validity snapshot forward after
// encountering a version newer than rv, aborting on any stale read at the
// address that failed validation. This gives the engine HTM-like conflict
// behaviour: transactions abort only when a word they actually read or wrote
// is modified concurrently. The clock is re-read BEFORE revalidating: any
// write that the new snapshot admits but that landed before the read is
// caught by the equality revalidation, so a torn snapshot can never be
// certified.
func (t *Txn) extend() {
	// A hardware transaction holding the global lock word in its read set
	// aborts when the lock is taken (§6); this is that subscription. Safety
	// does not rest on it: any fallback run that touched a word this
	// transaction read rewrote that word's metadata, so validate() below
	// catches it.
	if t.global && t.h.fallbackSeq.Load() != t.fbSeq {
		t.abort(AbortFallback, NilAddr)
	}
	t.rv = t.h.clock.v.Load()
	if a, ok := t.validate(); !ok {
		t.abort(AbortConflict, a)
	}
}

// Load transactionally reads the word at a.
func (t *Txn) Load(a Addr) uint64 {
	if t.direct {
		return t.fbLoad(a)
	}
	// The environment's turn (hardware attempts only — the direct paths
	// returned above): a yield, then access-site injection, where the attempt
	// dies mid-body like a TLB miss or cache displacement landing on a
	// transactional access.
	if t.env != nil && t.env.fireAccess(t.th) {
		t.abort(AbortSpurious, NilAddr)
	}
	if a == NilAddr || int(a) >= t.arenaWords {
		t.accessFault(a, "load")
	}
	mi := a >> lineShift
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
		v := t.word(a).Load()
		if t.meta[mi].Load() != m1 {
			continue
		}
		if metaVersion(m1) > t.rv {
			t.extend()
			// The word may have changed again between the value read and the
			// extension; re-read under the new snapshot.
			if t.meta[mi].Load() != m1 {
				continue
			}
		}
		// One entry guards a run of reads of a line (see compactReads), so
		// a read on the last entry's line adds none.
		if n := len(t.reads); n > 0 && t.reads[n-1].addr>>lineShift == mi {
			return v
		}
		if len(t.reads) == t.maxReadSet && t.readSetFull(a) {
			return v
		}
		t.reads = append(t.reads, readEntry{addr: a, meta: m1})
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
// plain hardware-path case is in play: the fallback paths, an environment
// plan (every access must yield and draw from it), a non-empty write set
// (read-own-writes), a range that leaves the arena, and every word past the
// room left below MaxReadSet. Otherwise the per-access dispatch is decided
// once for the whole range, and each word whose metadata is live, unlocked,
// stable across the value read and no newer than rv is read inline; any other
// word goes through Load, which spins, extends or aborts exactly as it would
// have.
func (t *Txn) LoadWords(a Addr, dst []uint64) {
	if len(dst) == 1 { // nothing to amortize the range set-up over
		dst[0] = t.Load(a)
		return
	}
	fast := t.bypassPrefix(int(a), int(a)+len(dst)-1, len(dst))
	t.reads = slices.Grow(t.reads, fast)
	for i := 0; i < fast; i++ {
		i += t.loadRun(a+Addr(i), dst[i:fast])
		if i < fast {
			dst[i] = t.Load(a + Addr(i))
		}
	}
	for i := fast; i < len(dst); i++ {
		dst[i] = t.Load(a + Addr(i))
	}
}

// loadRun is LoadWords' inner loop: it reads words from a on into dst (the
// range is inside the arena), appending one read entry per line as Load would,
// and returns how many it read before the first word that fails the bypass
// predicate — locked, freed, changed under the value read, or newer than rv —
// which it leaves to Load. The predicate's metadata half is decided once per
// line, since the words of a line share one metadata word; what is left per
// word is value, metadata again. A run ends at the end of a's chunk, which it
// looks up once, and reads nothing if the chunk was never backed: Load decides
// the next word. The loops are leaves over slices cut to the range: the atomic
// loads are compiler barriers, so a t.field or a bounds check inside them is
// paid again after every one.
func (t *Txn) loadRun(a Addr, dst []uint64) int {
	c := t.chunks[a>>chunkShift].Load()
	if c == nil {
		return 0
	}
	words := c[a&chunkMask:]
	dst = dst[:min(len(dst), len(words))]
	words, meta, rv := words[:len(dst)], t.meta, t.rv
	ents, adv := t.readRoom(lineOf(a), len(dst))
	i, k := 0, 0
run:
	for i < len(dst) {
		l := lineOf(a + Addr(i))
		mw := &meta[l]
		m1 := mw.Load()
		if m1&(metaLockBit|metaAllocBit) != metaAllocBit || metaVersion(m1) > rv {
			break
		}
		v := words[i].Load()
		if mw.Load() != m1 {
			break
		}
		ents[k] = readEntry{addr: a + Addr(i), meta: m1}
		k, adv = k+adv, 1
		dst[i] = v
		end := min(len(dst), (l+1)<<lineShift-int(a))
		for i++; i < end; i++ {
			v := words[i].Load()
			if mw.Load() != m1 {
				break run
			}
			dst[i] = v
		}
	}
	t.reads = t.reads[:len(t.reads)+k]
	return i
}

// readRoom returns the room for k more read entries past the read set, which
// the caller made, and what a kernel's first entry adds to the set's length:
// 0 when the kernel's first line, first, is the line of the set's last entry
// — a read of the same line extends that entry instead of adding one — and 1
// otherwise; every later line adds 1. The bulk reads make the room before
// their loops, so that the kernels fill entries by index and never grow the
// set: a call inside a kernel would spill every local its loops keep in a
// register.
func (t *Txn) readRoom(first, k int) (room []readEntry, adv int) {
	n := len(t.reads)
	if n > 0 && lineOf(t.reads[n-1].addr) == first {
		return t.reads[n : n+k], 0
	}
	return t.reads[n : n+k], 1
}

// bypassPrefix is the fast-path gate of both bulk reads: how many leading
// words of a read of n words, the lowest at lo and the highest at hi, may skip
// the per-access dispatch. It is 0 unless the plain hardware-path case is in
// play — no fallback path, no environment plan, an empty write set — and every
// word is inside the arena. Then the prefix is the room left below
// MaxReadSet: a word adds at most one read entry, so no word of the prefix
// finds the set full.
func (t *Txn) bypassPrefix(lo, hi, n int) int {
	if t.direct || t.env != nil || len(t.writes) != 0 || lo <= int(NilAddr) || hi >= t.arenaWords {
		return 0
	}
	return min(n, t.maxReadSet-len(t.reads))
}

// LoadStrided transactionally reads len(dst) words spaced stride words apart,
// the first at a, into dst. It is DEFINED as
//
//	for i := range dst { dst[i] = t.Load(a + Addr(i*stride)) }
//
// with everything LoadWords promises of its loop; stride may be negative, for
// a walk down an array. Stride 1 is LoadWords. Otherwise it takes the fast
// path under LoadWords' conditions (bypassPrefix): each line of the prefix
// costs one metadata load, the readable test and at most one read entry, each
// word a value and the metadata again, as in LoadWords (stridedRun).
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
	t.reads = slices.Grow(t.reads, fast)
	for i := 0; i < fast; i++ {
		i += t.stridedRun(a+Addr(i*stride), stride, dst[i:fast])
		if i < fast {
			dst[i] = t.Load(a + Addr(i*stride))
		}
	}
	for i := fast; i < len(dst); i++ {
		dst[i] = t.Load(a + Addr(i*stride))
	}
}

// stridedRun is LoadStrided's inner loop: it reads the words stride apart
// from a into dst (every word inside the arena), appending one read entry per
// line as Load would, and returns how many it read before the first word that
// fails the bypass predicate, which it leaves to Load. Like loadRun it decides
// the metadata half of the predicate once per line — a strided walk over an
// array's slots meets several slots in each — ends, as loadRun does, at the
// end of a's chunk, and keeps the chunk and the snapshot in locals, since the
// atomic loads are compiler barriers.
func (t *Txn) stridedRun(a Addr, stride int, dst []uint64) int {
	c := t.chunks[a>>chunkShift].Load()
	if c == nil {
		return 0
	}
	if last := int(a) + (len(dst)-1)*stride; last>>chunkShift != int(a>>chunkShift) {
		dst = dst[:chunkStrides(a, stride)]
	}
	meta, rv := t.meta, t.rv
	ents, adv := t.readRoom(lineOf(a), len(dst))
	w, i, k := int(a), 0, 0
run:
	for i < len(dst) {
		l := w >> lineShift
		mw := &meta[l]
		m1 := mw.Load()
		if m1&(metaLockBit|metaAllocBit) != metaAllocBit || metaVersion(m1) > rv {
			break
		}
		v := c[w&int(chunkMask)].Load()
		if mw.Load() != m1 {
			break
		}
		ents[k] = readEntry{addr: Addr(w), meta: m1}
		k, adv = k+adv, 1
		dst[i] = v
		for i, w = i+1, w+stride; i < len(dst) && w>>lineShift == l; i, w = i+1, w+stride {
			v := c[w&int(chunkMask)].Load()
			if mw.Load() != m1 {
				break run
			}
			dst[i] = v
		}
	}
	t.reads = t.reads[:len(t.reads)+k]
	return i
}

// chunkStrides returns how many words stride apart from a, a first, lie in
// a's chunk. It divides, so stridedRun calls it only for a walk that leaves
// the chunk.
func chunkStrides(a Addr, stride int) int {
	off := int(a & chunkMask)
	if stride > 0 {
		return (chunkWords-1-off)/stride + 1
	}
	return off/-stride + 1
}

// word returns the word at a, whose line must have been carved.
func (t *Txn) word(a Addr) *atomic.Uint64 {
	return &t.chunks[a>>chunkShift].Load()[a&chunkMask]
}

// Store transactionally writes v to the word at a. Writes are buffered and
// become visible atomically at commit. Writing more distinct words than the
// configured store buffer size aborts with AbortOverflow, reproducing Rock's
// bounded transactions.
func (t *Txn) Store(a Addr, v uint64) {
	if t.direct {
		t.fbStore(a, v)
		return
	}
	// The environment's turn; see Load.
	if t.env != nil && t.env.fireAccess(t.th) {
		t.abort(AbortSpurious, NilAddr)
	}
	if a == NilAddr || int(a) >= t.arenaWords {
		t.accessFault(a, "store")
	}
	l := a >> lineShift
	m := t.meta[l].Load()
	if !metaAllocated(m) {
		t.accessFault(a, "store")
	}
	// Is a buffered already, and is its line? A small write set answers both
	// in one pass.
	newLine := true
	if w := t.writes; len(w) <= setLinearMax {
		for i := range w {
			if w[i].addr>>lineShift == l {
				if w[i].addr == a {
					w[i].val = v
					return
				}
				newLine = false
			}
		}
	} else if i := t.findWrite(a); i >= 0 {
		t.writes[i].val = v
		return
	} else {
		newLine = t.findLine(l) < 0
	}
	if t.storeBufSize >= 0 && len(t.writes)+t.charged >= t.storeBufSize {
		t.abort(AbortOverflow, a)
	}
	t.addWrite(a, v)
	// The first store to a line records its metadata with the lock bit
	// cleared: a line locked right now is mid-commit elsewhere, and its
	// release will bump the version, so our commit's CAS from this recorded
	// word correctly fails as a conflict. A later store to the line records
	// nothing: a line that changed since its first store fails that CAS too.
	if newLine {
		t.addLine(a, m&^metaLockBit)
	}
}

// ChargeStores consumes n store-buffer entries for stores to memory only the
// caller can see — a Go slice, say — without buffering a shared write. It
// stands for n Stores to fresh allocated words that no other thread reads: it
// aborts AbortOverflow (at NilAddr: the words have no heap address) exactly
// where that loop would, Store counts the charged entries against the same
// bound, and under an environment plan each entry draws the yield and fault
// decision its Store would have. A transaction whose only stores were charged
// commits as such a write commit would, minus its lock, tick and write-back
// (see commitCharged). On the fallback paths, which have no store buffer, it
// does nothing.
func (t *Txn) ChargeStores(n int) {
	if t.direct {
		return
	}
	if t.env == nil {
		if t.storeBufSize >= 0 && len(t.writes)+t.charged+n > t.storeBufSize {
			t.abort(AbortOverflow, NilAddr)
		}
		t.charged += n
		return
	}
	for ; n > 0; n-- {
		if t.env.fireAccess(t.th) {
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
	// Tracked even on the fallback path: a fallback attempt can release and
	// retry (deadlock avoidance), which must roll its allocations back
	// exactly as an aborted hardware attempt does. Committed attempts clear
	// the list without freeing.
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
		if len(t.writes) > 0 {
			// Fallback: write the buffered stores back under the held locks,
			// then release every line — written lines with one fresh version
			// tick shared by the whole operation (exactly as a hardware commit
			// versions its write set), read-locked lines by restoring their
			// displaced metadata. Frees run only after the release: a block
			// being freed may contain held lines, and free() waits out line
			// locks.
			for i := range t.writes {
				t.word(t.writes[i].addr).Store(t.writes[i].val)
			}
			// Injected adversity (Config.Faults.ReleaseDelay): hold the
			// lock-set a while longer after write-back, stretching the
			// window in which contenders see the lines fallback-locked.
			if t.env != nil {
				for i := 0; i < t.env.releaseDelay; i++ {
					runtime.Gosched()
				}
			}
			// Tick the clock with the whole lock-set held — same
			// lock-then-tick order as a hardware commit. No other counter
			// implies this tick (FallbackRuns also counts read-only runs), so
			// it is counted here.
			t.fbRelease(t.h.tick())
			bump(&t.th.cell.extraTicks)
		} else {
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
	// The global-lock subscription (§6): a commit that sees the global
	// fallback epoch moved since begin aborts. It is the model's rule, not a
	// safety fence — every fallback run holds the line locks of
	// what it touches, so a conflicting commit fails its acquisition CAS and
	// a disjoint one proceeds.
	if t.global && h.fallbackSeq.Load() != t.fbSeq {
		return AbortFallback, NilAddr
	}
	code, addr := t.publish()
	if code == 0 {
		t.runFrees()
	}
	return code, addr
}

// commitCharged is the commit of a transaction whose only stores were charged:
// what publish decides for a write set of private words. Their acquisition
// CASes can never fail and nobody reads them, so only the steps that decide
// the outcome are left — the global-lock epoch check (AbortFallback), then
// read-set validation against live metadata (AbortConflict at the first
// changed word) — and none of the lock, the clock tick or the write-back. It
// counts as a read-only commit: nothing ticked.
func (t *Txn) commitCharged() (AbortCode, Addr) {
	if t.global && t.h.fallbackSeq.Load() != t.fbSeq {
		return AbortFallback, NilAddr
	}
	if a, ok := t.validate(); !ok {
		return AbortConflict, a
	}
	return 0, NilAddr
}

// publish is the hardware write commit proper: lock the written lines, tick
// the clock, validate the read set, write back, release. It reports
// AbortIllegal only for a written line freed (and not yet reused) since its
// first store; nothing is held when it returns, whatever the outcome.
func (t *Txn) publish() (AbortCode, Addr) {
	meta, lines := t.meta, t.lines
	// Acquire each written line once: one CAS from exactly the metadata its
	// first store recorded to that word locked. The CAS doubles as full
	// validation of every write to the line — a concurrent commit, an NT
	// write, a free, or a free-and-reallocation since the first store all
	// rewrote the metadata (versions only grow, so a recorded word can never
	// recur), and each fails the acquisition. In particular a blind write can
	// never land in a reused block's new life, and a freed line is never
	// locked (which is what lets the allocator transition free lines with a
	// bare CAS instead of a lock handshake).
	for i := range lines {
		l := &lines[i]
		mw := &meta[l.addr>>lineShift]
		if !mw.CompareAndSwap(l.prev, l.prev|metaLockBit) {
			code := AbortConflict
			if cur := mw.Load(); !metaAllocated(cur) && !metaLocked(cur) {
				// Freed — and not yet reused — since the store. (A freed-and-
				// reused line aborts as a conflict, which is equally safe:
				// nothing was written.)
				code = AbortIllegal
			}
			t.unlockLines(lines[:i])
			return code, l.addr
		}
	}

	// Tick the version clock. The order is load-bearing: every write lock is
	// already held, so any transaction whose begin observes this tick and
	// then reads one of our lines either sees it locked (waits/aborts) or sees
	// the fresh version — never the old value under a snapshot that admits
	// the new one.
	wv := t.h.tick()

	// Validate the read set. A line we hold is validated against the metadata
	// it was locked from: it must read as our lock on exactly the word the
	// read recorded.
	for i := range t.reads {
		r := &t.reads[i]
		o := meta[r.addr>>lineShift].Load()
		if o != r.meta && (o != r.meta|metaLockBit || t.findLine(r.addr>>lineShift) < 0) {
			// The tick above is spent but no write commit will account for it.
			bump(&t.th.cell.extraTicks)
			t.unlockLines(lines)
			return AbortConflict, r.addr
		}
	}

	for i := range t.writes {
		t.word(t.writes[i].addr).Store(t.writes[i].val)
	}
	// Release each line once, as acquisition locked it: a second release is
	// no idempotent store, because another committer may acquire the line
	// between the two — and the second would then unlock it under that one.
	live := makeMeta(wv, true)
	for i := range lines {
		meta[lines[i].addr>>lineShift].Store(live)
	}
	return 0, NilAddr
}

// unlockLines releases the commit locks on ls, each to the metadata it was
// locked from.
func (t *Txn) unlockLines(ls []lineEntry) {
	for i := range ls {
		t.meta[ls[i].addr>>lineShift].Store(ls[i].prev)
	}
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
	t.lines = t.lines[:0]
	t.fbMax = 0
	t.direct = false
	t.fbSeq = 0
}

// ReadSetSize reports the number of distinct lines the attempt has read;
// useful for tests and for algorithms that adapt transaction size. It
// compacts the read set first (compactReads), so a line read in several runs
// counts once.
func (t *Txn) ReadSetSize() int {
	t.compactReads()
	return len(t.reads)
}
