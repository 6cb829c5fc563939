package htm

import (
	"fmt"
	"runtime"
)

// Thread is a per-goroutine execution context: it carries the transaction
// descriptor, the allocator home shard, backoff state and per-thread
// statistics. Create one Thread per worker goroutine with Heap.NewThread; a
// Thread must not be shared between goroutines.
type Thread struct {
	h     *Heap
	id    uint64
	shard int // allocator home shard
	// clockShard is the version-clock shard this thread's commits, allocs and
	// frees tick (Config.ClockShards). Assigning threads round-robin by ID
	// keeps concurrently created threads on distinct shards, so disjoint
	// commits from different threads never RMW a shared clock line.
	clockShard int
	rng        uint64
	txn        Txn
	inTxn      bool

	// cell is this thread's private statistics block; see stats.
	cell *statCell

	// faults is this thread's fault-injection state; nil when the heap has no
	// plan, so the hot paths pay a single pointer check.
	faults *threadFaults

	// Attempt outcome counters for this thread.
	attempts uint64
	commits  uint64

	// mags are the per-size-class allocator magazines (see alloc.go); they
	// serve the alloc/free fast path with no locking.
	mags [maxMagSize + 1]magazine
}

// NewThread creates an execution context bound to the heap. Each worker
// goroutine needs its own Thread.
func (h *Heap) NewThread() *Thread {
	id := h.nextTID.Add(1)
	th := &Thread{
		h:          h,
		id:         id,
		shard:      int(id) & (len(h.alloc.shards) - 1),
		clockShard: int(id & h.shardMask),
		rng:        id*0x9E3779B97F4A7C15 | 1,
		cell:       h.stats.register(),
	}
	th.txn.th = th
	th.txn.h = h
	th.txn.words = h.words
	th.txn.meta = h.meta
	th.txn.clock = h.clock
	th.txn.shardBits = h.shardBits
	th.txn.shardMask = h.shardMask
	th.txn.sshift = h.stripeShift
	th.txn.rv = make([]uint64, len(h.clock))
	th.txn.yieldThresh = h.ntYieldThresh // same conversion as NT accesses
	th.txn.maxReadSet = h.cfg.MaxReadSet
	th.txn.storeBufSize = h.cfg.StoreBufferSize
	th.txn.dedupAfter = h.cfg.dedupBypassThreshold()
	th.txn.fbOwner = id & fallbackOwnerMask
	th.txn.tle = h.cfg.EnableTLE
	if h.cfg.Faults.enabled() {
		th.faults = newThreadFaults(h.cfg.Faults, id)
		th.txn.faults = th.faults
		th.txn.fbDelay = th.faults.releaseDelay
	}
	return th
}

// ID returns the thread's unique identifier (1-based).
func (th *Thread) ID() uint64 { return th.id }

// ClockShard returns the version-clock shard this thread's commits tick.
func (th *Thread) ClockShard() int { return th.clockShard }

// tickClock advances this thread's home clock shard and returns the encoded
// version. Callers must hold (or exclusively own) every metadata word the
// version will be published to — see Heap.tickShard. It bumps no statistic:
// Stats.ClockShardTicks is derived, so every caller must either end in a
// counter that implies the tick (writeCommits, allocCalls, freeCalls) or bump
// extraTicks itself.
func (th *Thread) tickClock() uint64 {
	return th.h.tickShard(th.clockShard)
}

// Heap returns the heap this thread operates on.
func (th *Thread) Heap() *Heap { return th.h }

// Alloc allocates a zeroed block of size words outside any transaction.
func (th *Thread) Alloc(size int) Addr {
	return th.h.alloc.alloc(th, size, nil)
}

// AllocInit allocates a block of len(words) words holding a copy of words,
// outside any transaction. It is Alloc with the payload written in place of
// the zero fill — before the block's allocated metadata is published — so a
// node is filled while private at the cost of the allocation alone: one clock
// tick and one CAS per metadata word, no store per payload word afterwards.
// An empty image panics, as Alloc(0) does.
func (th *Thread) AllocInit(words []uint64) Addr {
	return th.h.alloc.alloc(th, len(words), words)
}

// Free returns the block whose payload starts at a to the heap. Freeing
// memory that a concurrent transaction is using is safe: the transaction
// aborts (sandboxing) instead of observing reused memory.
func (th *Thread) Free(a Addr) {
	th.h.alloc.free(th, a)
}

// BlockSize returns the payload size in words of the allocated block at a.
func (th *Thread) BlockSize(a Addr) int { return th.h.alloc.blockSize(a) }

// xorshift PRNG for backoff jitter.
func (th *Thread) rand() uint64 {
	x := th.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	th.rng = x
	return x
}

// backoff spins for an exponentially growing, jittered interval after the
// given number of consecutive failed attempts.
func (th *Thread) backoff(attempt int) {
	if attempt > 16 {
		attempt = 16
	}
	max := uint64(1) << uint(attempt)
	n := th.rand() % max
	for i := uint64(0); i < n; i++ {
		spinHint()
	}
	if attempt >= 8 {
		runtime.Gosched()
	}
}

// spinHint is a cheap CPU pause used in backoff loops.
//
//go:noinline
func spinHint() {}

// begin initializes the reusable transaction descriptor for an attempt. On a
// TLE heap it waits out any global fallback critical section and snapshots
// the epoch such a section would bump; while the mode is fine the epoch never
// moves, so the wait is a single load — a concurrent fine-grained fallback is
// visible to the attempt purely as locked metadata words, exactly like any
// other conflicting writer.
func (th *Thread) begin() *Txn {
	t := &th.txn
	t.reset()
	h := th.h
	if t.tle {
		for {
			seq := h.fallbackSeq.Load()
			if seq&1 == 0 {
				t.fbSeq = seq
				break
			}
			runtime.Gosched()
		}
	}
	// Snapshot every clock shard. One load per shard, no RMW: begin leaves no
	// trace on any shared cache line. With one shard this is the scalar
	// rv = clock.Load() of the pre-shard engine.
	for i := range t.rv {
		t.rv[i] = h.clock[i].v.Load()
	}
	th.attempts++ // thread-private; Stats.Starts is derived from the outcome counters
	if th.faults != nil {
		th.faults.attemptStart()
	}
	return t
}

// faultOpStart opens a new fault-injection operation scope (one Atomic,
// AtomicUntil or TryAtomic call), resetting the per-op injection budget.
func (th *Thread) faultOpStart() {
	if th.faults != nil {
		th.faults.opStart()
	}
}

// TryAtomic executes f as a single transaction attempt. It returns nil if
// the attempt committed and an *AbortError describing the failure otherwise.
// Use it when the caller manages retries itself — for example the telescoping
// Collect loops, which adapt their step size to abort feedback.
//
// f may be re-executed by other calls and must be restartable; see Txn.
func (th *Thread) TryAtomic(f func(*Txn)) error {
	th.faultOpStart()
	code, addr, ok := th.tryAtomic(f)
	if ok {
		return nil
	}
	return &AbortError{Code: code, Addr: addr}
}

// tryAtomic runs one attempt and reports its outcome without materializing an
// error, so the Atomic retry loop pays nothing extra per abort. In-body
// aborts arrive as the abortSentinel panic; commit-time aborts arrive by
// return value and skip unwinding.
func (th *Thread) tryAtomic(f func(*Txn)) (code AbortCode, addr Addr, ok bool) {
	if th.inTxn {
		panic("htm: nested transactions are not supported")
	}
	th.inTxn = true
	t := th.begin()
	defer func() {
		th.inTxn = false
		if r := recover(); r != nil {
			if r != abortSentinel {
				panic(r) // user panic: propagate
			}
			t.rollbackAllocs()
			bump(&th.cell.aborts[t.abortCode])
			code, addr = t.abortCode, t.abortAddr
		}
	}()
	// Begin-site injection: the attempt dies before the body runs, like an
	// interrupt landing right after checkpoint. Only hardware attempts pass
	// through here (runFallback calls fallbackAttempt directly), so the
	// fallback path is structurally immune to injection.
	if th.faults != nil && th.faults.fireBegin() {
		t.abort(AbortSpurious, NilAddr)
	}
	f(t)
	// Commit-point injection: the body ran to completion and every buffered
	// effect is discarded anyway — the most expensive abort the environment
	// can inflict.
	if th.faults != nil && th.faults.fireCommit() {
		t.rollbackAllocs()
		bump(&th.cell.aborts[AbortSpurious])
		return AbortSpurious, NilAddr, false
	}
	if code, addr = t.commit(); code != 0 {
		t.rollbackAllocs()
		bump(&th.cell.aborts[code])
		return code, addr, false
	}
	// The attempt's one statistics store. A write commit ticked the clock
	// exactly once, which is how Stats.ClockShardTicks counts it.
	th.commits++
	if len(t.writes) == 0 {
		bump(&th.cell.commits)
	} else {
		bump(&th.cell.writeCommits)
	}
	return 0, NilAddr, true
}

// Atomic executes f atomically, retrying with exponential backoff until it
// commits. If the heap enables TLE and an attempt fails MaxRetries times, f
// runs on the pessimistic fallback path the heap's mode word selects: in
// ModeFine a software transaction that locks the per-word metadata of exactly
// the words it touches, in ModeGlobal under the paper's single global lock
// (§6). Without TLE, a transaction that deterministically overflows the
// store buffer panics rather than retrying forever.
func (th *Thread) Atomic(f func(*Txn)) {
	th.AtomicUntil(f, nil)
}

// AtomicUntil is Atomic with an abandon hook: stop is consulted after each
// failed attempt, and a true return abandons the operation. It reports whether
// f committed — false means f definitely did not take effect (an attempt is
// abandoned only after it has already aborted and rolled back). A nil stop
// never abandons, making AtomicUntil(f, nil) exactly Atomic.
//
// Once the TLE fallback engages the operation runs to completion regardless
// of stop: the fallback cannot abort, so there is no between-attempts point
// left to abandon at. This bounds how late a deadline can act by one fallback
// execution, in exchange for keeping the false ⇒ not-committed guarantee.
func (th *Thread) AtomicUntil(f func(*Txn), stop func() bool) bool {
	th.faultOpStart()
	for attempt := 0; ; attempt++ {
		code, addr, ok := th.tryAtomic(f)
		if ok {
			return true
		}
		cfg := &th.h.cfg
		if cfg.EnableTLE && attempt+1 >= cfg.MaxRetries {
			th.runFallback(f)
			return true
		}
		if code == AbortOverflow && !cfg.EnableTLE {
			// Deterministic failure: the same body will overflow again.
			panic(fmt.Sprintf("htm: transaction overflows the %d-entry store buffer and no TLE fallback is enabled: %v",
				cfg.StoreBufferSize, &AbortError{Code: code, Addr: addr}))
		}
		if stop != nil && stop() {
			return false
		}
		th.backoff(attempt)
	}
}

// runFallback executes f on the TLE fallback path the mode word selects. In
// ModeFine that is a pessimistic software transaction over the per-word
// metadata locks: every word f loads or stores is lock-acquired on first touch
// (with the thread's owner ID recorded in the held word), stores are buffered,
// and the commit writes them back under the locks and releases the whole set
// with one version tick. Fallback operations with disjoint footprints — and
// hardware transactions on words the fallback does not hold — run
// concurrently; a lock-order conflict with another fallback releases
// everything and retries with jittered backoff (see fbAcquire for the
// deadlock-avoidance argument).
func (th *Thread) runFallback(f func(*Txn)) {
	t := &th.txn
	th.inTxn = true
	defer func() {
		th.inTxn = false
		th.cell.inFine.Store(0) // still up after a completed run or a panicking body
	}()
	for attempt := 0; ; attempt++ {
		// Nothing is held here, so every attempt re-enters the barrier and
		// re-consults the mode word: in a storm so dense that runs stop
		// completing, a switch to the global lock must redirect the operations
		// ALREADY in the retry loop, not only new entries — they are the storm.
		if !th.enterFineFallback() {
			th.runGlobalFallback(f)
			return
		}
		t.reset()
		t.direct = true
		t.fbSpins = int(th.h.fbSpins.Load())
		if th.fallbackAttempt(f) {
			// Injected adversity: stall at the worst possible moment — body
			// done, entire lock-set held, commit not yet run — so every thread
			// colliding with this footprint must survive a long hold. The
			// stall is finite (StallSpins yields), so progress is delayed,
			// never destroyed.
			if th.faults != nil && th.faults.maybeStall() {
				bump(&th.cell.fallbackStalls)
			}
			t.commit() // write-back, release lock-set, run deferred frees
			bump(&th.cell.fallbackRuns)
			return
		}
		bump(&th.cell.fallbackRetries)
		// Dropping inFine for the backoff lets a global acquirer's quiesce
		// scan drain past this thread.
		th.cell.inFine.Store(0)
		th.backoff(attempt)
	}
}

// fallbackAttempt runs one execution of f on either fallback path and reports
// whether it completed. An abortSentinel panic — an out-of-order lock
// conflict, or the body calling Txn.Abort — releases the lock-set (restoring
// every displaced metadata word; buffered stores were never applied, and the
// global path holds no word locks), rolls back in-body allocations and asks
// the caller to retry. Any
// other panic (including the simulated segfault for a freed-word access,
// which the fallback, like all direct access, never sandboxes) releases the
// locks and propagates.
func (th *Thread) fallbackAttempt(f func(*Txn)) (done bool) {
	t := &th.txn
	defer func() {
		if r := recover(); r != nil {
			t.fbRelease(0)
			t.rollbackAllocs()
			if r != abortSentinel {
				panic(r)
			}
		}
	}()
	f(t)
	return true
}

// runGlobalFallback is the ModeGlobal fallback path (paper §6): f runs under
// the process-wide fallback lock, mutually exclusive — via the odd epoch and
// the quiesce barrier — with every hardware commit and every fine-grained
// fallback run. Stores are buffered like any other attempt's, so a body that
// calls Txn.Abort has published nothing and simply re-runs under the lock.
func (th *Thread) runGlobalFallback(f func(*Txn)) {
	h := th.h
	h.fallbackMu.Lock()
	defer h.fallbackMu.Unlock()
	h.fallbackSeq.Add(1) // odd: lock held; new transactions wait
	th.inTxn = true
	defer func() {
		th.inTxn = false
		h.fallbackSeq.Add(1) // even: released
	}()
	h.quiesceForGlobal(th.cell)
	t := &th.txn
	for {
		t.reset()
		t.direct = true
		t.directGlobal = true
		if th.fallbackAttempt(f) {
			t.commit() // direct commits cannot abort
			bump(&th.cell.fallbackRuns)
			return
		}
	}
}

// AttemptStats returns the number of transaction attempts and commits made
// by this thread.
func (th *Thread) AttemptStats() (attempts, commits uint64) {
	return th.attempts, th.commits
}
