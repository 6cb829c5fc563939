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
	rng   uint64
	txn   Txn
	inTxn bool

	// cell is this thread's private statistics block; see stats.
	cell *statCell

	// Attempt outcome counters for this thread.
	attempts uint64
	commits  uint64

	// mags are the allocator magazines, mags[c-1] for the class of c lines
	// (see alloc.go); they serve the alloc/free fast path with no locking.
	mags [magLines]magazine
}

// NewThread creates an execution context bound to the heap. Each worker
// goroutine needs its own Thread.
func (h *Heap) NewThread() *Thread {
	id := h.nextTID.Add(1)
	th := &Thread{
		h:     h,
		id:    id,
		shard: int(id) & (len(h.alloc.shards) - 1),
		rng:   id*0x9E3779B97F4A7C15 | 1,
		cell:  h.stats.register(),
	}
	th.txn.th = th
	th.txn.h = h
	th.txn.words = h.words
	th.txn.arenaWords = h.cfg.Words
	th.txn.meta = h.meta
	th.txn.maxReadSet = h.cfg.MaxReadSet
	th.txn.storeBufSize = h.cfg.StoreBufferSize
	th.txn.fbOwner = id & fallbackOwnerMask
	th.txn.global = h.cfg.EnableTLE && h.cfg.GlobalFallback
	if h.cfg.Faults.enabled() {
		th.txn.env = newThreadEnv(h.cfg.Faults, id)
	}
	return th
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
// tick and one CAS per line, no store per payload word afterwards.
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
// GlobalFallback heap it waits out any global fallback critical section and
// snapshots the epoch such a section would bump. A concurrent fallback run —
// on either kind of heap — is visible to the attempt as locked metadata
// words, exactly like any other conflicting writer.
func (th *Thread) begin() *Txn {
	t := &th.txn
	t.reset()
	h := th.h
	if t.global {
		for {
			seq := h.fallbackSeq.Load()
			if seq&1 == 0 {
				t.fbSeq = seq
				break
			}
			runtime.Gosched()
		}
	}
	// Snapshot the clock. One load, no RMW: begin leaves no trace on any
	// shared cache line.
	t.rv = h.clock.v.Load()
	th.attempts++ // thread-private; Stats.Starts is derived from the outcome counters
	if t.env != nil {
		t.env.attemptStart()
	}
	return t
}

// faultOpStart opens a new fault-injection operation scope (one Atomic,
// AtomicUntil or TryAtomic call), resetting the per-op injection budget.
func (th *Thread) faultOpStart() {
	if e := th.txn.env; e != nil {
		e.opStart()
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
	if t.env != nil && t.env.fireBegin() {
		t.abort(AbortSpurious, NilAddr)
	}
	f(t)
	// Commit-point injection: the body ran to completion and every buffered
	// effect is discarded anyway — the most expensive abort the environment
	// can inflict.
	if t.env != nil && t.env.fireCommit() {
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
// runs on the pessimistic fallback path: a software transaction that locks
// the metadata of exactly the lines it touches, on a GlobalFallback heap also
// under the paper's single global lock (§6). Without TLE, a transaction that
// deterministically overflows the store buffer (AbortOverflow) or reads more
// than MaxReadSet distinct lines (AbortCapacity) panics rather than retrying
// forever.
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
		if !cfg.EnableTLE {
			// Deterministic failures: the same body will overflow the same bound again.
			switch code {
			case AbortOverflow:
				panic(fmt.Sprintf("htm: transaction overflows the %d-entry store buffer and no TLE fallback is enabled: %v",
					cfg.StoreBufferSize, &AbortError{Code: code, Addr: addr}))
			case AbortCapacity:
				panic(fmt.Sprintf("htm: transaction reads more than MaxReadSet (%d) distinct lines and no TLE fallback is enabled: %v",
					cfg.MaxReadSet, &AbortError{Code: code, Addr: addr}))
			}
		}
		if stop != nil && stop() {
			return false
		}
		th.backoff(attempt)
	}
}

// runFallback executes f on the TLE fallback path: a pessimistic software
// transaction over the line metadata locks. The line of every word f loads or
// stores is lock-acquired on first touch (with the thread's owner ID recorded
// in the held line), stores are buffered, and the commit writes them back
// under the locks and releases the whole set with one version tick. Line locks
// alone therefore exclude a fallback run from every hardware commit, every NT
// operation, every free and every other fallback run. Runs with disjoint
// footprints — and hardware transactions on lines the run does not hold —
// proceed concurrently. A run that meets another run's line lock sleeps until
// that line is released (Heap.fbPark): in line order it waits holding its
// lock-set, out of order it first releases everything (see fbAcquire for the
// deadlock-avoidance argument) and re-runs the body once woken.
//
// The heap's Config.GlobalFallback fixes, for its lifetime, whether each
// attempt also holds the paper's §6 global lock (fallbackOnce).
func (th *Thread) runFallback(f func(*Txn)) {
	th.inTxn = true
	defer func() { th.inTxn = false }()
	t := &th.txn
	for attempt := 0; !th.fallbackOnce(f); attempt++ {
		bump(&th.cell.fallbackRetries)
		if t.abortCode == AbortConflict {
			// An out-of-order collision: the lock-set is released, so sleep
			// holding nothing until the blocking line is.
			th.h.fbPark(t.abortAddr >> lineShift)
		} else {
			th.backoff(attempt) // the body called Txn.Abort
		}
	}
	bump(&th.cell.fallbackRuns)
}

// fallbackOnce runs one fallback attempt of f and, if the body completed, its
// commit; it reports whether the operation took effect. On a GlobalFallback
// heap the attempt runs under the paper's §6 global lock: fallbackMu held and
// fallbackSeq odd, so global runs are serialized (and never meet at a line
// lock), hardware attempts wait at begin while one is in flight, and extend()
// and commit abort with AbortFallback if the epoch moved under them. That
// subscription models Rock's elided lock; no safety argument rests on it.
func (th *Thread) fallbackOnce(f func(*Txn)) bool {
	h, t := th.h, &th.txn
	if t.global {
		h.fallbackMu.Lock()
		h.fallbackSeq.Add(1) // odd: lock held; new transactions wait
		defer func() {
			h.fallbackSeq.Add(1) // even: released
			h.fallbackMu.Unlock()
		}()
	}
	t.reset()
	t.direct = true
	if !th.fallbackAttempt(f) {
		return false
	}
	// Injected adversity: stall at the worst possible moment — body done,
	// entire lock-set held, commit not yet run — so every thread colliding
	// with this footprint must survive a long hold. The stall is finite
	// (StallSpins yields), so progress is delayed, never destroyed.
	if t.env != nil && t.env.maybeStall() {
		bump(&th.cell.fallbackStalls)
	}
	t.commit() // write-back, release lock-set, run deferred frees
	return true
}

// fallbackAttempt runs one execution of f on the fallback path and reports
// whether it completed. An abortSentinel panic — an out-of-order lock
// conflict, or the body calling Txn.Abort — releases the lock-set (restoring
// every displaced metadata word; buffered stores were never applied), rolls
// back in-body allocations and asks the caller to retry. Any other panic
// (including the simulated segfault for a freed-word access, which the
// fallback, like all direct access, never sandboxes) releases the locks and
// propagates.
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
