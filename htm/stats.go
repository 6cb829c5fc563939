package htm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

const numAbortCodes = int(AbortSpurious) + 1

// statCell is one thread's statistics block. Each Thread owns a cell and
// updates only it, so the counters are uncontended in steady state; the cell
// is padded to 64-byte cache lines so cells that end up adjacent in memory
// never false-share. The fields are atomics only so that Heap.Stats may read
// them while threads run.
//
// Every update is a locked instruction (see bump), so the cell records each
// event ONCE and Heap.Stats derives the rest: an attempt ends in exactly one
// of commits (read-only), writeCommits (published a write set) or
// aborts[code], and there is no starts or per-tick counter at all — Starts,
// Commits and ClockShardTicks are sums over these (see Heap.Stats).
type statCell struct {
	commits         atomic.Uint64 // read-only hardware commits
	writeCommits    atomic.Uint64 // hardware commits that published a write set (one clock tick each)
	aborts          [numAbortCodes]atomic.Uint64
	fallbackRuns    atomic.Uint64
	fallbackLocks   atomic.Uint64
	fallbackRetries atomic.Uint64
	fallbackStalls  atomic.Uint64
	allocCalls      atomic.Uint64 // one clock tick each
	freeCalls       atomic.Uint64 // one clock tick each
	allocWords      atomic.Uint64 // Config.NoMaxLive only: cellLive, the sole reader, stands in for liveWords
	freeWords       atomic.Uint64 // Config.NoMaxLive only
	extraTicks      atomic.Uint64 // ticks nothing above implies: a fallback run's release, a commit that ticked and then failed validation
	fallbackWaits   atomic.Uint64
	_               [4]uint64 // pads 20 words to exactly three full cache lines (192 B)
}

// statCellBytes pins statCell's intended footprint: whole cache lines, so
// adjacent cells never false-share. The paired constant expressions below are
// a compile-time assertion — uintptr underflow is a constant-overflow build
// error — so adding a counter without re-padding cannot silently split a cell
// across a line boundary again.
const statCellBytes = 192

const (
	_ = statCellBytes - unsafe.Sizeof(statCell{}) // fails to build if the cell grew
	_ = unsafe.Sizeof(statCell{}) - statCellBytes // fails to build if the cell shrank
)

// stats is the heap-internal statistics block: a registry of per-thread
// cells, plus the exact global live/high-water pair maintained on the alloc
// path unless Config.NoMaxLive is set (throughput-only runs).
type stats struct {
	liveWords    atomic.Uint64
	maxLiveWords atomic.Uint64

	mu    sync.Mutex // guards cells
	cells []*statCell
}

// bump and bumpBy update a statCell counter. Each cell has a single writer
// (its owning thread), so a load+store pair stands in for the atomic
// read-modify-write and the cell's lines are never contended; the fields stay
// atomic only so that Heap.Stats can read them concurrently without a data
// race. That does NOT make an update cheap: Go's atomic Store is sequentially
// consistent, which on amd64 is XCHGQ — a locked, full-fence instruction that
// costs about what an uncontended CAS does. Count every bump on a hot path as
// one locked instruction (DESIGN.md "Simulation performance" keeps the
// per-operation budget) and prefer deriving a number in Heap.Stats to storing
// it here.
func bump(c *atomic.Uint64) { c.Store(c.Load() + 1) }

func bumpBy(c *atomic.Uint64, n uint64) { c.Store(c.Load() + n) }

// register adds a fresh cell for a new thread.
func (st *stats) register() *statCell {
	c := &statCell{}
	st.mu.Lock()
	st.cells = append(st.cells, c)
	st.mu.Unlock()
	return c
}

// snapshotCells returns the registry as it stands. register only appends, so
// the returned prefix is never written again and is safe to iterate without
// the lock; threads registered later are absent, which the callers tolerate
// (sums can only lag).
func (st *stats) snapshotCells() []*statCell {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cells
}

// cellLive sums the per-thread words counters into a current live estimate,
// clamped at zero (a mid-flight snapshot can observe a free before the
// matching alloc on another cell).
func (st *stats) cellLive() uint64 {
	var alloc, freed uint64
	for _, c := range st.snapshotCells() {
		alloc += c.allocWords.Load()
		freed += c.freeWords.Load()
	}
	if freed > alloc {
		return 0
	}
	return alloc - freed
}

// Stats is a point-in-time snapshot of heap and transaction statistics.
type Stats struct {
	// Starts is the number of hardware transaction attempts. It is derived —
	// Starts == Commits + TotalAborts() in every snapshot — because an attempt
	// is counted when it ENDS, by the single counter its outcome bumps. So an
	// attempt still in flight when the snapshot is taken, or one whose body
	// raised a user panic (neither a commit nor an abort), is not in Starts.
	// TLE fallback runs are not hardware attempts; see FallbackRuns.
	Starts uint64
	// Commits is the number of attempts that committed, read-only and writing
	// alike.
	Commits uint64
	// Aborts counts failed attempts by reason.
	Aborts map[AbortCode]uint64
	// FallbackRuns is the number of operations completed on the TLE fallback
	// path, with or without the global lock (Config.GlobalFallback).
	FallbackRuns uint64
	// FallbackLocks counts line lock acquisitions by fallback runs: a
	// GlobalFallback run takes the same line locks under the global lock.
	FallbackLocks uint64
	// FallbackRetries counts fallback attempts that released their whole
	// lock-set and re-ran the operation body — the deadlock-avoidance
	// release-and-retry path, or a body that called Txn.Abort.
	FallbackRetries uint64
	// FallbackWaits counts fallback lock acquisitions that collided with
	// another fallback run's held lock-set (at most one count per
	// acquisition, however long the wait). Unlike FallbackRetries — which
	// only fires on OUT-OF-ORDER collisions — this counts in-order convoying
	// too, so its per-run rate says how shared the fallback footprints are:
	// 0 when they are disjoint, ~1+ when every run queues behind the same
	// words. Each such collision parks the run until the line is released.
	FallbackWaits uint64
	// FallbackStalls counts injected lock-holder stall windows executed on the
	// fallback path (Config.Faults with StallProb > 0); 0 without injection.
	FallbackStalls uint64
	// AllocCalls and FreeCalls count allocator operations.
	AllocCalls, FreeCalls uint64
	// ClockShardTicks counts version-clock ticks issued through threads —
	// commits, fallback commits, allocs and frees. Ticks by threadless NT
	// operations are not counted. At quiescence with no NT writes it equals
	// ClockNow(). It is
	// derived: every write commit, alloc and free ticks exactly once and is
	// already counted, so only the ticks nothing else implies (a fallback
	// run's release, a commit that ticked and then failed validation)
	// carry a counter of their own.
	ClockShardTicks uint64
	// LiveWords is the number of currently allocated payload words;
	// MaxLiveWords is its high-water mark. These drive the paper's
	// space-usage comparisons and are exact in the default configuration.
	// With Config.NoMaxLive both are derived from unsynchronized per-thread
	// counters: exact when snapshotted at quiescence (how the harness uses
	// them), approximate — possibly in either direction — if snapshotted
	// mid-run. Space-measured experiments must not set NoMaxLive.
	LiveWords, MaxLiveWords uint64
}

// SpuriousAborts returns the number of attempts killed by fault injection —
// Aborts[AbortSpurious], named for the overload detectors that watch it.
func (s Stats) SpuriousAborts() uint64 { return s.Aborts[AbortSpurious] }

// TotalAborts returns the sum of aborts across all reasons.
func (s Stats) TotalAborts() uint64 {
	var t uint64
	for _, n := range s.Aborts {
		t += n
	}
	return t
}

// AbortRate returns aborted attempts as a fraction of all attempts, or 0 if
// no attempts were made.
func (s Stats) AbortRate() float64 {
	if s.Starts == 0 {
		return 0
	}
	return float64(s.TotalAborts()) / float64(s.Starts)
}

// String renders the snapshot as a single diagnostic line.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "starts=%d commits=%d aborts=%d (", s.Starts, s.Commits, s.TotalAborts())
	first := true
	for c := AbortConflict; c <= AbortSpurious; c++ {
		if n := s.Aborts[c]; n > 0 {
			if !first {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%d", c, n)
			first = false
		}
	}
	fmt.Fprintf(&b, ") fallback=%d fblocks=%d fbretries=%d fbwaits=%d fbstalls=%d alloc=%d free=%d live=%dw maxLive=%dw clockticks=%d",
		s.FallbackRuns, s.FallbackLocks, s.FallbackRetries, s.FallbackWaits, s.FallbackStalls,
		s.AllocCalls, s.FreeCalls, s.LiveWords, s.MaxLiveWords, s.ClockShardTicks)
	return b.String()
}

// Stats returns a snapshot of the heap's counters, aggregated across all
// per-thread cells. Counters are read without mutual exclusion, so concurrent
// activity may be partially reflected; this is acceptable for the reporting
// the snapshot feeds, and the snapshot is exact at quiescence.
func (h *Heap) Stats() Stats {
	s := Stats{Aborts: make(map[AbortCode]uint64, numAbortCodes)}
	for _, c := range h.stats.snapshotCells() {
		wc := c.writeCommits.Load()
		s.Commits += c.commits.Load() + wc
		s.ClockShardTicks += wc + c.extraTicks.Load()
		s.FallbackRuns += c.fallbackRuns.Load()
		s.FallbackLocks += c.fallbackLocks.Load()
		s.FallbackRetries += c.fallbackRetries.Load()
		s.FallbackWaits += c.fallbackWaits.Load()
		s.FallbackStalls += c.fallbackStalls.Load()
		s.AllocCalls += c.allocCalls.Load()
		s.FreeCalls += c.freeCalls.Load()
		for code := 1; code < numAbortCodes; code++ {
			if n := c.aborts[code].Load(); n > 0 {
				s.Aborts[AbortCode(code)] += n
				s.Starts += n
			}
		}
	}
	s.Starts += s.Commits
	s.ClockShardTicks += s.AllocCalls + s.FreeCalls
	if h.cfg.trackMaxLive {
		s.LiveWords = h.stats.liveWords.Load()
		s.MaxLiveWords = h.stats.maxLiveWords.Load()
		return s
	}
	live := h.stats.cellLive()
	s.LiveWords = live
	for {
		m := h.stats.maxLiveWords.Load()
		if live <= m || h.stats.maxLiveWords.CompareAndSwap(m, live) {
			break
		}
	}
	s.MaxLiveWords = h.stats.maxLiveWords.Load()
	return s
}
