package htm

import "runtime"

// The runtime TLE fallback mode and the quiesce barrier that makes it safe to
// change under full concurrent load. Every EnableTLE heap dispatches its
// fallback through this one mechanism; Config.GlobalFallback only seeds the
// mode word.
//
// The global-lock fallback is correct only while it is mutually exclusive
// with every hardware commit write-back and every fine-grained fallback run,
// and the mode word can change an instant after a thread read it. So
// SetFallbackMode is a plain store, and the exclusion is decentralized into a
// Dekker-style barrier at the three entry points, built from one epoch word
// (Heap.fallbackSeq, odd while a global critical section is in flight) and
// two per-thread flag words in each thread's statCell (inCommit, inFine):
//
//   - A hardware attempt's begin waits until fallbackSeq is even and
//     snapshots it; extend() and commit revalidate the snapshot. A write
//     commit publishes inCommit=1 BEFORE revalidating and clears it once its
//     write-back is released — so a commit either observes the section and
//     aborts, or is observed by the acquirer and waited out (both sides
//     store-then-load, so at least one sees the other).
//   - A fine-grained fallback attempt publishes inFine=1, THEN loads the mode
//     word and fallbackSeq: if the mode is global it clears the flag and takes
//     the global path; if a global section is in flight (odd seq) it clears
//     the flag, yields, and re-enters. The flag stays set while the attempt
//     holds line locks and is cleared only after the lock-set is released.
//   - A global fallback acquirer takes fallbackMu, bumps fallbackSeq odd, and
//     then waits until every registered cell shows inCommit==0 and inFine==0.
//     Threads created after the scan snapshot self-exclude: they observe the
//     odd seq at begin / fallback entry. Once the scan drains, no commit
//     write-back and no fallback lock-set is live anywhere.
//
// Every wait above is on a condition some running thread clears in bounded
// work (commit write-backs never block; fine attempts hold locks only for the
// body plus a bounded write-back, and abandon in-order waits once a global
// section is pending; the global section is one body), so the fallback stays
// a termination guarantee in either mode and across any sequence of switches.
// A heap without EnableTLE runs none of this: its hardware attempts never load
// fallbackSeq and never touch the flag words. See DESIGN.md "Adaptive
// contention management" for the full argument.

// FallbackMode identifies which TLE fallback path operations engage.
type FallbackMode uint32

const (
	// ModeFine is the default fine-grained per-line lock-set fallback.
	ModeFine FallbackMode = iota
	// ModeGlobal is the paper's §6 single global fallback lock.
	ModeGlobal
)

func (m FallbackMode) String() string {
	switch m {
	case ModeFine:
		return "fine"
	case ModeGlobal:
		return "global"
	default:
		return "invalid"
	}
}

// FallbackMode returns the fallback mode operations currently engage.
func (h *Heap) FallbackMode() FallbackMode { return FallbackMode(h.fbMode.Load()) }

// requireTLE panics unless the heap has a fallback for the named runtime
// control to act on.
func (h *Heap) requireTLE(what string) {
	if !h.cfg.EnableTLE {
		panic("htm: " + what + " requires Config.EnableTLE")
	}
}

// SetFallbackMode switches the TLE fallback mode at runtime. The switch is a
// plain store: in-flight operations finish on the path they entered (the
// quiesce barrier in runGlobalFallback keeps the two paths mutually
// exclusive regardless), and subsequent fallback entries take the new mode.
// Requires Config.EnableTLE.
func (h *Heap) SetFallbackMode(m FallbackMode) {
	h.requireTLE("SetFallbackMode")
	if m != ModeFine && m != ModeGlobal {
		panic("htm: SetFallbackMode: invalid mode")
	}
	if FallbackMode(h.fbMode.Swap(uint32(m))) != m {
		h.modeSwitches.Add(1)
	}
}

// ModeSwitches returns the number of fallback-mode changes applied through
// SetFallbackMode.
func (h *Heap) ModeSwitches() uint64 { return h.modeSwitches.Load() }

// FallbackSpins returns the live out-of-order try-lock bound (see
// Config.FallbackSpins).
func (h *Heap) FallbackSpins() int { return int(h.fbSpins.Load()) }

// SetFallbackSpins overrides the FallbackSpins knob at runtime (clamped to
// ≥ 0; 0 releases-and-retries immediately on any out-of-order collision).
// Fine-grained fallback attempts pick the new value up as they start.
// Requires Config.EnableTLE.
func (h *Heap) SetFallbackSpins(v int) {
	h.requireTLE("SetFallbackSpins")
	if v < 0 {
		v = 0
	}
	h.fbSpins.Store(int64(v))
}

// enterFineFallback publishes this thread's intent to run a fine-grained
// fallback (inFine=1) and then consults the mode word and the global
// fallback epoch; it returns true once the thread may proceed on the fine
// path — the caller must clear inFine after releasing its lock-set — and
// false if the mode word directs it to the global path (inFine already
// cleared). The store-then-load order against runGlobalFallback's
// bump-then-scan is the Dekker pairing that makes the two paths mutually
// exclusive: whichever side's store lands second sees the other side's.
func (th *Thread) enterFineFallback() bool {
	h := th.h
	for {
		// Cheap pre-check: in steady global mode, return without ever touching
		// inFine — a transient inFine=1 here would make every concurrent global
		// acquirer's quiesce scan yield for nothing. The authoritative re-check
		// below (after publishing) is what the Dekker argument relies on; this
		// one is purely an optimization.
		if FallbackMode(h.fbMode.Load()) == ModeGlobal {
			return false
		}
		th.cell.inFine.Store(1)
		if FallbackMode(h.fbMode.Load()) == ModeGlobal {
			th.cell.inFine.Store(0)
			return false
		}
		if h.fallbackSeq.Load()&1 == 0 {
			return true
		}
		// A global critical section is in flight (or draining us out of its
		// way): step aside, then re-check the mode — the section may well have
		// been the global path of the mode we are about to re-read.
		th.cell.inFine.Store(0)
		runtime.Gosched()
	}
}

// quiesceForGlobal is the global fallback acquirer's half of the barrier:
// with fallbackSeq already odd, wait until no registered thread has a
// hardware commit write-back (inCommit) or a fine-grained fallback run
// (inFine) in flight. Threads registered after the snapshot self-exclude by
// observing the odd seq at begin / fallback entry, so the snapshot is a
// complete list of threats. Every flag is cleared in bounded work by its
// owner, so the wait terminates.
func (h *Heap) quiesceForGlobal(self *statCell) {
	for _, c := range h.stats.snapshotCells() {
		if c == self {
			continue
		}
		for c.inCommit.Load() != 0 || c.inFine.Load() != 0 {
			runtime.Gosched()
		}
	}
}
