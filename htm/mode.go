package htm

// The runtime TLE fallback mode. Every EnableTLE heap dispatches its fallback
// through the one mode word; Config.GlobalFallback only seeds it.
//
// Both modes run the same pessimistic engine (runFallback): the body locks
// the line of every word it touches, buffers its stores, and the commit
// writes them back under the locks, ticks the clock once and releases. Line
// locks alone therefore exclude a fallback run from every hardware commit,
// every NT operation, every free and every other fallback run, in either
// mode. ModeGlobal adds the paper's §6 global lock on top: each attempt runs
// holding Heap.fallbackMu with Heap.fallbackSeq odd, so global runs are
// serialized, hardware attempts wait at begin while one is in flight, and
// extend() and commit abort with AbortFallback if the epoch moved under them.
// That subscription models Rock's elided lock; no safety argument rests on
// it.
//
// So SetFallbackMode is a plain store. A run that read the old mode word
// finishes under the old mode's rule, and a fine run and a global run that
// overlap after a switch meet only at line locks, where the ordered
// acquisition and release-and-retry protocol of fbAcquire keeps them
// deadlock-free as it does two fine runs. A heap without EnableTLE runs none
// of this: its hardware attempts never load fallbackSeq. See DESIGN.md
// "Adaptive contention management".

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
// plain store: an in-flight fallback attempt finishes under the mode it read
// (line locks exclude it from everything else either way), and every later
// attempt — including a retry of an operation already in the fallback —
// takes the new mode. Requires Config.EnableTLE.
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
