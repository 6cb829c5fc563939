// Package htm provides a software-simulated hardware transactional memory
// (HTM) over a simulated word-addressable heap.
//
// The package reproduces the programming model of Sun's Rock prototype HTM as
// used by Dragojević, Herlihy, Lev and Moir ("On the power of hardware
// transactional memory to simplify memory management", PODC 2011):
//
//   - Best-effort bounded transactions: a transaction may abort at any time
//     and reports a failure reason. The number of distinct words written by a
//     transaction is limited by Config.StoreBufferSize (32 on Rock); exceeding
//     it aborts the transaction with AbortOverflow.
//   - Sandboxing: a transaction that dereferences freed memory aborts with
//     AbortIllegal instead of crashing the program (Rock paper, footnote 1).
//   - Strong atomicity: non-transactional loads, stores and CAS operations
//     (Heap.LoadNT, Heap.StoreNT, Heap.CASNT) interoperate correctly with
//     concurrent transactions.
//   - Transactional lock elision (TLE) fallback: optionally, a transaction
//     that fails repeatedly is executed on a pessimistic software path. By
//     default that path acquires the per-word metadata locks of exactly the
//     words it touches, so disjoint fallback operations and unrelated
//     hardware transactions proceed concurrently; the heap's runtime mode
//     word (Config.GlobalFallback, Heap.SetFallbackMode) selects the paper's
//     single global fallback lock that all transactions monitor instead (§6).
//
// Internally the engine is a TL2/TinySTM-style software TM: a global version
// clock, one metadata word per heap word fusing the versioned lock with the
// allocation state, lazy write buffering, commit-time locking, and
// incremental read-set revalidation with timestamp extension so that
// transactions abort only on true word-level conflicts — matching the
// conflict behaviour of a real HTM much more closely than plain TL2 would.
//
// Heap memory is an arena of 64-bit words addressed by Addr. Each word's
// metadata carries an allocated bit whose transitions are version bumps, so
// use-after-free is detectable by the same single-word check that validates
// reads — which is what makes the paper's central claim ("a dequeue can free
// its node to the operating system; racing transactions abort rather than
// crash") observable inside a Go process. See DESIGN.md "Per-word metadata".
package htm

import (
	"fmt"
)

// Addr is the address of a 64-bit word in a simulated Heap. The zero value is
// the nil address and is never returned by an allocation.
type Addr uint32

// NilAddr is the nil heap address. Loads and stores through NilAddr abort the
// surrounding transaction (or panic outside one).
const NilAddr Addr = 0

// AbortCode identifies why a transaction attempt failed, mirroring the
// failure feedback provided by Rock's HTM (paper §6).
type AbortCode uint8

// Abort reasons.
const (
	// AbortConflict indicates a data conflict with a concurrent transaction
	// or non-transactional access.
	AbortConflict AbortCode = iota + 1
	// AbortOverflow indicates the transaction attempted to write more
	// distinct words than the simulated store buffer holds.
	AbortOverflow
	// AbortIllegal indicates the transaction dereferenced freed or nil
	// memory and was sandboxed.
	AbortIllegal
	// AbortExplicit indicates the transaction called Txn.Abort.
	AbortExplicit
	// AbortFallback indicates the transaction observed the global TLE
	// fallback lock held (or acquired during its execution) and must wait.
	// Produced only by a ModeGlobal fallback run: the fine-grained fallback
	// holds per-word metadata locks, so a transaction
	// that collides with it aborts with AbortConflict on the contended word,
	// and transactions on disjoint words are unaffected.
	AbortFallback
	// AbortCapacity indicates the transaction exceeded the configured read
	// set capacity (Config.MaxReadSet).
	AbortCapacity
	// AbortSpurious indicates the attempt was killed by the seeded
	// fault-injection plan (Config.Faults), modeling Rock's environmental
	// aborts — interrupts, TLB misses, cache displacement — which carry no
	// information about the transaction's own behaviour. Spurious aborts are
	// produced only by fault injection, never by the engine itself, and only
	// on the hardware path: the software fallback, like Rock's, is immune.
	AbortSpurious
)

// String returns a short human-readable name for the abort code.
func (c AbortCode) String() string {
	switch c {
	case AbortConflict:
		return "conflict"
	case AbortOverflow:
		return "overflow"
	case AbortIllegal:
		return "illegal-access"
	case AbortExplicit:
		return "explicit"
	case AbortFallback:
		return "fallback-lock"
	case AbortCapacity:
		return "read-capacity"
	case AbortSpurious:
		return "spurious"
	default:
		return fmt.Sprintf("abort(%d)", uint8(c))
	}
}

// AbortError reports a failed transaction attempt.
type AbortError struct {
	// Code is the reason for the abort.
	Code AbortCode
	// Addr is the word involved, when meaningful (conflicts and illegal
	// accesses); NilAddr otherwise.
	Addr Addr
}

// Error implements the error interface.
func (e *AbortError) Error() string {
	if e.Addr != NilAddr {
		return fmt.Sprintf("htm: transaction aborted: %s at %#x", e.Code, uint32(e.Addr))
	}
	return "htm: transaction aborted: " + e.Code.String()
}

// Is reports whether target is an *AbortError with the same code, enabling
// errors.Is comparisons against sentinel values.
func (e *AbortError) Is(target error) bool {
	t, ok := target.(*AbortError)
	return ok && t.Code == e.Code
}
