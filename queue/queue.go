// Package queue implements the paper's motivating example (§1.1, Figure 1):
// four concurrent FIFO queues on the simulated heap.
//
//   - HTMQueue: simple sequential code inside hardware transactions. A
//     dequeue frees its node immediately; a racing transaction that still
//     holds a reference aborts via sandboxing instead of crashing. This is
//     the "reasonable homework exercise" algorithm.
//   - MSQueue: the Michael-Scott lock-free queue with per-thread node pools.
//     Nodes are recycled but never freed, so quiescent memory is proportional
//     to the historical maximum queue size, and counted (tagged) pointers are
//     needed against ABA.
//   - MSQueueROP: the Michael-Scott queue with hazard-pointer (ROP)
//     reclamation, which can truly free nodes at the cost of
//     announce/validate/scan overhead on every operation.
//   - MSQueueEBR: the Michael-Scott queue with epoch-based reclamation, which
//     also truly frees nodes, paying one epoch announcement per operation
//     instead of one per load — but stalling all reclamation while any
//     thread stays pinned.
//
// All four share a Queue interface over per-thread contexts.
package queue

import (
	"repro/htm"
)

// Node layout shared by all queues: a value and a next pointer (the MS
// queues pack a modification tag into the next word's high bits).
const (
	qVal = iota
	qNext
	qNodeWords
)

// newNode allocates a node holding v with a nil next pointer. The image is
// built on the stack and written by the allocation itself (htm.AllocInit), so
// a fresh node — which no other thread can see yet — costs no store beyond
// its allocation. The pooled MSQueue recycles nodes and fills them in place.
func newNode(th *htm.Thread, v uint64) htm.Addr {
	img := [qNodeWords]uint64{qVal: v}
	return th.AllocInit(img[:])
}

// Queue is a concurrent FIFO of word-sized values.
type Queue interface {
	// Name returns the implementation's name as used in Figure 1.
	Name() string
	// NewCtx creates a per-goroutine execution context.
	NewCtx(th *htm.Thread) *Ctx
	// Enqueue appends v.
	Enqueue(c *Ctx, v uint64)
	// Dequeue removes and returns the head value; ok is false when empty.
	Dequeue(c *Ctx) (v uint64, ok bool)
}

// CtxCloser is implemented by queues whose contexts hold reclamation state
// (a hazard record, an epoch record) that must be released when the thread
// is done. Queues without such state need no CloseCtx.
type CtxCloser interface {
	CloseCtx(c *Ctx)
}

// CloseCtx releases c's reclamation state if q holds any; it is safe to call
// on every queue implementation.
func CloseCtx(q Queue, c *Ctx) {
	if cc, ok := q.(CtxCloser); ok {
		cc.CloseCtx(c)
	}
}

// Ctx is a per-thread queue context (htm thread, node pool, hazard record or
// epoch record).
type Ctx struct {
	th   *htm.Thread
	priv any
}

// Thread returns the underlying htm thread.
func (c *Ctx) Thread() *htm.Thread { return c.th }

// DrainLimit caps Drain. It is far above any queue size the tests and
// benchmarks build, so hitting it means another goroutine is racing Drain
// with enqueues.
const DrainLimit = 1 << 20

// Drain dequeues until empty and returns the values (test helper). Under
// concurrent producers an "until empty" loop need never terminate, so Drain
// stops after DrainLimit dequeues; use DrainN to pick the bound.
func Drain(q Queue, c *Ctx) []uint64 {
	return DrainN(q, c, DrainLimit)
}

// DrainN dequeues until the queue reports empty or max values have been
// taken, and returns the values.
func DrainN(q Queue, c *Ctx, max int) []uint64 {
	var out []uint64
	for len(out) < max {
		v, ok := q.Dequeue(c)
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}

// DrainCount dequeues until the queue reports empty or max values have been
// taken, discarding the values and returning how many were taken — for
// callers that drain purely for the side effect (space measurements).
func DrainCount(q Queue, c *Ctx, max int) int {
	n := 0
	for n < max {
		if _, ok := q.Dequeue(c); !ok {
			break
		}
		n++
	}
	return n
}
