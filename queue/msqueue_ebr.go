package queue

import (
	"repro/htm"
	"repro/internal/epoch"
)

// MSQueueEBR is the Michael-Scott queue with epoch-based reclamation
// (Fraser [2004]): each operation pins the global epoch once on entry and
// unpins on exit, and dequeued nodes are retired into a limbo list that is
// freed two epoch advances later. Compared with the ROP variant there is no
// per-load announce/validate — traversal inside the pinned region uses plain
// loads — so the per-operation overhead is one announcement total, at the
// price of reclamation stalling whenever any thread parks inside a pinned
// region. This is the third standard point in the reclamation design space
// between "pool and never free" (MSQueue) and "announce every load"
// (MSQueueROP).
//
// A pinned epoch guarantees a reachable node is neither freed nor reused, so
// untagged pointers are ABA-safe here for the same reason as in the ROP
// variant: a retired node's address cannot be re-allocated while any thread
// that might still CAS against it remains pinned.
type MSQueueEBR struct {
	h    *htm.Heap
	desc htm.Addr
	dom  *epoch.Domain
}

var _ Queue = (*MSQueueEBR)(nil)
var _ CtxCloser = (*MSQueueEBR)(nil)

type ebrPriv struct {
	rec *epoch.Record
}

// NewMSQueueEBR allocates an empty queue (one dummy node) and its
// reclamation domain on h.
func NewMSQueueEBR(h *htm.Heap) *MSQueueEBR {
	th := h.NewThread()
	q := &MSQueueEBR{h: h, desc: th.Alloc(msDescWords), dom: epoch.NewDomain(h)}
	dummy := th.Alloc(qNodeWords)
	h.StoreNT(q.desc+msHead, uint64(dummy))
	h.StoreNT(q.desc+msTail, uint64(dummy))
	return q
}

// Name implements Queue.
func (q *MSQueueEBR) Name() string { return "Michael-Scott EBR" }

// NewCtx implements Queue, acquiring an epoch record for the thread.
func (q *MSQueueEBR) NewCtx(th *htm.Thread) *Ctx {
	return &Ctx{th: th, priv: &ebrPriv{rec: q.dom.Acquire(th)}}
}

// CloseCtx releases the context's epoch record, draining its limbo backlog.
// Call when the thread is done with the queue.
func (q *MSQueueEBR) CloseCtx(c *Ctx) {
	c.priv.(*ebrPriv).rec.Release()
}

// Enqueue implements Queue. The whole retry loop runs inside one pinned
// region: the tail node cannot be freed while we are pinned, so its next
// pointer can be dereferenced with a plain load, with no announcement per
// read.
func (q *MSQueueEBR) Enqueue(c *Ctx, v uint64) {
	h := c.th.Heap()
	rec := c.priv.(*ebrPriv).rec
	n := newNode(c.th, v)
	rec.Pin()
	for {
		tail := htm.Addr(h.LoadNT(q.desc + msTail))
		next := htm.Addr(h.LoadNT(tail + qNext)) // safe: pinned
		if htm.Addr(h.LoadNT(q.desc+msTail)) != tail {
			continue
		}
		if next == htm.NilAddr {
			if h.CASNT(tail+qNext, 0, uint64(n)) {
				h.CASNT(q.desc+msTail, uint64(tail), uint64(n))
				rec.Unpin()
				return
			}
		} else {
			h.CASNT(q.desc+msTail, uint64(tail), uint64(next))
		}
	}
}

// Dequeue implements Queue: the standard Michael-Scott dequeue under a
// single pinned region, retiring the old dummy node into the limbo list
// after the head swings.
func (q *MSQueueEBR) Dequeue(c *Ctx) (uint64, bool) {
	h := c.th.Heap()
	rec := c.priv.(*ebrPriv).rec
	rec.Pin()
	for {
		head := htm.Addr(h.LoadNT(q.desc + msHead))
		tail := htm.Addr(h.LoadNT(q.desc + msTail))
		next := htm.Addr(h.LoadNT(head + qNext)) // safe: pinned
		if htm.Addr(h.LoadNT(q.desc+msHead)) != head {
			continue
		}
		if next == htm.NilAddr {
			rec.Unpin()
			return 0, false
		}
		if head == tail {
			h.CASNT(q.desc+msTail, uint64(tail), uint64(next))
			continue
		}
		v := h.LoadNT(next + qVal) // safe: pinned
		if h.CASNT(q.desc+msHead, uint64(head), uint64(next)) {
			rec.Retire(head)
			rec.Unpin()
			return v, true
		}
	}
}
