package queue

import (
	"repro/htm"
	"repro/internal/hazard"
)

// MSQueueROP is the Michael-Scott queue with hazard-pointer (ROP)
// reclamation (Michael [14], Herlihy et al. [10]): dequeued nodes are retired
// and truly freed once no thread announces them. Compared with the pool
// variant this reclaims memory, at the price of announce/validate traffic on
// every operation plus periodic scans over every thread's announcements —
// the 35–75% overhead of Figure 1.
//
// Hazard pointers guarantee a protected node is not freed, so freed memory is
// never recycled under a protected reference and untagged pointers are
// ABA-safe here (a node's address cannot be reused while any thread might
// still CAS against it).
type MSQueueROP struct {
	h    *htm.Heap
	desc htm.Addr
	dom  *hazard.Domain
}

var _ Queue = (*MSQueueROP)(nil)

type ropPriv struct {
	rec *hazard.Record
}

// NewMSQueueROP allocates an empty queue (one dummy node) and its reclamation
// domain on h.
func NewMSQueueROP(h *htm.Heap) *MSQueueROP {
	th := h.NewThread()
	q := &MSQueueROP{h: h, desc: th.Alloc(msDescWords), dom: hazard.NewDomain(h, 2)}
	dummy := th.Alloc(qNodeWords)
	h.StoreNT(q.desc+msHead, uint64(dummy))
	h.StoreNT(q.desc+msTail, uint64(dummy))
	return q
}

// Name implements Queue.
func (q *MSQueueROP) Name() string { return "Michael-Scott ROP" }

// NewCtx implements Queue, acquiring a hazard record for the thread.
func (q *MSQueueROP) NewCtx(th *htm.Thread) *Ctx {
	return &Ctx{th: th, priv: &ropPriv{rec: q.dom.Acquire(th)}}
}

// CloseCtx releases the context's hazard record, draining its retirement
// backlog. Call when the thread is done with the queue.
func (q *MSQueueROP) CloseCtx(c *Ctx) {
	c.priv.(*ropPriv).rec.Release()
}

// Enqueue implements Queue. The tail node must be protected before its next
// pointer is dereferenced: unlike the pool variant, an unprotected node may
// be freed memory.
func (q *MSQueueROP) Enqueue(c *Ctx, v uint64) {
	h := c.th.Heap()
	rec := c.priv.(*ropPriv).rec
	n := newNode(c.th, v)
	for {
		tail := htm.Addr(h.LoadNT(q.desc + msTail))
		rec.Protect(0, tail)
		if htm.Addr(h.LoadNT(q.desc+msTail)) != tail {
			continue // tail moved before the announcement took effect
		}
		next := htm.Addr(h.LoadNT(tail + qNext))
		if htm.Addr(h.LoadNT(q.desc+msTail)) != tail {
			continue
		}
		if next == htm.NilAddr {
			if h.CASNT(tail+qNext, 0, uint64(n)) {
				h.CASNT(q.desc+msTail, uint64(tail), uint64(n))
				rec.ClearSlot(0)
				return
			}
		} else {
			h.CASNT(q.desc+msTail, uint64(tail), uint64(next))
		}
	}
}

// Dequeue implements Queue: protect the head, then the successor, with
// re-validation after each announcement (Michael's published protocol), then
// swing the head and retire the old dummy.
func (q *MSQueueROP) Dequeue(c *Ctx) (uint64, bool) {
	h := c.th.Heap()
	rec := c.priv.(*ropPriv).rec
	for {
		head := htm.Addr(h.LoadNT(q.desc + msHead))
		rec.Protect(0, head)
		if htm.Addr(h.LoadNT(q.desc+msHead)) != head {
			continue
		}
		tail := htm.Addr(h.LoadNT(q.desc + msTail))
		next := htm.Addr(h.LoadNT(head + qNext)) // safe: head is protected
		if htm.Addr(h.LoadNT(q.desc+msHead)) != head {
			continue
		}
		if next == htm.NilAddr {
			rec.ClearSlot(0)
			return 0, false
		}
		rec.Protect(1, next)
		if htm.Addr(h.LoadNT(q.desc+msHead)) != head {
			continue // head moved: next may already be retired
		}
		if head == tail {
			h.CASNT(q.desc+msTail, uint64(tail), uint64(next))
			continue
		}
		v := h.LoadNT(next + qVal) // safe: next is protected
		if h.CASNT(q.desc+msHead, uint64(head), uint64(next)) {
			rec.ClearSlot(0)
			rec.ClearSlot(1)
			rec.Retire(head)
			return v, true
		}
	}
}
