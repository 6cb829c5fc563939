package queue

import (
	"repro/htm"
)

// HTMQueue descriptor layout.
const (
	hqHead = iota
	hqTail
	hqDescWords
)

// HTMQueue is the paper's HTM-based FIFO (§1.1): each operation is plain
// sequential linked-list code wrapped in one transaction. A successful
// dequeue frees the dequeued node's memory immediately — no committed state
// references it, and any concurrent transaction that still tries to use it is
// guaranteed to abort (sandboxing). There is no ABA problem and none of the
// Michael-Scott race cases exist, which is the paper's simplicity argument:
// compare this file with msqueue.go.
type HTMQueue struct {
	h    *htm.Heap
	desc htm.Addr
}

var _ Queue = (*HTMQueue)(nil)

// NewHTMQueue allocates an empty queue on h.
func NewHTMQueue(h *htm.Heap) *HTMQueue {
	th := h.NewThread()
	return &HTMQueue{h: h, desc: th.Alloc(hqDescWords)}
}

// Name implements Queue.
func (q *HTMQueue) Name() string { return "HTM" }

// NewCtx implements Queue.
func (q *HTMQueue) NewCtx(th *htm.Thread) *Ctx { return &Ctx{th: th} }

// Enqueue implements Queue. The node is allocated — already holding v —
// outside the transaction (Rock cannot run malloc inside one); it stays
// private until the transaction that publishes it commits, so aborted
// attempts simply retry with the same node.
func (q *HTMQueue) Enqueue(c *Ctx, v uint64) {
	n := newNode(c.th, v)
	c.th.Atomic(func(t *htm.Txn) {
		tail := htm.Addr(t.Load(q.desc + hqTail))
		if tail == htm.NilAddr {
			t.Store(q.desc+hqHead, uint64(n))
		} else {
			t.Store(tail+qNext, uint64(n))
		}
		t.Store(q.desc+hqTail, uint64(n))
	})
}

// Dequeue implements Queue, freeing the dequeued entry to the allocator the
// moment the transaction commits.
func (q *HTMQueue) Dequeue(c *Ctx) (uint64, bool) {
	var v uint64
	ok := false
	c.th.Atomic(func(t *htm.Txn) {
		ok = false
		head := htm.Addr(t.Load(q.desc + hqHead))
		if head == htm.NilAddr {
			return
		}
		v = t.Load(head + qVal)
		next := t.Load(head + qNext)
		t.Store(q.desc+hqHead, next)
		if next == uint64(htm.NilAddr) {
			t.Store(q.desc+hqTail, 0)
		}
		t.FreeOnCommit(head)
		ok = true
	})
	return v, ok
}

// Len walks the queue transactionally and returns its length (diagnostic).
func (q *HTMQueue) Len(c *Ctx) int {
	n := 0
	c.th.Atomic(func(t *htm.Txn) {
		n = 0
		for p := htm.Addr(t.Load(q.desc + hqHead)); p != htm.NilAddr; p = htm.Addr(t.Load(p + qNext)) {
			n++
		}
	})
	return n
}
