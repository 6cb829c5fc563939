package core

import (
	"repro/htm"
)

// FastCollect node layout: value and doubly-linked list pointers. No
// reference counts — Collect relies on the deregister counter for safety.
const (
	fVal = iota
	fNext
	fPrev
	fcNodeWords
)

// Descriptor layout for FastCollect: head pointer and the shared deregister
// counter dc.
const (
	fcHead = iota
	fcDC
	fcDescWords
)

// FastCollect (§3.1.2) improves on HOHRC's Collect for workloads with
// infrequent Deregisters: it drops the per-node reference counts and instead
// keeps a shared deregister counter. Deregister atomically unlinks the node
// and increments the counter, freeing the node immediately afterwards.
// Collect reads the counter in every transaction and restarts from the head
// whenever it changed. If a Collect holds a pointer to a node freed in the
// meantime, its next transaction either observes the changed counter and
// restarts, or dereferences the freed node first and is sandboxed into a
// clean abort — a direct reliance on the HTM property the paper calls out.
//
// The known weakness is that frequent Deregisters can starve Collects
// (measured in Figure 7).
type FastCollect struct {
	h    *htm.Heap
	desc htm.Addr
	opts Options
}

var _ Collector = (*FastCollect)(nil)

// NewFastCollect allocates the collect object on h.
func NewFastCollect(h *htm.Heap, opts Options) *FastCollect {
	th := h.NewThread()
	return &FastCollect{h: h, desc: th.Alloc(fcDescWords), opts: opts.normalize(h)}
}

// Name implements Collector.
func (l *FastCollect) Name() string { return "List Fast Collect" }

// NewCtx implements Collector.
func (l *FastCollect) NewCtx(th *htm.Thread) *Ctx { return newCtx(th, l.opts) }

// Register implements Collector: splice a pre-allocated node in at the head.
func (l *FastCollect) Register(c *Ctx, v Value) Handle {
	img := [fcNodeWords]uint64{fVal: v}
	n := c.th.AllocInit(img[:]) // filled while private
	c.th.Atomic(func(t *htm.Txn) {
		first := htm.Addr(t.Load(l.desc + fcHead))
		t.Store(n+fNext, uint64(first))
		t.Store(n+fPrev, 0)
		if first != htm.NilAddr {
			t.Store(first+fPrev, uint64(n))
		}
		t.Store(l.desc+fcHead, uint64(n))
	})
	return Handle(n)
}

// Update implements Collector: naked store — handle storage never moves.
func (l *FastCollect) Update(c *Ctx, h Handle, v Value) {
	c.th.Heap().StoreNT(htm.Addr(h)+fVal, v)
}

// Deregister implements Collector: atomically unlink the node and bump the
// deregister counter, then free the node immediately.
func (l *FastCollect) Deregister(c *Ctx, h Handle) {
	n := htm.Addr(h)
	c.th.Atomic(func(t *htm.Txn) {
		prev := htm.Addr(t.Load(n + fPrev))
		next := htm.Addr(t.Load(n + fNext))
		if prev == htm.NilAddr {
			t.Store(l.desc+fcHead, uint64(next))
		} else {
			t.Store(prev+fNext, uint64(next))
		}
		if next != htm.NilAddr {
			t.Store(next+fPrev, uint64(prev))
		}
		t.Add(l.desc+fcDC, 1)
		t.FreeOnCommit(n)
	})
}

// Collect implements Collector with telescoping: each transaction
// re-validates the deregister counter and walks up to `step` nodes. Any
// change of the counter restarts the whole Collect from the head.
func (l *FastCollect) Collect(c *Ctx, out []Value) []Value {
	h := c.th.Heap()
	dcStart := h.LoadNT(l.desc + fcDC)
	return c.telescope(out, uint64(htm.NilAddr), unbounded, func(t *htm.Txn, step int, at uint64) (uint64, walkEnd) {
		if t.Load(l.desc+fcDC) != dcStart {
			return at, walkStale
		}
		return walkList(t, c, step, l.desc+fcHead, htm.Addr(at))
	}, func(error) bool {
		// A changed counter means a node the walk holds may be freed: restart.
		dc := dcStart
		dcStart = h.LoadNT(l.desc + fcDC)
		return dcStart != dc
	})
}

// walkList is the step of a walk along FastCollect's node layout: from the
// node at (NilAddr: the head word), gather the values of up to step nodes,
// and return the last node gathered.
func walkList(t *htm.Txn, c *Ctx, step int, head, at htm.Addr) (uint64, walkEnd) {
	var p htm.Addr
	if at == htm.NilAddr {
		p = htm.Addr(t.Load(head))
	} else {
		p = htm.Addr(t.Load(at + fNext))
	}
	got, end := 0, walkOn
	for got < step {
		if p == htm.NilAddr {
			end = walkDone
			break
		}
		c.buf[got] = t.Load(p + fVal)
		if got++; got < step {
			p = htm.Addr(t.Load(p + fNext))
		}
	}
	c.stage(t, got)
	return uint64(p), end
}
