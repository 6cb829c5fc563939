package core

import (
	"repro/htm"
)

// Deferred-free FastCollect node layout: FastCollect's, so both walk with
// walkList, plus a separate link for the to-be-freed list (a node's own
// next/prev are never modified after unlinking, so stranded traversers can
// keep walking through it).
const (
	fdVal       = fVal
	fdNext      = fNext
	fdPrev      = fPrev
	fdTbf       = fcNodeWords
	fdNodeWords = fdTbf + 1
)

// Descriptor layout: head pointer, to-be-freed list head, and a count of
// Collects in progress.
const (
	fdHead = iota
	fdTbfHead
	fdActive
	fdDescWords
)

// FastCollectDeferredFree implements the remedy §3.1.2 sketches for
// FastCollect's starvation problem: "adding a mode in which DeRegister
// operations add nodes to a to-be-freed list that is freed by a Collect
// operation after it completes."
//
// Deregister unlinks the node but does not free it, and leaves the node's own
// outgoing pointers untouched. A Collect that is standing on a just-unlinked
// node can therefore simply keep walking — every stably registered node
// remains reachable through the unlinked node's preserved next pointer (the
// Harris-list argument) — so Collect needs neither reference counts nor the
// restart-on-deregister protocol, and concurrent Deregisters cannot starve
// it.
//
// Unlinked nodes go on a to-be-freed list. After a Collect finishes it tries
// to drain that list; the drain is taken only when no Collect is in progress
// (a conservative quiescence check via a shared active counter), because only
// Collects that began before a node was unlinked can still hold a pointer to
// it. Under continuous Collect activity reclamation is deferred — the
// space/progress trade the paper describes.
type FastCollectDeferredFree struct {
	h    *htm.Heap
	desc htm.Addr
	opts Options
}

var _ Collector = (*FastCollectDeferredFree)(nil)

// NewFastCollectDeferredFree allocates the collect object on h.
func NewFastCollectDeferredFree(h *htm.Heap, opts Options) *FastCollectDeferredFree {
	th := h.NewThread()
	return &FastCollectDeferredFree{h: h, desc: th.Alloc(fdDescWords), opts: opts.normalize(h)}
}

// Name implements Collector.
func (l *FastCollectDeferredFree) Name() string { return "List Fast Collect (deferred free)" }

// NewCtx implements Collector.
func (l *FastCollectDeferredFree) NewCtx(th *htm.Thread) *Ctx { return newCtx(th, l.opts) }

// Register implements Collector: splice a pre-allocated node in at the head.
func (l *FastCollectDeferredFree) Register(c *Ctx, v Value) Handle {
	img := [fdNodeWords]uint64{fdVal: v}
	n := c.th.AllocInit(img[:]) // filled while private
	c.th.Atomic(func(t *htm.Txn) {
		first := htm.Addr(t.Load(l.desc + fdHead))
		t.Store(n+fdNext, uint64(first))
		t.Store(n+fdPrev, 0)
		if first != htm.NilAddr {
			t.Store(first+fdPrev, uint64(n))
		}
		t.Store(l.desc+fdHead, uint64(n))
	})
	return Handle(n)
}

// Update implements Collector: naked store — handle storage never moves.
func (l *FastCollectDeferredFree) Update(c *Ctx, h Handle, v Value) {
	c.th.Heap().StoreNT(htm.Addr(h)+fdVal, v)
}

// Deregister implements Collector: unlink the node — touching only its
// neighbours, never its own links — and push it onto the to-be-freed list.
func (l *FastCollectDeferredFree) Deregister(c *Ctx, h Handle) {
	n := htm.Addr(h)
	c.th.Atomic(func(t *htm.Txn) {
		prev := htm.Addr(t.Load(n + fdPrev))
		next := htm.Addr(t.Load(n + fdNext))
		if prev == htm.NilAddr {
			// Only unlink from the head if we are still the head: a stranded
			// prev pointer of an already-bypassed node must not clobber it.
			if htm.Addr(t.Load(l.desc+fdHead)) == n {
				t.Store(l.desc+fdHead, uint64(next))
			}
		} else {
			t.Store(prev+fdNext, uint64(next))
		}
		if next != htm.NilAddr {
			t.Store(next+fdPrev, uint64(prev))
		}
		t.Store(n+fdTbf, t.Load(l.desc+fdTbfHead))
		t.Store(l.desc+fdTbfHead, uint64(n))
	})
}

// Collect implements Collector with telescoping and no restarts: unlinked
// nodes keep their outgoing pointers, so the walk simply continues through
// them (their values may flicker into the result, which the specification
// permits for concurrent Deregisters).
func (l *FastCollectDeferredFree) Collect(c *Ctx, out []Value) []Value {
	h := c.th.Heap()
	h.AddNT(l.desc+fdActive, 1)
	out = c.telescope(out, uint64(htm.NilAddr), unbounded, func(t *htm.Txn, step int, at uint64) (uint64, walkEnd) {
		return walkList(t, c, step, l.desc+fdHead, htm.Addr(at))
	}, nil)
	h.AddNT(l.desc+fdActive, ^uint64(0))
	l.tryDrain(c)
	return out
}

// tryDrain frees the to-be-freed list if no Collect is in progress. Taking
// the chain and checking quiescence happen in one transaction, so a Collect
// that starts afterwards cannot reach the drained nodes (they are already
// unlinked from the main list).
func (l *FastCollectDeferredFree) tryDrain(c *Ctx) {
	var chain htm.Addr
	c.th.Atomic(func(t *htm.Txn) {
		chain = htm.NilAddr
		if t.Load(l.desc+fdActive) != 0 {
			return
		}
		chain = htm.Addr(t.Load(l.desc + fdTbfHead))
		if chain != htm.NilAddr {
			t.Store(l.desc+fdTbfHead, 0)
		}
	})
	h := c.th.Heap()
	for chain != htm.NilAddr {
		next := htm.Addr(h.LoadNT(chain + fdTbf))
		c.th.Free(chain)
		chain = next
	}
}

// PendingFree reports the current to-be-freed backlog (diagnostic).
func (l *FastCollectDeferredFree) PendingFree() int {
	h := l.h
	n := 0
	for p := htm.Addr(h.LoadNT(l.desc + fdTbfHead)); p != htm.NilAddr; p = htm.Addr(h.LoadNT(p + fdTbf)) {
		n++
	}
	return n
}
