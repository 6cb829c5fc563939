package core

import (
	"repro/htm"
)

// List-node layout for HOHRC: value, forward/backward links, a reference
// count ("pins") and a deferred-delete marker.
const (
	nVal = iota
	nNext
	nPrev
	nRC
	nMark
	hohrcNodeWords
)

// hohrcReservedStores is the number of store-buffer entries a telescoped
// HOHRC Collect transaction needs besides the per-element result stores: pin,
// unpin, and a possible unlink (two link updates).
const hohrcReservedStores = 4

// HOHRC (§3.1.1) is the hand-over-hand reference-counting list algorithm. A
// Collect pins each node (increments its reference count) before reading it
// and unpins its predecessor, so at most two nodes per ongoing Collect are
// kept alive beyond the registered ones. Deregister marks the node and the
// last unpinner — or the Deregister itself, if unpinned — unlinks and frees
// it.
//
// Handle storage never moves, so Update is a naked store (the paper's fast,
// ~135ns Update class). The price is an expensive Collect that writes every
// node it traverses; telescoping (§3.4) amortizes but cannot eliminate this.
type HOHRC struct {
	h    *htm.Heap
	head htm.Addr // sentinel node, never freed
	opts Options
}

var _ Collector = (*HOHRC)(nil)

// NewHOHRC allocates the collect object on h.
func NewHOHRC(h *htm.Heap, opts Options) *HOHRC {
	th := h.NewThread()
	opts = opts.normalize(h)
	if sb := h.Config().StoreBufferSize; sb > 0 {
		// normalize clamped the step to the store buffer; leave room in it for
		// this algorithm's own stores.
		opts.MaxStep = max(min(opts.MaxStep, sb-hohrcReservedStores), 1)
		opts.MinStep = min(opts.MinStep, opts.MaxStep)
		opts.Step = min(opts.Step, opts.MaxStep)
	}
	return &HOHRC{h: h, head: th.Alloc(hohrcNodeWords), opts: opts}
}

// Name implements Collector.
func (l *HOHRC) Name() string { return "List HoH RC" }

// NewCtx implements Collector.
func (l *HOHRC) NewCtx(th *htm.Thread) *Ctx { return newCtx(th, l.opts) }

// Register implements Collector: allocate a node outside the transaction and
// splice it in at the head of the list.
func (l *HOHRC) Register(c *Ctx, v Value) Handle {
	img := [hohrcNodeWords]uint64{nVal: v}
	n := c.th.AllocInit(img[:]) // filled while private
	c.th.Atomic(func(t *htm.Txn) {
		first := htm.Addr(t.Load(l.head + nNext))
		t.Store(n+nNext, uint64(first))
		t.Store(n+nPrev, uint64(l.head))
		if first != htm.NilAddr {
			t.Store(first+nPrev, uint64(n))
		}
		t.Store(l.head+nNext, uint64(n))
	})
	return Handle(n)
}

// Update implements Collector: handle storage never moves, so a naked
// strongly atomic store suffices.
func (l *HOHRC) Update(c *Ctx, h Handle, v Value) {
	c.th.Heap().StoreNT(htm.Addr(h)+nVal, v)
}

// unpin decrements n's pin count inside t; if it reaches zero and the node is
// marked for deletion, it unlinks the node and frees it after commit.
func unpin(t *htm.Txn, n htm.Addr) {
	rc := t.Load(n+nRC) - 1
	t.Store(n+nRC, rc)
	if rc == 0 && t.Load(n+nMark) != 0 {
		unlink(t, n)
		t.FreeOnCommit(n)
	}
}

// unlink splices n out of the list inside t. Neighbors' link fields are
// maintained on every unlink and head insertion, so prev is always n's live
// predecessor.
func unlink(t *htm.Txn, n htm.Addr) {
	prev := htm.Addr(t.Load(n + nPrev))
	next := htm.Addr(t.Load(n + nNext))
	t.Store(prev+nNext, uint64(next))
	if next != htm.NilAddr {
		t.Store(next+nPrev, uint64(prev))
	}
}

// Deregister implements Collector: set the delete marker; if the node is
// unpinned, unlink and free it now, otherwise the last unpinning Collect
// will.
func (l *HOHRC) Deregister(c *Ctx, h Handle) {
	n := htm.Addr(h)
	c.th.Atomic(func(t *htm.Txn) {
		t.Store(n+nMark, 1)
		if t.Load(n+nRC) == 0 {
			unlink(t, n)
			t.FreeOnCommit(n)
		}
	})
}

// Collect implements Collector with telescoping (§3.4): each transaction
// walks up to `step` nodes from the currently pinned node, records unmarked
// values, pins the last node reached and unpins the starting one. Only the
// two endpoint nodes are written, so intermediate nodes stay clean in other
// caches — the telescoping benefit the paper describes.
func (l *HOHRC) Collect(c *Ctx, out []Value) []Value {
	// The cursor is the pinned anchor; the sentinel is pinned by construction.
	return c.telescope(out, uint64(l.head), unbounded, func(t *htm.Txn, step int, at uint64) (uint64, walkEnd) {
		cur := htm.Addr(at)
		p, got, end := cur, 0, walkOn
		for visited := 0; visited < step; visited++ {
			nxt := htm.Addr(t.Load(p + nNext))
			if nxt == htm.NilAddr {
				end = walkDone
				break
			}
			p = nxt
			if t.Load(p+nMark) == 0 {
				c.buf[got] = t.Load(p + nVal)
				got++
			}
		}
		// Staged before the pin/unpin stores below, as the per-element
		// stores were: the write set keeps its order.
		c.stage(t, got)
		if end == walkOn && p != cur {
			t.Add(p+nRC, 1) // pin the new anchor
		}
		if cur != l.head {
			unpin(t, cur)
		}
		return uint64(p), end
	}, nil)
}
