package core

import (
	"runtime"

	"repro/htm"
)

// DynamicBaseline node layout. fwd packs the successor pointer (low 32
// bits), a traversal reference count (16 bits) and a modification sequence
// number (16 bits) into one CAS-able word — the counted-pointer construction
// of Algorithm 2 of Herlihy, Luchangco and Moir [11], the paper's non-HTM
// Dynamic Collect baseline, extended with a sequence stamp that closes the
// ABA window on unlinking (see tryUnlink).
const (
	bFwd = iota
	bStatus
	bVal
	dynNodeWords
)

// Node claim states.
const (
	stFree     = 0
	stUsed     = 1
	stClaiming = 2
)

const (
	cntUnit = uint64(1) << 32
	seqUnit = uint64(1) << 48
	cntMask = uint64(0x7FFF) << 32
	markBit = uint64(1) << 47
	seqMask = uint64(0xFFFF) << 48
	fwdMask = uint64(0xFFFFFFFF)
)

func fwdPtr(f uint64) htm.Addr { return htm.Addr(f & fwdMask) }
func fwdCnt(f uint64) uint64   { return (f & cntMask) >> 32 }
func fwdMarked(f uint64) bool  { return f&markBit != 0 }

// bumpSeq returns f with the sequence stamp advanced; every CAS on an edge
// word goes through a seq bump so that a successful CAS proves the edge was
// untouched since it was read. The 16-bit stamp wraps; an ABA would need
// 65536 edge mutations inside one read-to-CAS window.
func bumpSeq(f uint64) uint64 {
	seq := (f >> 48) + 1
	return f&^seqMask | seq<<48
}

// withPtrCnt returns f with pointer and count replaced, the mark cleared,
// and seq advanced.
func withPtrCnt(f uint64, p htm.Addr, cnt uint64) uint64 {
	seq := (f >> 48) + 1
	return uint64(p) | cnt<<32 | seq<<48
}

// DynamicBaseline (§3.3) is the CAS-based Dynamic Collect baseline: a linked
// list whose forward pointers carry reference counts. An operation pins every
// edge on its path by incrementing the edge's count with CAS, which protects
// all nodes on the path from deallocation; releasing an edge whose count
// drops to zero unlinks and deallocates a deregistered successor. Register
// keeps its path pinned for the handle's lifetime and Deregister releases it.
//
// The per-edge CAS on every traversal step — in both directions for Collect —
// is what makes this baseline slow: it dirties every node it walks, exactly
// the cache behaviour the paper blames in Figure 3.
//
// Divergences from [11], documented per DESIGN.md: (1) the original uses back
// pointers for the reverse, count-releasing pass; we release from a
// thread-local stack of the pinned path, performing the identical CAS
// sequence without the back links. (2) Edge words carry a 16-bit sequence
// stamp; without HTM, the unlink step must atomically validate two edge words
// at once, and the stamp is the classic counted-pointer workaround. The
// contrast with the two-line transactional unlink of the HTM algorithms is
// the paper's §4.3 complexity argument in miniature.
type DynamicBaseline struct {
	h    *htm.Heap
	sent htm.Addr // sentinel node; its fwd edge anchors the list
}

var _ Collector = (*DynamicBaseline)(nil)

type dynPriv struct {
	stack []htm.Addr
}

// NewDynamicBaseline allocates the collect object on h.
func NewDynamicBaseline(h *htm.Heap) *DynamicBaseline {
	th := h.NewThread()
	return &DynamicBaseline{h: h, sent: th.Alloc(dynNodeWords)}
}

// Name implements Collector.
func (b *DynamicBaseline) Name() string { return "Dynamic Baseline" }

// NewCtx implements Collector.
func (b *DynamicBaseline) NewCtx(th *htm.Thread) *Ctx {
	c := newCtx(th, Options{Step: 1})
	c.priv = &dynPriv{}
	return c
}

// pinEdge increments the reference count of the edge out of prev, returning
// the packed edge value after the increment. Edges held exclusively by an
// unlinker (mark bit set) are waited out.
func (b *DynamicBaseline) pinEdge(c *Ctx, prev htm.Addr) uint64 {
	h := c.th.Heap()
	for {
		f := h.LoadNT(prev + bFwd)
		if fwdMarked(f) {
			runtime.Gosched()
			continue
		}
		nf := bumpSeq(f) + cntUnit
		if h.CASNT(prev+bFwd, f, nf) {
			return nf
		}
	}
}

// releaseEdge decrements the reference count of the edge out of prev,
// returning the packed edge value after the decrement.
func (b *DynamicBaseline) releaseEdge(c *Ctx, prev htm.Addr) uint64 {
	h := c.th.Heap()
	for {
		f := h.LoadNT(prev + bFwd)
		if fwdMarked(f) {
			runtime.Gosched()
			continue
		}
		nf := bumpSeq(f) - cntUnit
		if h.CASNT(prev+bFwd, f, nf) {
			return nf
		}
	}
}

// tryUnlink deallocates prev's successor if the edge into it is unreferenced,
// the node is free, and no traverser is pinned inside it.
//
// Safety: the node is only dereferenced while this thread holds the edge's
// mark bit, which it acquires by CASing the exact stamped value f the caller
// observed. A marked edge rejects pins, releases, appends and other unlink
// attempts, and a node's only incoming edge is this one, so while the mark is
// held nobody can reach — let alone free — the node. The mark holder then
// either swings the edge past the node and frees it, or restores the edge.
// (An earlier revision read the node before taking any mark; a full
// pin/claim/deregister/unlink cycle by another thread could slip into that
// window and free the node first.)
func (b *DynamicBaseline) tryUnlink(c *Ctx, prev htm.Addr, f uint64) {
	node := fwdPtr(f)
	if fwdCnt(f) != 0 || node == htm.NilAddr || fwdMarked(f) {
		return
	}
	h := c.th.Heap()
	marked := bumpSeq(f) | markBit
	if !h.CASNT(prev+bFwd, f, marked) {
		return // the edge moved on; some other thread is responsible now
	}
	// Exclusive: nobody can pin through or mutate this edge until we
	// publish an unmarked value.
	if h.LoadNT(node+bStatus) == stFree {
		nf := h.LoadNT(node + bFwd)
		if fwdCnt(nf) == 0 && !fwdMarked(nf) {
			h.StoreNT(prev+bFwd, withPtrCnt(marked, fwdPtr(nf), 0))
			c.th.Free(node)
			return
		}
	}
	h.StoreNT(prev+bFwd, withPtrCnt(marked, node, 0))
}

// Register implements Collector: walk from the sentinel pinning every edge,
// claim the first free node (or append a fresh one at the tail), and leave
// the path pinned for the handle's lifetime.
func (b *DynamicBaseline) Register(c *Ctx, v Value) Handle {
	h := c.th.Heap()
	prev := b.sent
	f := b.pinEdge(c, prev)
	for {
		node := fwdPtr(f)
		if node == htm.NilAddr {
			// Append a fresh node. We hold a pin on this edge, so it cannot
			// be unlinked; on CAS failure re-read and either retry (count
			// churn) or continue to the node someone else appended.
			img := [dynNodeWords]uint64{bStatus: stUsed, bVal: v}
			n := c.th.AllocInit(img[:]) // filled while private
			for node == htm.NilAddr {
				if fwdMarked(f) {
					// An unlinker holds this edge exclusively; wait it out
					// rather than clobbering its mark.
					runtime.Gosched()
					f = h.LoadNT(prev + bFwd)
					node = fwdPtr(f)
					continue
				}
				if h.CASNT(prev+bFwd, f, withPtrCnt(f, n, fwdCnt(f))) {
					return Handle(n)
				}
				f = h.LoadNT(prev + bFwd)
				node = fwdPtr(f)
			}
			c.th.Free(n)
		}
		if h.CASNT(node+bStatus, stFree, stClaiming) {
			h.StoreNT(node+bVal, v)
			h.StoreNT(node+bStatus, stUsed)
			return Handle(node)
		}
		prev = node
		f = b.pinEdge(c, prev)
	}
}

// Deregister implements Collector: re-walk the (pinned, hence immutable) path
// from the sentinel to the handle's node, then release the pins deepest
// first, unlinking newly unreferenced free nodes along the way, and finally
// mark the node free.
func (b *DynamicBaseline) Deregister(c *Ctx, h Handle) {
	heap := c.th.Heap()
	n := htm.Addr(h)
	p := c.priv.(*dynPriv)
	p.stack = p.stack[:0]
	// Forward pass: rebuild the pinned path (no CASes; the path cannot
	// change while pinned).
	for node := b.sent; node != n && node != htm.NilAddr; {
		p.stack = append(p.stack, node)
		node = fwdPtr(heap.LoadNT(node + bFwd))
	}
	// The handle's binding ends before its path pins are released, so a
	// racing Register that recycles the node sees a free node only after we
	// are done touching it.
	heap.StoreNT(n+bStatus, stFree)
	for i := len(p.stack) - 1; i >= 0; i-- {
		f := b.releaseEdge(c, p.stack[i])
		b.tryUnlink(c, p.stack[i], f)
	}
}

// Update implements Collector: a direct store — handle storage never moves
// while registered.
func (b *DynamicBaseline) Update(c *Ctx, h Handle, v Value) {
	c.th.Heap().StoreNT(htm.Addr(h)+bVal, v)
}

// Collect implements Collector: pin the whole list edge by edge collecting
// used values, then release the path deepest first, unlinking unreferenced
// free nodes — two CASes per node per Collect, the cost the paper measures.
func (b *DynamicBaseline) Collect(c *Ctx, out []Value) []Value {
	h := c.th.Heap()
	p := c.priv.(*dynPriv)
	p.stack = p.stack[:0]
	prev := b.sent
	for {
		f := b.pinEdge(c, prev)
		p.stack = append(p.stack, prev)
		node := fwdPtr(f)
		if node == htm.NilAddr {
			break
		}
		if h.LoadNT(node+bStatus) == stUsed {
			out = append(out, h.LoadNT(node+bVal))
		}
		prev = node
	}
	for i := len(p.stack) - 1; i >= 0; i-- {
		f := b.releaseEdge(c, p.stack[i])
		b.tryUnlink(c, p.stack[i], f)
	}
	return out
}

// ListLength returns the current list length (diagnostic; counts all nodes,
// free or used). Not safe against concurrent unlinks; use in quiescence.
func (b *DynamicBaseline) ListLength() int {
	h := b.h
	n := 0
	for node := fwdPtr(h.LoadNT(b.sent + bFwd)); node != htm.NilAddr; node = fwdPtr(h.LoadNT(node + bFwd)) {
		n++
	}
	return n
}
