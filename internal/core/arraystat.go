package core

import (
	"fmt"

	"repro/htm"
)

// ArrayStatAppendDereg (§3.2) is the static-array variant of
// ArrayDynAppendDereg: append registration and compaction on Deregister, but
// a fixed capacity and no resizing or copying machinery. It assumes a known
// bound on the number of simultaneously registered handles; like the paper,
// we use it to isolate registration/compaction behaviour from memory
// reclamation.
type ArrayStatAppendDereg struct {
	h        *htm.Heap
	desc     htm.Addr // dCount only
	arr      htm.Addr
	capacity uint64
	opts     Options
}

var _ Collector = (*ArrayStatAppendDereg)(nil)

// NewArrayStatAppendDereg allocates the object with a fixed capacity (slots).
func NewArrayStatAppendDereg(h *htm.Heap, capacity int, opts Options) *ArrayStatAppendDereg {
	if capacity < 1 {
		capacity = DefaultMinSize
	}
	th := h.NewThread()
	return &ArrayStatAppendDereg{
		h:        h,
		desc:     th.Alloc(1),
		arr:      th.Alloc(slotWords * capacity),
		capacity: uint64(capacity),
		opts:     opts.normalize(h),
	}
}

// Name implements Collector.
func (a *ArrayStatAppendDereg) Name() string { return "Array Stat Append Dereg" }

// NewCtx implements Collector.
func (a *ArrayStatAppendDereg) NewCtx(th *htm.Thread) *Ctx { return newCtx(th, a.opts) }

// Register implements Collector: append at index count. It panics if the
// static capacity is exceeded — static algorithms assume a known bound.
func (a *ArrayStatAppendDereg) Register(c *Ctx, v Value) Handle {
	ref := c.th.Alloc(1)
	full := false
	c.th.Atomic(func(t *htm.Txn) {
		full = false
		count := t.Load(a.desc)
		if count >= a.capacity {
			full = true
			return
		}
		appendSlot(t, a.arr, a.desc, count, ref, v)
	})
	if full {
		panic(fmt.Sprintf("core: ArrayStatAppendDereg capacity %d exceeded", a.capacity))
	}
	return Handle(ref)
}

// Deregister implements Collector: move the last used slot into the vacated
// one.
func (a *ArrayStatAppendDereg) Deregister(c *Ctx, h Handle) {
	ref := htm.Addr(h)
	c.th.Atomic(func(t *htm.Txn) {
		count := t.Load(a.desc) - 1
		t.Store(a.desc, count)
		moveSlot(t, a.arr+htm.Addr(slotWords*count), htm.Addr(t.Load(ref)))
	})
	c.th.Free(ref)
}

// Update implements Collector through the slot reference, because compaction
// may move the slot concurrently.
func (a *ArrayStatAppendDereg) Update(c *Ctx, h Handle, v Value) { updateSlot(c, h, v) }

// Collect implements Collector: scan registered slots in reverse with
// telescoping, staging results transactionally.
func (a *ArrayStatAppendDereg) Collect(c *Ctx, out []Value) []Value {
	n := a.h.LoadNT(a.desc)
	return c.telescope(out, n, int(n), func(t *htm.Txn, step int, at uint64) (uint64, walkEnd) {
		at = gatherSlots(c, t, a.arr, step, min(at, t.Load(a.desc)))
		return at, arrayEnd(at)
	}, nil)
}

// Registered returns the number of registered handles (diagnostic).
func (a *ArrayStatAppendDereg) Registered() int { return int(a.h.LoadNT(a.desc)) }

// ArrayStatSearchNo (§3.2) is a static array with search-based registration
// and no compaction. Slots never move, so handles address their slot
// directly: Update is a plain store and Collect does not need transactions at
// all (the paper singles these two properties out in §5.3). The cost is that
// Collect must traverse up to the historical maximum number of registered
// slots (§5.5) — the high-water index never comes back down.
//
// Like the Static baseline, this algorithm does not solve the Dynamic Collect
// problem (the array is never reclaimed or resized); the paper uses it to put
// the dynamic algorithms' performance in context.
type ArrayStatSearchNo struct {
	h        *htm.Heap
	arr      htm.Addr // capacity slots of {val, used}
	hiWater  htm.Addr // historical maximum of (last used index + 1)
	capacity uint64
	opts     Options
}

var _ Collector = (*ArrayStatSearchNo)(nil)

// NewArrayStatSearchNo allocates the object with a fixed capacity (slots).
func NewArrayStatSearchNo(h *htm.Heap, capacity int, opts Options) *ArrayStatSearchNo {
	if capacity < 1 {
		capacity = DefaultMinSize
	}
	th := h.NewThread()
	return &ArrayStatSearchNo{
		h:        h,
		arr:      th.Alloc(slotWords * capacity),
		hiWater:  th.Alloc(1),
		capacity: uint64(capacity),
		opts:     opts.normalize(h),
	}
}

// Name implements Collector.
func (a *ArrayStatSearchNo) Name() string { return "Array Stat Search No" }

// NewCtx implements Collector.
func (a *ArrayStatSearchNo) NewCtx(th *htm.Thread) *Ctx { return newCtx(th, a.opts) }

// Register implements Collector: search for a free slot (used flag clear) and
// claim it in a transaction.
func (a *ArrayStatSearchNo) Register(c *Ctx, v Value) Handle {
	var slot htm.Addr
	full := false
	c.th.Atomic(func(t *htm.Txn) {
		full = false
		slot = htm.NilAddr
		for i := uint64(0); i < a.capacity; i++ {
			s := a.arr + htm.Addr(slotWords*i)
			if t.Load(s+slotUsed) == 0 {
				t.Store(s+slotUsed, 1)
				t.Store(s+slotVal, v)
				slot = s
				if hw := t.Load(a.hiWater); i+1 > hw {
					t.Store(a.hiWater, i+1)
				}
				return
			}
		}
		full = true
	})
	if full {
		panic(fmt.Sprintf("core: ArrayStatSearchNo capacity %d exceeded", a.capacity))
	}
	return Handle(slot)
}

// slotUsed aliases the second slot word for search-based algorithms, which
// store a used flag instead of a slot-reference pointer.
const slotUsed = slotRef

// Deregister implements Collector: clear the used flag. A single atomic store
// suffices because slots never move.
func (a *ArrayStatSearchNo) Deregister(c *Ctx, h Handle) {
	c.th.Heap().StoreNT(htm.Addr(h)+slotUsed, 0)
}

// Update implements Collector: a naked store through the handle — the fast
// (~135ns) Update class, possible because the slot never moves.
func (a *ArrayStatSearchNo) Update(c *Ctx, h Handle, v Value) {
	c.th.Heap().StoreNT(htm.Addr(h)+slotVal, v)
}

// Collect implements Collector without transactions: scan every slot below
// the high-water mark and take the used ones. Slots never move, values are
// single words, and the used flag and value are published atomically by
// Register's transaction, so plain strongly atomic loads observe a value for
// every stably registered handle.
func (a *ArrayStatSearchNo) Collect(c *Ctx, out []Value) []Value {
	h := c.th.Heap()
	hw := h.LoadNT(a.hiWater)
	for i := int64(hw) - 1; i >= 0; i-- {
		s := a.arr + htm.Addr(slotWords*uint64(i))
		if h.LoadNT(s+slotUsed) != 0 {
			out = append(out, h.LoadNT(s+slotVal))
		}
	}
	return out
}

// HighWater returns the historical maximum slot count traversed by Collect
// (diagnostic, §5.5).
func (a *ArrayStatSearchNo) HighWater() int { return int(a.h.LoadNT(a.hiWater)) }
