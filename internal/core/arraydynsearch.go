package core

import (
	"repro/htm"
)

// dDest extends the Figure 2 descriptor with a destination index for
// compacting copies (used slots are packed to consecutive positions in the
// new array).
const (
	dDest           = descWords
	descWordsSearch = descWords + 1
)

// scanBatch bounds the number of source slots a single copy transaction
// examines while skipping free slots, keeping its read set small.
const scanBatch = 8

// ArrayDynSearchResize (§3.2) is a dynamic array with search-based
// registration and compaction only on resize. Between resizes the array
// accumulates holes, so Collect traverses the whole capacity rather than just
// the registered slots — the cost the paper observes in Figures 7 and 8.
// Slots move during resizes, so handles are slot references and Update needs
// a transactional indirection, like ArrayDynAppendDereg, whose descriptor,
// copy loop, Update and diagnostics it shares.
type ArrayDynSearchResize struct{ slotArray }

var _ Collector = (*ArrayDynSearchResize)(nil)

// NewArrayDynSearchResize allocates the collect object on h; pass minSize 0
// for DefaultMinSize.
func NewArrayDynSearchResize(h *htm.Heap, minSize int, opts Options) *ArrayDynSearchResize {
	return &ArrayDynSearchResize{newSlotArray(h, minSize, descWordsSearch, opts)}
}

// Name implements Collector.
func (a *ArrayDynSearchResize) Name() string { return "Array Dyn Search Resize" }

// Register implements Collector: search the array for a free slot (slotRef
// zero) and claim it; grow when the search fails.
func (a *ArrayDynSearchResize) Register(c *Ctx, v Value) Handle {
	ref := c.th.Alloc(1)
	a.retry(c, a.attemptResize, a.helpCopyOne, func(t *htm.Txn) (action, uint64, uint64) {
		if a.copying(t) {
			return actHelp, 0, 0
		}
		capacity := t.Load(a.desc + dCapacity)
		arr := htm.Addr(t.Load(a.desc + dArray))
		for i := uint64(0); i < capacity; i++ {
			s := arr + htm.Addr(slotWords*i)
			if t.Load(s+slotRef) == 0 {
				fillSlot(t, s, ref, v)
				t.Store(a.desc+dCount, t.Load(a.desc+dCount)+1)
				return actDone, 0, 0
			}
		}
		return actGrow, t.Load(a.desc + dCount), capacity
	})
	return Handle(ref)
}

// Deregister implements Collector: clear the slot's reference pointer to mark
// it free; shrink via a compacting resize when occupancy falls to 25%.
func (a *ArrayDynSearchResize) Deregister(c *Ctx, h Handle) {
	ref := htm.Addr(h)
	a.retry(c, a.attemptResize, a.helpCopyOne, func(t *htm.Txn) (action, uint64, uint64) {
		count := t.Load(a.desc + dCount)
		capacity := t.Load(a.desc + dCapacity)
		switch {
		case count*4 <= capacity && count*2 >= a.minSize:
			return actShrink, count, capacity
		case a.copying(t):
			return actHelp, 0, 0
		}
		slot := htm.Addr(t.Load(ref))
		t.Store(slot+slotRef, 0)
		t.Store(a.desc+dCount, count-1)
		return actDone, 0, 0
	})
	c.th.Free(ref)
}

// Collect implements Collector: help any copy to completion, then scan the
// entire capacity in reverse, staging used slots' values transactionally.
func (a *ArrayDynSearchResize) Collect(c *Ctx, out []Value) []Value {
	return a.collect(c, out, a.desc+dCapacity, a.helpCopyOne, func(t *htm.Txn, step int, at uint64) (uint64, walkEnd) {
		at = min(at, t.Load(a.desc+dCapacity))
		arr := htm.Addr(t.Load(a.desc + dArray))
		got := 0
		for s := 0; s < step && at > 0; s++ {
			at--
			slot := arr + htm.Addr(slotWords*at)
			if t.Load(slot+slotRef) != 0 {
				c.buf[got] = t.Load(slot + slotVal)
				got++
			}
		}
		c.stage(t, got)
		return at, arrayEnd(at)
	})
}

// attemptResize installs a new array of 2*count slots, but at least MIN_SIZE,
// unless the situation changed, then helps the copy. countL ≥ 1: Register
// grows only when count = capacity, and Deregister shrinks only at
// countL*2 ≥ MIN_SIZE.
func (a *ArrayDynSearchResize) attemptResize(c *Ctx, countL, capacityL uint64) {
	newCap := max(countL*2, a.minSize)
	tmp := c.th.Alloc(int(slotWords * newCap))
	freeTmp := true
	c.th.Atomic(func(t *htm.Txn) {
		freeTmp = true
		if !a.copying(t) && t.Load(a.desc+dCount) == countL && t.Load(a.desc+dCapacity) == capacityL {
			t.Store(a.desc+dArrayNew, uint64(tmp))
			t.Store(a.desc+dCapacityNew, newCap)
			t.Store(a.desc+dCopied, 0)
			t.Store(a.desc+dDest, 0)
			freeTmp = false
		}
	})
	if freeTmp {
		c.th.Free(tmp)
	}
	a.helpCopy(c, a.helpCopyOne)
}

// helpCopyOne advances the compacting copy: skip free source slots (bounded
// batch), copy one used slot to the next destination position repointing its
// slot reference, or install the new array when the source is exhausted.
func (a *ArrayDynSearchResize) helpCopyOne(c *Ctx) {
	var toFree htm.Addr
	c.th.Atomic(func(t *htm.Txn) {
		toFree = htm.NilAddr
		if !a.copying(t) {
			return
		}
		src := t.Load(a.desc + dCopied)
		capacity := t.Load(a.desc + dCapacity)
		arr := htm.Addr(t.Load(a.desc + dArray))
		for n := 0; n < scanBatch && src < capacity; n++ {
			s := arr + htm.Addr(slotWords*src)
			r := t.Load(s + slotRef)
			if r == 0 {
				src++
				continue
			}
			dest := t.Load(a.desc + dDest)
			arrNew := htm.Addr(t.Load(a.desc + dArrayNew))
			fillSlot(t, arrNew+htm.Addr(slotWords*dest), htm.Addr(r), t.Load(s+slotVal))
			t.Store(a.desc+dDest, dest+1)
			src++
			break
		}
		t.Store(a.desc+dCopied, src)
		if src >= capacity {
			toFree = arr
			t.Store(a.desc+dArray, t.Load(a.desc+dArrayNew))
			t.Store(a.desc+dCapacity, t.Load(a.desc+dCapacityNew))
			t.Store(a.desc+dArrayNew, uint64(htm.NilAddr))
		}
	})
	if toFree != htm.NilAddr {
		c.th.Free(toFree)
	}
}
