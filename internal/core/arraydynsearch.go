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
// a transactional indirection, like ArrayDynAppendDereg.
type ArrayDynSearchResize struct {
	h       *htm.Heap
	desc    htm.Addr
	minSize uint64
	opts    Options
}

var _ Collector = (*ArrayDynSearchResize)(nil)

// NewArrayDynSearchResize allocates the collect object on h; pass minSize 0
// for DefaultMinSize.
func NewArrayDynSearchResize(h *htm.Heap, minSize int, opts Options) *ArrayDynSearchResize {
	if minSize <= 0 {
		minSize = DefaultMinSize
	}
	th := h.NewThread()
	desc := th.Alloc(descWordsSearch)
	arr := th.Alloc(slotWords * minSize)
	h.StoreNT(desc+dArray, uint64(arr))
	h.StoreNT(desc+dCapacity, uint64(minSize))
	return &ArrayDynSearchResize{h: h, desc: desc, minSize: uint64(minSize), opts: opts.normalize(h)}
}

// Name implements Collector.
func (a *ArrayDynSearchResize) Name() string { return "Array Dyn Search Resize" }

// NewCtx implements Collector.
func (a *ArrayDynSearchResize) NewCtx(th *htm.Thread) *Ctx { return newCtx(th, a.opts) }

func (a *ArrayDynSearchResize) copying(t *htm.Txn) bool {
	return t.Load(a.desc+dArrayNew) != uint64(htm.NilAddr)
}

// Register implements Collector: search the array for a free slot (slotRef
// zero) and claim it; grow when the search fails.
func (a *ArrayDynSearchResize) Register(c *Ctx, v Value) Handle {
	ref := c.th.Alloc(1)
	for {
		act := actNothing
		var countL, capacityL uint64
		c.th.Atomic(func(t *htm.Txn) {
			act = actHelp
			if a.copying(t) {
				return
			}
			capacity := t.Load(a.desc + dCapacity)
			arr := htm.Addr(t.Load(a.desc + dArray))
			for i := uint64(0); i < capacity; i++ {
				s := arr + htm.Addr(slotWords*i)
				if t.Load(s+slotRef) == 0 {
					t.Store(s+slotVal, v)
					t.Store(s+slotRef, uint64(ref))
					t.Store(ref, uint64(s))
					t.Store(a.desc+dCount, t.Load(a.desc+dCount)+1)
					act = actDone
					return
				}
			}
			countL = t.Load(a.desc + dCount)
			capacityL = capacity
			act = actGrow
		})
		switch act {
		case actDone:
			return Handle(ref)
		case actGrow:
			a.attemptResize(c, countL, capacityL)
		case actHelp:
			a.helpCopy(c)
		}
	}
}

// Deregister implements Collector: clear the slot's reference pointer to mark
// it free; shrink via a compacting resize when occupancy falls to 25%.
func (a *ArrayDynSearchResize) Deregister(c *Ctx, h Handle) {
	ref := htm.Addr(h)
	for {
		act := actHelp
		var countL, capacityL uint64
		c.th.Atomic(func(t *htm.Txn) {
			act = actHelp
			countL = t.Load(a.desc + dCount)
			capacityL = t.Load(a.desc + dCapacity)
			switch {
			case countL*4 <= capacityL && countL*2 >= a.minSize:
				act = actShrink
			case !a.copying(t):
				slot := htm.Addr(t.Load(ref))
				t.Store(slot+slotRef, 0)
				t.Store(a.desc+dCount, countL-1)
				act = actDone
			}
		})
		switch act {
		case actDone:
			c.th.Free(ref)
			return
		case actShrink:
			a.attemptResize(c, countL, capacityL)
		case actHelp:
			a.helpCopy(c)
		}
	}
}

// Update implements Collector: transactional indirection through the slot
// reference (slots move on resize).
func (a *ArrayDynSearchResize) Update(c *Ctx, h Handle, v Value) {
	ref := htm.Addr(h)
	c.th.Atomic(func(t *htm.Txn) {
		slot := htm.Addr(t.Load(ref))
		t.Store(slot+slotVal, v)
	})
}

// Collect implements Collector: help any copy to completion, then scan the
// entire capacity in reverse, staging used slots' values transactionally.
func (a *ArrayDynSearchResize) Collect(c *Ctx, out []Value) []Value {
	a.helpCopy(c)
	h := c.th.Heap()
	i := int64(h.LoadNT(a.desc+dCapacity)) - 1
	c.ensureScratch(int(i + 1))
	k := 0
	for i >= 0 {
		step := c.step()
		ii := i
		got := 0
		err := c.th.TryAtomic(func(t *htm.Txn) {
			ii = i
			got = 0
			capacity := int64(t.Load(a.desc + dCapacity))
			if ii >= capacity {
				ii = capacity - 1
			}
			arr := htm.Addr(t.Load(a.desc + dArray))
			for s := 0; s < step && ii >= 0; s++ {
				slot := arr + htm.Addr(slotWords*ii)
				if t.Load(slot+slotRef) != 0 {
					c.buf[got] = t.Load(slot + slotVal)
					got++
				}
				ii--
			}
			c.stage(t, k, got)
		})
		if err != nil {
			c.feed(step, false, 0)
			if isIllegal(err) {
				a.helpCopy(c)
			}
			continue
		}
		c.feed(step, true, got)
		i = ii
		k += got
	}
	return c.drainScratch(k, out)
}

// attemptResize installs a new array of 2*count slots unless the situation
// changed, then helps the copy.
func (a *ArrayDynSearchResize) attemptResize(c *Ctx, countL, capacityL uint64) {
	if countL == 0 {
		countL = a.minSize / 2
		if countL == 0 {
			countL = 1
		}
	}
	newCap := countL * 2
	if newCap < a.minSize {
		newCap = a.minSize
	}
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
	a.helpCopy(c)
}

func (a *ArrayDynSearchResize) helpCopy(c *Ctx) {
	for a.h.LoadNT(a.desc+dArrayNew) != uint64(htm.NilAddr) {
		a.helpCopyOne(c)
	}
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
			d := arrNew + htm.Addr(slotWords*dest)
			t.Store(d+slotVal, t.Load(s+slotVal))
			t.Store(d+slotRef, r)
			t.Store(htm.Addr(r), uint64(d))
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

// Registered returns the number of registered handles (diagnostic).
func (a *ArrayDynSearchResize) Registered() int { return int(a.h.LoadNT(a.desc + dCount)) }

// Capacity returns the current array capacity in slots (diagnostic).
func (a *ArrayDynSearchResize) Capacity() int { return int(a.h.LoadNT(a.desc + dCapacity)) }
