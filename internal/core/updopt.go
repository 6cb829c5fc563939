package core

import (
	"repro/htm"
)

// Handle block layout for the update-optimized variant: the value lives with
// the slot reference, outside the array.
const (
	uVal = iota
	uSlot
	updHandleWords
)

// ArrayDynAppendDeregUpdOpt is the variant of ArrayDynAppendDereg that §4.1
// describes but the authors did not implement: the value associated with a
// handle is stored together with the slot reference rather than in the array
// slot. Slot references never move, so Update is a naked store (the fast,
// ~135ns class) even though array slots are compacted and resized freely.
// The cost moves to Collect, which must dereference each array slot's pointer
// transactionally to reach the value — one extra transactional load per
// element.
//
// Array slots hold only the pointer to the handle block (one word of payload;
// the slot's second word keeps the back-pointer symmetry of Figure 2 so the
// resize/compaction machinery is shared).
type ArrayDynAppendDeregUpdOpt struct {
	h       *htm.Heap
	desc    htm.Addr
	minSize uint64
	opts    Options
}

var _ Collector = (*ArrayDynAppendDeregUpdOpt)(nil)

// NewArrayDynAppendDeregUpdOpt allocates the collect object on h; pass
// minSize 0 for DefaultMinSize.
func NewArrayDynAppendDeregUpdOpt(h *htm.Heap, minSize int, opts Options) *ArrayDynAppendDeregUpdOpt {
	if minSize <= 0 {
		minSize = DefaultMinSize
	}
	th := h.NewThread()
	desc := th.Alloc(descWords)
	arr := th.Alloc(slotWords * minSize)
	h.StoreNT(desc+dArray, uint64(arr))
	h.StoreNT(desc+dCapacity, uint64(minSize))
	return &ArrayDynAppendDeregUpdOpt{h: h, desc: desc, minSize: uint64(minSize), opts: opts.normalize(h)}
}

// Name implements Collector.
func (a *ArrayDynAppendDeregUpdOpt) Name() string { return "Array Dyn Append Dereg (upd-opt)" }

// NewCtx implements Collector.
func (a *ArrayDynAppendDeregUpdOpt) NewCtx(th *htm.Thread) *Ctx { return newCtx(th, a.opts) }

func (a *ArrayDynAppendDeregUpdOpt) copying(t *htm.Txn) bool {
	return t.Load(a.desc+dArrayNew) != uint64(htm.NilAddr)
}

// Register implements Collector: the handle block {value, slot pointer} is
// allocated outside the transaction; the array slot stores a pointer to it.
func (a *ArrayDynAppendDeregUpdOpt) Register(c *Ctx, v Value) Handle {
	img := [updHandleWords]uint64{uVal: v}
	hb := c.th.AllocInit(img[:]) // filled while private
	for {
		act := actNothing
		var countL uint64
		c.th.Atomic(func(t *htm.Txn) {
			act = actNothing
			count := t.Load(a.desc + dCount)
			if !a.copying(t) {
				if count < t.Load(a.desc+dCapacity) {
					a.appendSlot(t, hb, count)
					act = actDone
				} else {
					countL = count
					act = actGrow
				}
			} else {
				if count < t.Load(a.desc+dCapacity) && count < t.Load(a.desc+dCapacityNew) {
					a.appendSlot(t, hb, count)
					act = actDone
				} else {
					act = actHelp
				}
			}
		})
		switch act {
		case actDone:
			return Handle(hb)
		case actGrow:
			a.attemptResize(c, countL, countL)
		case actHelp:
			a.helpCopy(c)
		}
	}
}

func (a *ArrayDynAppendDeregUpdOpt) appendSlot(t *htm.Txn, hb htm.Addr, count uint64) {
	arr := htm.Addr(t.Load(a.desc + dArray))
	slot := arr + htm.Addr(slotWords*count)
	t.Store(slot+slotVal, uint64(hb)) // the slot points at the handle block
	t.Store(slot+slotRef, uint64(hb))
	t.Store(hb+uSlot, uint64(slot))
	t.Store(a.desc+dCount, count+1)
}

// Update implements Collector with a naked store: the handle block never
// moves, which is the entire point of this variant (§4.1).
func (a *ArrayDynAppendDeregUpdOpt) Update(c *Ctx, h Handle, v Value) {
	c.th.Heap().StoreNT(htm.Addr(h)+uVal, v)
}

// Deregister implements Collector: move the last slot's pointer into the
// vacated slot, repoint that handle block, free this handle block.
func (a *ArrayDynAppendDeregUpdOpt) Deregister(c *Ctx, h Handle) {
	hb := htm.Addr(h)
	for {
		act := actHelp
		var countL, capacityL uint64
		c.th.Atomic(func(t *htm.Txn) {
			act = actHelp
			countL = t.Load(a.desc + dCount)
			capacityL = t.Load(a.desc + dCapacity)
			switch {
			case countL*4 == capacityL && countL*2 >= a.minSize:
				act = actShrink
			case !a.copying(t):
				count := countL - 1
				t.Store(a.desc+dCount, count)
				arr := htm.Addr(t.Load(a.desc + dArray))
				last := arr + htm.Addr(slotWords*count)
				mine := htm.Addr(t.Load(hb + uSlot))
				moved := t.Load(last + slotVal) // handle block of the moved slot
				t.Store(mine+slotVal, moved)
				t.Store(mine+slotRef, moved)
				t.Store(htm.Addr(moved)+uSlot, uint64(mine))
				act = actDone
			}
		})
		switch act {
		case actDone:
			c.th.Free(hb)
			return
		case actShrink:
			a.attemptResize(c, countL, capacityL)
		case actHelp:
			a.helpCopy(c)
		}
	}
}

// Collect implements Collector: as in Figure 2, but each element costs two
// transactional loads — slot → handle block → value (the Collect-side price
// of naked Updates).
func (a *ArrayDynAppendDeregUpdOpt) Collect(c *Ctx, out []Value) []Value {
	a.helpCopy(c)
	h := c.th.Heap()
	i := int64(h.LoadNT(a.desc+dCount)) - 1
	c.ensureScratch(int(i + 1))
	k := 0
	for i >= 0 {
		step := c.step()
		ii := i
		got := 0
		err := c.th.TryAtomic(func(t *htm.Txn) {
			ii = i
			got = 0
			count := int64(t.Load(a.desc + dCount))
			if ii >= count {
				ii = count - 1
			}
			arr := htm.Addr(t.Load(a.desc + dArray))
			for s := 0; s < step && ii >= 0; s++ {
				hb := htm.Addr(t.Load(arr + htm.Addr(slotWords*ii) + slotVal))
				c.buf[got] = t.Load(hb + uVal)
				ii--
				got++
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

func (a *ArrayDynAppendDeregUpdOpt) attemptResize(c *Ctx, countL, capacityL uint64) {
	if countL == 0 {
		return
	}
	tmp := c.th.Alloc(int(slotWords * countL * 2))
	freeTmp := true
	c.th.Atomic(func(t *htm.Txn) {
		freeTmp = true
		if !a.copying(t) && t.Load(a.desc+dCount) == countL && t.Load(a.desc+dCapacity) == capacityL {
			t.Store(a.desc+dArrayNew, uint64(tmp))
			t.Store(a.desc+dCapacityNew, countL*2)
			t.Store(a.desc+dCopied, 0)
			freeTmp = false
		}
	})
	if freeTmp {
		c.th.Free(tmp)
	}
	a.helpCopy(c)
}

func (a *ArrayDynAppendDeregUpdOpt) helpCopy(c *Ctx) {
	for a.h.LoadNT(a.desc+dArrayNew) != uint64(htm.NilAddr) {
		a.helpCopyOne(c)
	}
}

func (a *ArrayDynAppendDeregUpdOpt) helpCopyOne(c *Ctx) {
	var toFree htm.Addr
	c.th.Atomic(func(t *htm.Txn) {
		toFree = htm.NilAddr
		if !a.copying(t) {
			return
		}
		copied := t.Load(a.desc + dCopied)
		count := t.Load(a.desc + dCount)
		if copied < count {
			arr := htm.Addr(t.Load(a.desc + dArray))
			arrNew := htm.Addr(t.Load(a.desc + dArrayNew))
			src := arr + htm.Addr(slotWords*copied)
			dst := arrNew + htm.Addr(slotWords*copied)
			hb := t.Load(src + slotVal)
			t.Store(dst+slotVal, hb)
			t.Store(dst+slotRef, hb)
			t.Store(htm.Addr(hb)+uSlot, uint64(dst))
			t.Store(a.desc+dCopied, copied+1)
		} else {
			toFree = htm.Addr(t.Load(a.desc + dArray))
			t.Store(a.desc+dArray, t.Load(a.desc+dArrayNew))
			t.Store(a.desc+dCapacity, t.Load(a.desc+dCapacityNew))
			t.Store(a.desc+dArrayNew, uint64(htm.NilAddr))
		}
	})
	if toFree != htm.NilAddr {
		c.th.Free(toFree)
	}
}

// Registered returns the current number of registered handles (diagnostic).
func (a *ArrayDynAppendDeregUpdOpt) Registered() int { return int(a.h.LoadNT(a.desc + dCount)) }
