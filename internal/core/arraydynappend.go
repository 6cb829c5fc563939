package core

import (
	"errors"

	"repro/htm"
)

// Shared-descriptor word offsets for the array algorithms, mirroring the
// shared data of Figure 2 (array, capacity, count, array_new, capacity_new,
// copied).
const (
	dArray = iota
	dCapacity
	dCount
	dArrayNew
	dCapacityNew
	dCopied
	descWords
)

// Array slots are two words: the value and a pointer back to the handle's
// slot reference (Figure 2's slot_t).
const (
	slotVal = iota
	slotRef
	slotWords
)

// resize/registration outcomes inside the operation loops (Figure 2's
// action_t).
type action uint8

const (
	actNothing action = iota
	actDone
	actGrow
	actShrink
	actHelp
)

// DefaultMinSize is the minimum array capacity in slots (Figure 2's
// MIN_SIZE).
const DefaultMinSize = 16

// ArrayDynAppendDereg is the paper's flagship algorithm (§4, Figure 2): a
// dynamic array with append registration and compaction on every Deregister.
// The array doubles when full and halves when 25% full, so space stays
// proportional to the number of registered handles. Handles are slot
// references — one-word cells pointing at the handle's current slot — so
// slots can move (during compaction and resizing) behind the handle's back.
type ArrayDynAppendDereg struct {
	h       *htm.Heap
	desc    htm.Addr
	minSize uint64
	opts    Options
}

var _ Collector = (*ArrayDynAppendDereg)(nil)

// NewArrayDynAppendDereg allocates the collect object on h. minSize is
// Figure 2's MIN_SIZE (≥1); pass 0 for DefaultMinSize.
func NewArrayDynAppendDereg(h *htm.Heap, minSize int, opts Options) *ArrayDynAppendDereg {
	if minSize <= 0 {
		minSize = DefaultMinSize
	}
	th := h.NewThread()
	desc := th.Alloc(descWords)
	arr := th.Alloc(slotWords * minSize)
	h.StoreNT(desc+dArray, uint64(arr))
	h.StoreNT(desc+dCapacity, uint64(minSize))
	return &ArrayDynAppendDereg{h: h, desc: desc, minSize: uint64(minSize), opts: opts.normalize(h)}
}

// Name implements Collector.
func (a *ArrayDynAppendDereg) Name() string { return "Array Dyn Append Dereg" }

// NewCtx implements Collector.
func (a *ArrayDynAppendDereg) NewCtx(th *htm.Thread) *Ctx { return newCtx(th, a.opts) }

func (a *ArrayDynAppendDereg) copying(t *htm.Txn) bool {
	return t.Load(a.desc+dArrayNew) != uint64(htm.NilAddr)
}

// appendSlot is Figure 2's append: claim slot number count, link it to the
// slot reference both ways, and bump count.
func (a *ArrayDynAppendDereg) appendSlot(t *htm.Txn, ref htm.Addr, v Value) {
	arr := htm.Addr(t.Load(a.desc + dArray))
	count := t.Load(a.desc + dCount)
	slot := arr + htm.Addr(slotWords*count)
	t.Store(slot+slotVal, v)
	t.Store(slot+slotRef, uint64(ref))
	t.Store(ref, uint64(slot))
	t.Store(a.desc+dCount, count+1)
}

// Register implements Collector (Figure 2 lines 18–43). The slot reference is
// allocated outside the transaction, as Rock's HTM cannot run malloc inside
// one.
func (a *ArrayDynAppendDereg) Register(c *Ctx, v Value) Handle {
	ref := c.th.Alloc(1)
	for {
		act := actNothing
		var countL uint64
		c.th.Atomic(func(t *htm.Txn) {
			act = actNothing
			if !a.copying(t) {
				count := t.Load(a.desc + dCount)
				if count < t.Load(a.desc+dCapacity) {
					a.appendSlot(t, ref, v)
					act = actDone
				} else {
					countL = count
					act = actGrow
				}
			} else {
				count := t.Load(a.desc + dCount)
				if count < t.Load(a.desc+dCapacity) && count < t.Load(a.desc+dCapacityNew) {
					// A Register may complete during resizing: the same
					// transaction that copies the last element installs the
					// new array, so a slot claimed now is guaranteed to be
					// copied (paper §4.2).
					a.appendSlot(t, ref, v)
					act = actDone
				} else {
					act = actHelp
				}
			}
		})
		switch act {
		case actDone:
			return Handle(ref)
		case actGrow:
			a.attemptResize(c, countL, countL)
		case actHelp:
			a.helpCopy(c)
		}
	}
}

// Deregister implements Collector (Figure 2 lines 45–66): move the last used
// slot into the vacated one, repoint the moved slot's reference, and shrink
// the array when it falls to 25% occupancy.
func (a *ArrayDynAppendDereg) Deregister(c *Ctx, h Handle) {
	ref := htm.Addr(h)
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
				mine := htm.Addr(t.Load(ref))
				lv := t.Load(last + slotVal)
				lr := t.Load(last + slotRef)
				t.Store(mine+slotVal, lv)
				t.Store(mine+slotRef, lr)
				t.Store(htm.Addr(lr), uint64(mine))
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

// Update implements Collector (Figure 2 lines 74–78): one indirection through
// the slot reference, inside a transaction because the slot may move
// concurrently.
func (a *ArrayDynAppendDereg) Update(c *Ctx, h Handle, v Value) {
	ref := htm.Addr(h)
	c.th.Atomic(func(t *htm.Txn) {
		slot := htm.Addr(t.Load(ref))
		t.Store(slot+slotVal, v)
	})
}

// Collect implements Collector (Figure 2 lines 80–93), generalized to copy
// `step` slots per transaction (telescoping, §3.4). It reads slots in reverse
// order so a concurrent Deregister's compaction cannot hide a slot, and it
// helps any in-progress resize to completion first so it cannot read a stale
// pre-copy slot.
func (a *ArrayDynAppendDereg) Collect(c *Ctx, out []Value) []Value {
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
				c.buf[got] = t.Load(arr + htm.Addr(slotWords*ii) + slotVal)
				ii--
				got++
			}
			c.stage(t, k, got)
		})
		if err != nil {
			c.feed(step, false, 0)
			if isIllegal(err) {
				// The array moved and was freed under us; re-synchronize.
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

// attemptResize is Figure 2 lines 95–108: allocate outside the transaction,
// install if neither count nor capacity changed and no copy is in progress,
// otherwise discard, then help the (new or pre-existing) copy to completion.
func (a *ArrayDynAppendDereg) attemptResize(c *Ctx, countL, capacityL uint64) {
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

// helpCopy is Figure 2 lines 110–112.
func (a *ArrayDynAppendDereg) helpCopy(c *Ctx) {
	for a.h.LoadNT(a.desc+dArrayNew) != uint64(htm.NilAddr) {
		a.helpCopyOne(c)
	}
}

// helpCopyOne is Figure 2 lines 114–131: copy one slot from the old array to
// the new (repointing its slot reference), or — when all slots are copied —
// install the new array and free the old one.
func (a *ArrayDynAppendDereg) helpCopyOne(c *Ctx) {
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
			v := t.Load(src + slotVal)
			r := t.Load(src + slotRef)
			t.Store(dst+slotVal, v)
			t.Store(dst+slotRef, r)
			t.Store(htm.Addr(r), uint64(dst))
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
func (a *ArrayDynAppendDereg) Registered() int { return int(a.h.LoadNT(a.desc + dCount)) }

// Capacity returns the current array capacity in slots (diagnostic).
func (a *ArrayDynAppendDereg) Capacity() int { return int(a.h.LoadNT(a.desc + dCapacity)) }

func isIllegal(err error) bool {
	var ab *htm.AbortError
	return errors.As(err, &ab) && ab.Code == htm.AbortIllegal
}
