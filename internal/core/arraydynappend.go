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

// An operation transaction's outcome (Figure 2's action_t).
type action uint8

const (
	actDone action = iota
	actGrow
	actShrink
	actHelp
)

// DefaultMinSize is the minimum array capacity in slots (Figure 2's
// MIN_SIZE).
const DefaultMinSize = 16

// slotArray is what both dynamic arrays share of Figure 2: the descriptor,
// the copy-in-progress test, the operation and help-to-completion loops,
// Update through the slot reference and the diagnostics. Handles are slot
// references — one-word cells pointing at the handle's current slot — so
// slots can move (during compaction and resizing) behind the handle's back.
type slotArray struct {
	h       *htm.Heap
	desc    htm.Addr
	minSize uint64
	opts    Options
}

// newSlotArray allocates a descriptor of words words and an array of minSize
// slots (≤0 selects DefaultMinSize).
func newSlotArray(h *htm.Heap, minSize, words int, opts Options) slotArray {
	if minSize <= 0 {
		minSize = DefaultMinSize
	}
	th := h.NewThread()
	desc := th.Alloc(words)
	h.StoreNT(desc+dArray, uint64(th.Alloc(slotWords*minSize)))
	h.StoreNT(desc+dCapacity, uint64(minSize))
	return slotArray{h: h, desc: desc, minSize: uint64(minSize), opts: opts.normalize(h)}
}

// NewCtx implements Collector.
func (a *slotArray) NewCtx(th *htm.Thread) *Ctx { return newCtx(th, a.opts) }

func (a *slotArray) copying(t *htm.Txn) bool {
	return t.Load(a.desc+dArrayNew) != uint64(htm.NilAddr)
}

// retry is the loop of Figure 2's Register and Deregister: run op in a
// transaction until it is done, in between attempting the resize it asks for
// or helping the copy in progress.
func (a *slotArray) retry(c *Ctx, resize func(c *Ctx, countL, capacityL uint64), copyOne func(*Ctx),
	op func(t *htm.Txn) (act action, countL, capacityL uint64)) {
	for {
		var act action
		var countL, capacityL uint64
		c.th.Atomic(func(t *htm.Txn) { act, countL, capacityL = op(t) })
		switch act {
		case actDone:
			return
		case actHelp:
			a.helpCopy(c, copyOne)
		default:
			resize(c, countL, capacityL)
		}
	}
}

// helpCopy is Figure 2 lines 110–112: help the copy in progress to
// completion, one copyOne transaction at a time.
func (a *slotArray) helpCopy(c *Ctx, copyOne func(*Ctx)) {
	for a.h.LoadNT(a.desc+dArrayNew) != uint64(htm.NilAddr) {
		copyOne(c)
	}
}

// Update implements Collector through the slot reference.
func (a *slotArray) Update(c *Ctx, h Handle, v Value) { updateSlot(c, h, v) }

// updateSlot is Figure 2 lines 74–78: one indirection through the slot
// reference, inside a transaction because the slot may move concurrently (the
// paper measures this Update class at ~215ns versus ~135ns for direct writes).
func updateSlot(c *Ctx, h Handle, v Value) {
	ref := htm.Addr(h)
	c.th.Atomic(func(t *htm.Txn) {
		slot := htm.Addr(t.Load(ref))
		t.Store(slot+slotVal, v)
	})
}

// collect is a dynamic array's telescoped Collect (Figure 2 lines 80–93): help
// any resize to completion first, so no walk reads a stale pre-copy slot, then
// walk the slots below the bound word's value in reverse order, so a
// concurrent Deregister's compaction cannot hide a slot.
func (a *slotArray) collect(c *Ctx, out []Value, bound htm.Addr, copyOne func(*Ctx),
	walk func(t *htm.Txn, step int, at uint64) (uint64, walkEnd)) []Value {
	a.helpCopy(c, copyOne)
	n := a.h.LoadNT(bound)
	return c.telescope(out, n, int(n), walk, func(err error) bool {
		if isIllegal(err) {
			// The array moved and was freed under us; re-synchronize.
			a.helpCopy(c, copyOne)
		}
		return false
	})
}

// arrayEnd reports whether an array walk that has at slots left is done.
func arrayEnd(at uint64) walkEnd {
	if at == 0 {
		return walkDone
	}
	return walkOn
}

// Registered returns the current number of registered handles (diagnostic).
func (a *slotArray) Registered() int { return int(a.h.LoadNT(a.desc + dCount)) }

// Capacity returns the current array capacity in slots (diagnostic).
func (a *slotArray) Capacity() int { return int(a.h.LoadNT(a.desc + dCapacity)) }

// fillSlot binds slot to v and links it to the slot reference ref both ways.
func fillSlot(t *htm.Txn, slot, ref htm.Addr, v uint64) {
	t.Store(slot+slotVal, v)
	t.Store(slot+slotRef, uint64(ref))
	t.Store(ref, uint64(slot))
}

// appendSlot is Figure 2's append: fill slot number count of arr and bump the
// count word at cnt.
func appendSlot(t *htm.Txn, arr, cnt htm.Addr, count uint64, ref htm.Addr, v uint64) {
	fillSlot(t, arr+htm.Addr(slotWords*count), ref, v)
	t.Store(cnt, count+1)
}

// moveSlot moves the binding in slot from into slot to and repoints its slot
// reference: the compaction of Deregister and the copy of a resize.
func moveSlot(t *htm.Txn, from, to htm.Addr) {
	v := t.Load(from + slotVal)
	r := t.Load(from + slotRef)
	fillSlot(t, to, htm.Addr(r), v)
}

// ArrayDynAppendDereg is the paper's flagship algorithm (§4, Figure 2) and the
// slot-array engine: a dynamic array with append registration and compaction
// on every Deregister. The array doubles when full and halves when 25% full,
// so space stays proportional to the number of registered handles.
type ArrayDynAppendDereg struct{ slotArray }

var _ Collector = (*ArrayDynAppendDereg)(nil)

// NewArrayDynAppendDereg allocates the collect object on h. minSize is
// Figure 2's MIN_SIZE (≥1); pass 0 for DefaultMinSize.
func NewArrayDynAppendDereg(h *htm.Heap, minSize int, opts Options) *ArrayDynAppendDereg {
	return &ArrayDynAppendDereg{newSlotArray(h, minSize, descWords, opts)}
}

// Name implements Collector.
func (a *ArrayDynAppendDereg) Name() string { return "Array Dyn Append Dereg" }

// Register implements Collector (Figure 2 lines 18–43). The slot reference is
// allocated outside the transaction, as Rock's HTM cannot run malloc inside
// one.
func (a *ArrayDynAppendDereg) Register(c *Ctx, v Value) Handle {
	return a.register(c, c.th.Alloc(1), v)
}

// register appends a slot holding sv and linked to the slot reference ref,
// growing the array or helping a resize first when it must. The handle is ref.
func (a *ArrayDynAppendDereg) register(c *Ctx, ref htm.Addr, sv uint64) Handle {
	a.retry(c, a.attemptResize, a.helpCopyOne, func(t *htm.Txn) (action, uint64, uint64) {
		copying := a.copying(t)
		count := t.Load(a.desc + dCount)
		switch {
		case count < t.Load(a.desc+dCapacity) && (!copying || count < t.Load(a.desc+dCapacityNew)):
			// A Register may complete during resizing: the same transaction
			// that copies the last element installs the new array, so a slot
			// claimed now is guaranteed to be copied (paper §4.2).
			appendSlot(t, htm.Addr(t.Load(a.desc+dArray)), a.desc+dCount, count, ref, sv)
			return actDone, 0, 0
		case copying:
			return actHelp, 0, 0
		}
		return actGrow, count, count
	})
	return Handle(ref)
}

// Deregister implements Collector (Figure 2 lines 45–66): move the last used
// slot into the vacated one, repoint the moved slot's reference, and shrink
// the array when it falls to 25% occupancy.
func (a *ArrayDynAppendDereg) Deregister(c *Ctx, h Handle) {
	ref := htm.Addr(h)
	a.retry(c, a.attemptResize, a.helpCopyOne, func(t *htm.Txn) (action, uint64, uint64) {
		count := t.Load(a.desc + dCount)
		capacity := t.Load(a.desc + dCapacity)
		switch {
		case count*4 == capacity && count*2 >= a.minSize:
			return actShrink, count, capacity
		case a.copying(t):
			return actHelp, 0, 0
		}
		t.Store(a.desc+dCount, count-1)
		last := htm.Addr(t.Load(a.desc+dArray)) + htm.Addr(slotWords*(count-1))
		moveSlot(t, last, htm.Addr(t.Load(ref)))
		return actDone, 0, 0
	})
	c.th.Free(ref)
}

// Collect implements Collector (Figure 2 lines 80–93), generalized to copy
// `step` slots per transaction (telescoping, §3.4).
func (a *ArrayDynAppendDereg) Collect(c *Ctx, out []Value) []Value {
	return a.collect(c, out, a.desc+dCount, a.helpCopyOne, func(t *htm.Txn, step int, at uint64) (uint64, walkEnd) {
		at = min(at, t.Load(a.desc+dCount))
		at = gatherSlots(c, t, htm.Addr(t.Load(a.desc+dArray)), step, at)
		return at, arrayEnd(at)
	})
}

// gatherSlots is the append arrays' step: gather the values of up to step
// slots of arr below slot at, from the top down, with one strided read, stage
// them, and return the slots left.
func gatherSlots(c *Ctx, t *htm.Txn, arr htm.Addr, step int, at uint64) uint64 {
	got := int(min(uint64(step), at))
	at -= uint64(got)
	t.LoadStrided(arr+htm.Addr(slotWords*(at+uint64(got)-1))+slotVal, -slotWords, c.buf[:got])
	c.stage(t, got)
	return at
}

// attemptResize is Figure 2 lines 95–108: allocate outside the transaction,
// install if neither count nor capacity changed and no copy is in progress,
// otherwise discard, then help the (new or pre-existing) copy to completion.
// countL ≥ 1: Register grows only a full array, and Deregister shrinks only
// at countL*2 ≥ MIN_SIZE.
func (a *ArrayDynAppendDereg) attemptResize(c *Ctx, countL, capacityL uint64) {
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
	a.helpCopy(c, a.helpCopyOne)
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
			moveSlot(t, arr+htm.Addr(slotWords*copied), arrNew+htm.Addr(slotWords*copied))
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

func isIllegal(err error) bool {
	var ab *htm.AbortError
	return errors.As(err, &ab) && ab.Code == htm.AbortIllegal
}
