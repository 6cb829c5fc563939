package core

import (
	"repro/htm"
)

// Handle block layout for the update-optimized variant. Word 0 is the slot
// reference, so the block's address is at once the handle, the slot
// reference and the value of the handle's array slot; word 1 is the value.
const (
	hbSlot = iota
	hbVal
	hbWords
)

// ArrayDynAppendDeregUpdOpt is the variant of ArrayDynAppendDereg that §4.1
// describes but the authors did not implement: the value associated with a
// handle is stored together with the slot reference rather than in the array
// slot. It is the slot-array engine with the handle block's slot cell as its
// reference and the block's address as its slot value. Handle blocks never
// move, so Update is a naked store (the fast, ~135ns class) even though array
// slots are compacted and resized freely. The cost moves to Collect, which
// must dereference each array slot's pointer transactionally to reach the
// value — one extra transactional load per element.
type ArrayDynAppendDeregUpdOpt struct{ ArrayDynAppendDereg }

var _ Collector = (*ArrayDynAppendDeregUpdOpt)(nil)

// NewArrayDynAppendDeregUpdOpt allocates the collect object on h; pass
// minSize 0 for DefaultMinSize.
func NewArrayDynAppendDeregUpdOpt(h *htm.Heap, minSize int, opts Options) *ArrayDynAppendDeregUpdOpt {
	return &ArrayDynAppendDeregUpdOpt{ArrayDynAppendDereg{newSlotArray(h, minSize, descWords, opts)}}
}

// Name implements Collector.
func (a *ArrayDynAppendDeregUpdOpt) Name() string { return "Array Dyn Append Dereg (upd-opt)" }

// Register implements Collector: the handle block is allocated and filled
// outside the transaction, and the array slot stores its address.
func (a *ArrayDynAppendDeregUpdOpt) Register(c *Ctx, v Value) Handle {
	img := [hbWords]uint64{hbVal: v}
	hb := c.th.AllocInit(img[:]) // filled while private
	return a.register(c, hb+hbSlot, uint64(hb))
}

// Update implements Collector with a naked store: the handle block never
// moves, which is the entire point of this variant (§4.1).
func (a *ArrayDynAppendDeregUpdOpt) Update(c *Ctx, h Handle, v Value) {
	c.th.Heap().StoreNT(htm.Addr(h)+hbVal, v)
}

// Collect implements Collector: as in Figure 2, but each element costs two
// transactional loads — slot → handle block → value (the Collect-side price
// of naked Updates).
func (a *ArrayDynAppendDeregUpdOpt) Collect(c *Ctx, out []Value) []Value {
	return a.collect(c, out, a.desc+dCount, a.helpCopyOne, func(t *htm.Txn, step int, at uint64) (uint64, walkEnd) {
		at = min(at, t.Load(a.desc+dCount))
		arr := htm.Addr(t.Load(a.desc + dArray))
		got := 0
		for ; got < step && at > 0; got++ {
			at--
			hb := htm.Addr(t.Load(arr + htm.Addr(slotWords*at) + slotVal))
			c.buf[got] = t.Load(hb + hbVal)
		}
		c.stage(t, got)
		return at, arrayEnd(at)
	})
}
