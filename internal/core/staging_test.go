package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/htm"
)

// Tests for the gather-then-stage Collect step shared by the seven HTM
// collectors: it must return what per-element Load+Store staging returned, in
// the same order, survive churn underneath it, and allocate nothing warm.

// stagedImpl is one HTM collector plus a reference Collect over its data
// structure that stages the way every collector did before Ctx.stage: each
// value stored to scratch right after it is loaded, drained one LoadNT at a
// time. The reference runs on a quiescent object, so it needs none of the
// collectors' retry, helping or pinning machinery.
type stagedImpl struct {
	name string
	mk   func(h *htm.Heap, o Options) Collector
	ref  func(col Collector, th *htm.Thread, scratch htm.Addr, step int) []Value
}

// refArray walks slots n-1 … 0, step per transaction; elem reports a slot's
// value and whether the slot is in use.
func refArray(th *htm.Thread, scratch htm.Addr, step, n int, elem func(t *htm.Txn, i int) (Value, bool)) []Value {
	k := 0
	for i := n - 1; i >= 0; {
		ii, got := i, 0
		th.Atomic(func(t *htm.Txn) {
			ii, got = i, 0
			for s := 0; s < step && ii >= 0; s++ {
				if v, ok := elem(t, ii); ok {
					t.Store(scratch+htm.Addr(k+got), v)
					got++
				}
				ii--
			}
		})
		i, k = ii, k+got
	}
	return refDrain(th.Heap(), scratch, k)
}

// refList walks a list from first, step nodes per transaction.
func refList(th *htm.Thread, scratch htm.Addr, step int, first, valOff, nextOff htm.Addr) []Value {
	k := 0
	for p := first; p != htm.NilAddr; {
		q, got := p, 0
		th.Atomic(func(t *htm.Txn) {
			q, got = p, 0
			for s := 0; s < step && q != htm.NilAddr; s++ {
				t.Store(scratch+htm.Addr(k+got), t.Load(q+valOff))
				got++
				q = htm.Addr(t.Load(q + nextOff))
			}
		})
		p, k = q, k+got
	}
	return refDrain(th.Heap(), scratch, k)
}

func refDrain(h *htm.Heap, scratch htm.Addr, n int) []Value {
	out := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, h.LoadNT(scratch+htm.Addr(i)))
	}
	return out
}

func slotAt(arr uint64, i int) htm.Addr { return htm.Addr(arr) + htm.Addr(slotWords*i) }

func stagedImpls() []stagedImpl {
	return []stagedImpl{
		{"ArrayDynAppendDereg",
			func(h *htm.Heap, o Options) Collector { return NewArrayDynAppendDereg(h, 0, o) },
			func(col Collector, th *htm.Thread, scratch htm.Addr, step int) []Value {
				a, h := col.(*ArrayDynAppendDereg), th.Heap()
				arr := h.LoadNT(a.desc + dArray)
				return refArray(th, scratch, step, int(h.LoadNT(a.desc+dCount)), func(t *htm.Txn, i int) (Value, bool) {
					return t.Load(slotAt(arr, i) + slotVal), true
				})
			}},
		{"ArrayDynAppendDeregUpdOpt",
			func(h *htm.Heap, o Options) Collector { return NewArrayDynAppendDeregUpdOpt(h, 0, o) },
			func(col Collector, th *htm.Thread, scratch htm.Addr, step int) []Value {
				a, h := col.(*ArrayDynAppendDeregUpdOpt), th.Heap()
				arr := h.LoadNT(a.desc + dArray)
				return refArray(th, scratch, step, int(h.LoadNT(a.desc+dCount)), func(t *htm.Txn, i int) (Value, bool) {
					return t.Load(htm.Addr(t.Load(slotAt(arr, i)+slotVal)) + hbVal), true
				})
			}},
		{"ArrayDynSearchResize",
			func(h *htm.Heap, o Options) Collector { return NewArrayDynSearchResize(h, 0, o) },
			func(col Collector, th *htm.Thread, scratch htm.Addr, step int) []Value {
				a, h := col.(*ArrayDynSearchResize), th.Heap()
				arr := h.LoadNT(a.desc + dArray)
				return refArray(th, scratch, step, int(h.LoadNT(a.desc+dCapacity)), func(t *htm.Txn, i int) (Value, bool) {
					if t.Load(slotAt(arr, i)+slotRef) == 0 {
						return 0, false
					}
					return t.Load(slotAt(arr, i) + slotVal), true
				})
			}},
		{"ArrayStatAppendDereg",
			func(h *htm.Heap, o Options) Collector { return NewArrayStatAppendDereg(h, testCapacity, o) },
			func(col Collector, th *htm.Thread, scratch htm.Addr, step int) []Value {
				a := col.(*ArrayStatAppendDereg)
				return refArray(th, scratch, step, int(th.Heap().LoadNT(a.desc)), func(t *htm.Txn, i int) (Value, bool) {
					return t.Load(slotAt(uint64(a.arr), i) + slotVal), true
				})
			}},
		{"FastCollect",
			func(h *htm.Heap, o Options) Collector { return NewFastCollect(h, o) },
			func(col Collector, th *htm.Thread, scratch htm.Addr, step int) []Value {
				first := htm.Addr(th.Heap().LoadNT(col.(*FastCollect).desc + fcHead))
				return refList(th, scratch, step, first, fVal, fNext)
			}},
		{"FastCollectDeferredFree",
			func(h *htm.Heap, o Options) Collector { return NewFastCollectDeferredFree(h, o) },
			func(col Collector, th *htm.Thread, scratch htm.Addr, step int) []Value {
				first := htm.Addr(th.Heap().LoadNT(col.(*FastCollectDeferredFree).desc + fdHead))
				return refList(th, scratch, step, first, fdVal, fdNext)
			}},
		{"HOHRC",
			func(h *htm.Heap, o Options) Collector { return NewHOHRC(h, o) },
			func(col Collector, th *htm.Thread, scratch htm.Addr, step int) []Value {
				// Quiescent, so no node is pinned and none is marked-but-linked.
				first := htm.Addr(th.Heap().LoadNT(col.(*HOHRC).head + nNext))
				return refList(th, scratch, step, first, nVal, nNext)
			}},
	}
}

// txnShape is what the staging script leaves on its heap: transaction starts
// and commits, the clock, and live and peak words. The script aborts nothing.
type txnShape struct{ starts, commits, clock, live, maxLive uint64 }

// stagingShapes pins each script's transaction shape. starts and commits are
// those recorded before the seven step loops became one telescope driver, and
// before a step charged its store-buffer entries instead of storing to a heap
// scratch block: neither change may move them. Dropping the scratch block
// moved the rest, and by exactly this much:
//   - live falls by the block's size: 100 words for the three append arrays,
//     128 for the search array and the three lists;
//   - clock falls by one per committed step that wrote no shared word (every
//     step that collected anything, except HOHRC's, which pin and unpin), plus
//     the one tick each of the block's allocations and frees cost;
//   - maxLive falls with live.
var stagingShapes = map[string]txnShape{
	"ArrayDynAppendDereg/step=1,adaptive=false":        {859, 859, 769, 614, 711},
	"ArrayDynAppendDereg/step=8,adaptive=false":        {403, 403, 541, 614, 711},
	"ArrayDynAppendDereg/step=32,adaptive=false":       {355, 355, 517, 614, 711},
	"ArrayDynAppendDereg/step=0,adaptive=true":         {634, 634, 769, 614, 711},
	"ArrayDynAppendDeregUpdOpt/step=1,adaptive=false":  {809, 809, 769, 710, 776},
	"ArrayDynAppendDeregUpdOpt/step=8,adaptive=false":  {353, 353, 541, 710, 776},
	"ArrayDynAppendDeregUpdOpt/step=32,adaptive=false": {305, 305, 517, 710, 776},
	"ArrayDynAppendDeregUpdOpt/step=0,adaptive=true":   {584, 584, 769, 710, 776},
	"ArrayDynSearchResize/step=1,adaptive=false":       {1100, 1100, 766, 615, 712},
	"ArrayDynSearchResize/step=8,adaptive=false":       {428, 428, 543, 615, 712},
	"ArrayDynSearchResize/step=32,adaptive=false":      {356, 356, 516, 615, 712},
	"ArrayDynSearchResize/step=0,adaptive=true":        {757, 757, 766, 615, 712},
	"ArrayStatAppendDereg/step=1,adaptive=false":       {738, 738, 643, 865, 869},
	"ArrayStatAppendDereg/step=8,adaptive=false":       {282, 282, 415, 865, 869},
	"ArrayStatAppendDereg/step=32,adaptive=false":      {234, 234, 391, 865, 869},
	"ArrayStatAppendDereg/step=0,adaptive=true":        {513, 513, 643, 865, 869},
	"FastCollect/step=1,adaptive=false":                {691, 691, 642, 546, 558},
	"FastCollect/step=8,adaptive=false":                {233, 233, 414, 546, 558},
	"FastCollect/step=32,adaptive=false":               {185, 185, 390, 546, 558},
	"FastCollect/step=0,adaptive=true":                 {464, 464, 642, 546, 558},
	"FastCollectDeferredFree/step=1,adaptive=false":    {694, 694, 649, 643, 659},
	"FastCollectDeferredFree/step=8,adaptive=false":    {236, 236, 421, 643, 659},
	"FastCollectDeferredFree/step=32,adaptive=false":   {188, 188, 397, 643, 659},
	"FastCollectDeferredFree/step=0,adaptive=true":     {467, 467, 649, 643, 659},
	"HOHRC/step=1,adaptive=false":                      {691, 691, 907, 741, 761},
	"HOHRC/step=8,adaptive=false":                      {233, 233, 449, 741, 761},
	"HOHRC/step=32,adaptive=false":                     {185, 185, 401, 741, 761},
	"HOHRC/step=0,adaptive=true":                       {464, 464, 680, 741, 761},
}

// TestCollectMatchesPerElementStaging: a deterministic single-thread script on
// every collector, at fixed steps 1, 8 and 32 and with the adaptive step, must
// collect element for element what the per-element reference collects, and
// leave the heap with the pinned transaction shape.
func TestCollectMatchesPerElementStaging(t *testing.T) {
	for _, im := range stagedImpls() {
		for _, o := range []Options{{Step: 1}, {Step: 8}, {Step: 32}, {Adaptive: true}} {
			name := fmt.Sprintf("%s/step=%d,adaptive=%v", im.name, o.Step, o.Adaptive)
			t.Run(name, func(t *testing.T) {
				h := htm.NewHeap(htm.Config{Words: 1 << 18})
				col := im.mk(h, o)
				c := col.NewCtx(h.NewThread())
				refTh := h.NewThread()
				scratch := refTh.Alloc(testCapacity)
				check := func(when string, registered int) {
					t.Helper()
					got := col.Collect(c, nil)
					want := im.ref(col, refTh, scratch, max(o.Step, 1))
					if len(got) != registered || !slices.Equal(got, want) {
						t.Fatalf("%s (%d registered):\n  Collect   %v\n  reference %v", when, registered, got, want)
					}
				}
				handles := make([]Handle, 100)
				for i := range handles {
					handles[i] = col.Register(c, Value(1000+i))
				}
				check("after registering", 100)
				for i, hd := range handles {
					if i%2 == 0 {
						col.Update(c, hd, Value(2000+i))
					}
				}
				live := 0
				for i, hd := range handles {
					if i%3 == 0 {
						col.Deregister(c, hd)
					} else {
						live++
					}
				}
				check("after updates and deregistering every third", live)
				for i := 0; i < 30; i++ { // the later Collects re-stage over used staging memory
					col.Register(c, Value(3000+i))
				}
				check("after registering more", live+30)
				st := h.Stats()
				got := txnShape{st.Starts, st.Commits, h.ClockNow(), st.LiveWords, st.MaxLiveWords}
				if want := stagingShapes[name]; got != want {
					t.Errorf("transaction shape {starts commits clock live maxLive} = %v, want %v", got, want)
				}
				for code, n := range st.Aborts {
					if n != 0 {
						t.Errorf("%d aborts %v, want none", n, code)
					}
				}
			})
		}
	}
}

// TestOversizedFixedStepTerminates is the regression test for a Collect
// livelock: a fixed step above the store buffer overflowed it on every attempt
// and, being fixed, never shrank. normalize now clamps the step to the buffer.
func TestOversizedFixedStepTerminates(t *testing.T) {
	for _, im := range stagedImpls() {
		t.Run(im.name, func(t *testing.T) {
			h := htm.NewHeap(htm.Config{Words: 1 << 18})
			col := im.mk(h, Options{Step: 64, MaxStep: 64})
			c := col.NewCtx(h.NewThread())
			for i := 0; i < 40; i++ {
				col.Register(c, Value(i+1))
			}
			done := make(chan []Value, 1)
			go func() { done <- col.Collect(col.NewCtx(h.NewThread()), nil) }()
			select {
			case got := <-done:
				if len(got) != 40 {
					t.Errorf("Collect returned %d values, want 40", len(got))
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Collect with Step 64 on a 32-entry store buffer did not return")
			}
		})
	}
	unbounded := htm.NewHeap(htm.Config{Words: 1 << 10, StoreBufferSize: -1})
	if o := (Options{Step: 64, MaxStep: 64}).normalize(unbounded); o.Step != 64 || o.MaxStep != 64 {
		t.Errorf("unbounded store buffer: normalized to step %d, max %d; want 64 and 64", o.Step, o.MaxStep)
	}
}

// TestStressCollectUnderChurn is the -race leg: one thread Collects while
// another deregisters and re-registers handles round-robin, so the structure
// being read is compacted, resized and freed under the gather. The invariant
// is the repo benchmark's: every sentinel (registered once, never churned) is
// in every Collect, every other value is one the churner issued, and the heap
// sweeps clean afterwards. Both append arrays gather with Txn.LoadStrided, so
// both run, on the plain heap and on the TLE heap kv runs. The geometry rows'
// names are their test IDs, kept from when the second row varied the clock's
// shard count and a metadata stripe width.
func TestStressCollectUnderChurn(t *testing.T) {
	const sentinels, churned = 8, 64
	const sentinelTag = Value(1) << 62
	collects := 2000
	if testing.Short() {
		collects = 300
	}
	for _, im := range stagedImpls() {
		switch im.name {
		case "ArrayDynAppendDereg", "ArrayStatAppendDereg", "ArrayDynSearchResize", "FastCollect":
		default:
			continue
		}
		t.Run(im.name, func(t *testing.T) {
			for _, geo := range []struct {
				name string
				cfg  htm.Config
			}{{"shards=0,shift=0", htm.Config{}}, {"shards=4,shift=2", htm.Config{EnableTLE: true}}} {
				t.Run(geo.name, func(t *testing.T) {
					geo.cfg.Words = 1 << 18
					h := htm.NewHeap(geo.cfg)
					col := im.mk(h, Options{Adaptive: true})
					sentCtx, churnCtx := col.NewCtx(h.NewThread()), col.NewCtx(h.NewThread())
					var pinned, handles []Handle
					for i := 0; i < sentinels; i++ {
						pinned = append(pinned, col.Register(sentCtx, sentinelTag|Value(i)))
					}
					for i := 0; i < churned; i++ {
						handles = append(handles, col.Register(churnCtx, Value(i+1)<<32|1))
					}
					var issued, collected atomic.Uint64 // newest version begun; Collects finished
					issued.Store(1)
					var stop atomic.Bool
					var wg sync.WaitGroup
					wg.Add(1)
					go func() { // churner: one churn per Collect, landing inside the next one
						defer wg.Done()
						for i := 0; !stop.Load(); i++ {
							slot := i % churned
							col.Deregister(churnCtx, handles[slot])
							ver := issued.Add(1)
							handles[slot] = col.Register(churnCtx, Value(slot+1)<<32|ver)
							for seen := collected.Load(); collected.Load() == seen && !stop.Load(); {
								runtime.Gosched()
							}
						}
					}()
					c := col.NewCtx(h.NewThread())
					var vals []Value
					for i := 0; i < collects && !t.Failed(); i++ {
						vals = col.Collect(c, vals[:0])
						newest := issued.Load()
						collected.Add(1)
						var seen [sentinels]bool
						for _, v := range vals {
							if v&sentinelTag != 0 {
								if v&^sentinelTag < sentinels {
									seen[v&^sentinelTag] = true
									continue
								}
								t.Errorf("collect %d: value %#x is no registered sentinel", i, v)
							} else if slot, ver := int(v>>32)-1, v&(1<<32-1); slot < 0 || slot >= churned || ver < 1 || ver > newest {
								t.Errorf("collect %d: value %#x maps to no handle ever registered (newest version %d)", i, v, newest)
							}
						}
						for s, ok := range seen {
							if !ok {
								t.Errorf("collect %d: sentinel %d missing from %d values", i, s, len(vals))
							}
						}
					}
					stop.Store(true)
					wg.Wait()
					for _, hd := range handles {
						col.Deregister(churnCtx, hd)
					}
					for _, hd := range pinned {
						col.Deregister(sentCtx, hd)
					}
					if got := col.Collect(c, nil); len(got) != 0 {
						t.Errorf("Collect after deregistering everything = %v", got)
					}
					c.Close()
					churnCtx.Close()
					sentCtx.Close()
					if ms, st := h.SweepMeta(), h.Stats(); ms.Locked != 0 || ms.FallbackTagged != 0 || ms.StripeErrors != 0 || ms.Allocated != st.LiveWords {
						t.Errorf("heap not quiescent: %+v, %d live words", ms, st.LiveWords)
					}
				})
			}
		})
	}
}

// TestWarmCollectDoesNotAllocate: once the Ctx's staging slice and the
// caller's slice have their size, a Collect touches the Go heap not at all —
// the walks gather in place and the drain appends into out's capacity.
func TestWarmCollectDoesNotAllocate(t *testing.T) {
	for _, im := range stagedImpls() {
		t.Run(im.name, func(t *testing.T) {
			h := htm.NewHeap(htm.Config{Words: 1 << 18})
			col := im.mk(h, Options{Adaptive: true})
			c := col.NewCtx(h.NewThread())
			for i := 0; i < 72; i++ {
				col.Register(c, Value(i+1))
			}
			out := col.Collect(c, nil)
			if n := testing.AllocsPerRun(50, func() { out = col.Collect(c, out[:0]) }); n != 0 {
				t.Errorf("warm Collect allocates %.1f times, want 0", n)
			}
			if len(out) != 72 {
				t.Errorf("Collect returned %d values, want 72", len(out))
			}
		})
	}
}
