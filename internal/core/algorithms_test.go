package core

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/htm"
)

// TestArrayDynResizeInvariant checks Figure 2's capacity invariant
// max(count, MIN_SIZE) <= capacity <= 4*count at quiescent points of a grow
// and shrink cycle.
func TestArrayDynResizeInvariant(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	a := NewArrayDynAppendDereg(h, 4, Options{Step: 8})
	c := a.NewCtx(h.NewThread())
	check := func(when string) {
		t.Helper()
		count, capacity := a.Registered(), a.Capacity()
		min := count
		if min < 4 {
			min = 4
		}
		if capacity < min {
			t.Fatalf("%s: capacity %d < max(count=%d, MIN=4)", when, capacity, count)
		}
		if count > 0 && capacity > 4*count {
			t.Fatalf("%s: capacity %d > 4*count (%d)", when, capacity, count)
		}
	}
	var handles []Handle
	for i := 0; i < 300; i++ {
		handles = append(handles, a.Register(c, Value(i+1)))
		check("grow")
	}
	if a.Capacity() < 300 {
		t.Fatalf("capacity %d after 300 registers", a.Capacity())
	}
	for i := len(handles) - 1; i >= 0; i-- {
		a.Deregister(c, handles[i])
		check("shrink")
	}
	if got := a.Capacity(); got > 4*DefaultMinSize {
		t.Errorf("capacity %d did not shrink back", got)
	}
}

// TestArrayDynGrowShrinkReclaimsArrays verifies old arrays are freed: cycling
// up and down repeatedly must not grow live heap usage monotonically.
func TestArrayDynGrowShrinkReclaimsArrays(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	a := NewArrayDynAppendDereg(h, 4, Options{Step: 8})
	c := a.NewCtx(h.NewThread())
	var after1 uint64
	for cycle := 0; cycle < 5; cycle++ {
		var handles []Handle
		for i := 0; i < 200; i++ {
			handles = append(handles, a.Register(c, Value(i+1)))
		}
		for _, hd := range handles {
			a.Deregister(c, hd)
		}
		if cycle == 0 {
			after1 = h.Stats().LiveWords
		}
	}
	if after := h.Stats().LiveWords; after > after1 {
		t.Errorf("live words grew across cycles: %d -> %d", after1, after)
	}
}

// TestArrayStatSearchNoHighWater verifies the historical-maximum traversal
// behaviour the paper shows in Figure 8: the high-water mark never drops.
func TestArrayStatSearchNoHighWater(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	a := NewArrayStatSearchNo(h, 64, Options{Step: 8})
	c := a.NewCtx(h.NewThread())
	var handles []Handle
	for i := 0; i < 40; i++ {
		handles = append(handles, a.Register(c, Value(i+1)))
	}
	if hw := a.HighWater(); hw != 40 {
		t.Fatalf("high water = %d, want 40", hw)
	}
	for _, hd := range handles {
		a.Deregister(c, hd)
	}
	if hw := a.HighWater(); hw != 40 {
		t.Errorf("high water dropped to %d after deregistering", hw)
	}
	// Slots are reused from the low end, so the mark stays.
	hd := a.Register(c, 99)
	if hw := a.HighWater(); hw != 40 {
		t.Errorf("high water = %d after one re-register", hw)
	}
	a.Deregister(c, hd)
}

// TestHOHRCPinsDrainAndNodesFree: after concurrent Collects finish, all
// reference counts must be zero and deregistered nodes must be reclaimed.
func TestHOHRCPinsDrainAndNodesFree(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	l := NewHOHRC(h, Options{Step: 4})
	setup := l.NewCtx(h.NewThread())
	base := h.Stats().LiveWords
	var handles []Handle
	for i := 0; i < 32; i++ {
		handles = append(handles, l.Register(setup, Value(i+1)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := l.NewCtx(h.NewThread())
			defer c.Close()
			for i := 0; i < 200; i++ {
				l.Collect(c, nil)
			}
		}()
	}
	// Concurrently deregister half the nodes while collects are pinning.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(handles); i += 2 {
			l.Deregister(setup, handles[i])
		}
	}()
	wg.Wait()
	for i := 1; i < len(handles); i += 2 {
		l.Deregister(setup, handles[i])
	}
	// All nodes deregistered and no collects running: everything must be
	// unlinked and reclaimed (pins drained).
	if got := l.Collect(setup, nil); len(got) != 0 {
		t.Fatalf("collect after full deregister = %v", got)
	}
	setup.Close()
	if live := h.Stats().LiveWords; live > base {
		t.Errorf("nodes leaked: base=%d live=%d", base, live)
	}
}

// TestFastCollectRestartsUnderDeregister verifies that a Collect overlapping
// Deregisters still returns every stable handle (restart correctness).
func TestFastCollectRestartsUnderDeregister(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	l := NewFastCollect(h, Options{Step: 2})
	setup := l.NewCtx(h.NewThread())
	stable := make(map[Value]bool)
	for i := 0; i < 16; i++ {
		v := Value(0xAAA00 + i)
		l.Register(setup, v)
		stable[v] = true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn registers/deregisters to force restarts
		defer wg.Done()
		c := l.NewCtx(h.NewThread())
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			hd := l.Register(c, Value(0xBBB00+i%7))
			l.Deregister(c, hd)
		}
	}()
	c := l.NewCtx(h.NewThread())
	for round := 0; round < 200; round++ {
		got := l.Collect(c, nil)
		found := 0
		for _, v := range got {
			if stable[v] {
				found++
			}
		}
		if found < len(stable) {
			close(stop)
			wg.Wait()
			t.Fatalf("round %d: found %d of %d stable handles", round, found, len(stable))
		}
	}
	close(stop)
	wg.Wait()
}

// TestStepHistogramRecorded checks Figure 6's instrumentation: adaptive
// contexts record how many elements were collected at each step size.
func TestStepHistogramRecorded(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	a := NewArrayDynAppendDereg(h, 0, Options{Step: 4, Adaptive: true})
	c := a.NewCtx(h.NewThread())
	for i := 0; i < 50; i++ {
		a.Register(c, Value(i+1))
	}
	for i := 0; i < 20; i++ {
		a.Collect(c, nil)
	}
	hist := c.StepHistogram()
	if len(hist) == 0 {
		t.Fatal("no histogram recorded")
	}
	var total uint64
	for step, n := range hist {
		if step < 1 || step > htm.RockStoreBufferSize {
			t.Errorf("histogram step %d out of range", step)
		}
		total += n
	}
	if total != 20*50 {
		t.Errorf("histogram total = %d, want %d", total, 20*50)
	}
	// Uncontended: the step should have adapted upward from 4.
	if _, only4 := hist[4]; only4 && len(hist) == 1 {
		t.Error("adaptive step never grew in an uncontended run")
	}
}

// TestNonAdaptiveHasNoHistogram confirms the fixed-step configuration skips
// the bookkeeping entirely (the overhead Figure 5 charges to "adapt cost" is
// only paid when requested).
func TestNonAdaptiveHasNoHistogram(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	a := NewArrayDynAppendDereg(h, 0, Options{Step: 4})
	c := a.NewCtx(h.NewThread())
	a.Register(c, 1)
	a.Collect(c, nil)
	if hist := c.StepHistogram(); hist != nil {
		t.Errorf("histogram = %v for non-adaptive ctx", hist)
	}
}

// TestTrackOutcomesKeepsStepFixed verifies the "Best (adapt cost)" mode:
// outcomes are recorded but the step never moves.
func TestTrackOutcomesKeepsStepFixed(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	a := NewArrayDynAppendDereg(h, 0, Options{Step: 8, TrackOutcomes: true})
	c := a.NewCtx(h.NewThread())
	for i := 0; i < 40; i++ {
		a.Register(c, Value(i+1))
	}
	for i := 0; i < 30; i++ {
		a.Collect(c, nil)
	}
	hist := c.StepHistogram()
	if len(hist) != 1 {
		t.Fatalf("step moved under TrackOutcomes: histogram %v", hist)
	}
	if _, ok := hist[8]; !ok {
		t.Errorf("expected all collects at step 8, got %v", hist)
	}
}

// TestDynamicBaselineRecyclesNodes: deregistered nodes are reused by later
// registrations rather than growing the list without bound.
func TestDynamicBaselineRecyclesNodes(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	b := NewDynamicBaseline(h)
	c := b.NewCtx(h.NewThread())
	for i := 0; i < 100; i++ {
		hd := b.Register(c, Value(i+1))
		b.Deregister(c, hd)
	}
	if n := b.ListLength(); n > 2 {
		t.Errorf("list length %d after serial register/deregister cycles", n)
	}
}

// TestDynamicBaselineConcurrentChurn hammers the counted-pointer protocol;
// the heap panics on any use-after-free, double free, or torn traversal.
// The plan's YieldEvery maximizes interleaving: the benchmark suite
// originally caught a use-after-free in tryUnlink (node dereferenced without
// holding the edge mark) only under yield-amplified schedules.
func TestDynamicBaselineConcurrentChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	h := htm.NewHeap(htm.Config{Words: 1 << 18, Faults: &htm.FaultPlan{YieldEvery: 2}})
	b := NewDynamicBaseline(h)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c := b.NewCtx(h.NewThread())
			var mine []Handle
			rng := seed | 1
			for i := 0; i < 1500; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				switch {
				case len(mine) < 4 && rng%2 == 0:
					mine = append(mine, b.Register(c, Value(rng|1)))
				case len(mine) > 0 && rng%3 == 0:
					i := int(rng % uint64(len(mine)))
					b.Deregister(c, mine[i])
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				case len(mine) > 0:
					b.Update(c, mine[int(rng%uint64(len(mine)))], Value(rng|1))
				default:
					b.Collect(c, nil)
				}
			}
			for _, hd := range mine {
				b.Deregister(c, hd)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	c := b.NewCtx(h.NewThread())
	if got := b.Collect(c, nil); len(got) != 0 {
		t.Errorf("leftover values after full deregister: %v", got)
	}
}

// TestQuickArrayDynSingleThreadModel is a property-based single-thread model
// check specifically for the flagship Figure 2 algorithm with tiny MIN_SIZE,
// maximizing resize traffic.
func TestQuickArrayDynSingleThreadModel(t *testing.T) {
	f := func(ops []uint16) bool {
		h := htm.NewHeap(htm.Config{Words: 1 << 18})
		a := NewArrayDynAppendDereg(h, 1, Options{Step: 3})
		c := a.NewCtx(h.NewThread())
		model := make(map[Handle]Value)
		var handles []Handle
		next := Value(1)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				hd := a.Register(c, next)
				model[hd] = next
				handles = append(handles, hd)
				next++
			case 1:
				if len(handles) > 0 {
					i := int(op/4) % len(handles)
					a.Update(c, handles[i], next)
					model[handles[i]] = next
					next++
				}
			case 2:
				if len(handles) > 0 {
					i := int(op/4) % len(handles)
					a.Deregister(c, handles[i])
					delete(model, handles[i])
					handles[i] = handles[len(handles)-1]
					handles = handles[:len(handles)-1]
				}
			case 3:
				got := a.Collect(c, nil)
				if len(got) != len(model) {
					return false
				}
				want := make(map[Value]int)
				for _, v := range model {
					want[v]++
				}
				for _, v := range got {
					want[v]--
					if want[v] < 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
