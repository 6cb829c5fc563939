package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/htm"
)

// impl describes one Collector implementation under conformance test.
type impl struct {
	name string
	mk   func(h *htm.Heap) Collector
	// dynamic reports whether the algorithm actually solves the Dynamic
	// Collect problem (reclaims and resizes); the two Stat arrays and the
	// Static baseline do not.
	dynamic bool
	// maxThreads limits concurrency for implementations with static thread
	// maps (0 = unlimited).
	maxThreads int
	// extension marks a variant the paper describes but did not implement.
	extension bool
}

const testCapacity = 256

// implementations is the conformance matrix: the paper's algorithms, then the
// extensions it describes but did not implement.
func implementations() []impl {
	return []impl{
		{name: "HOHRC", mk: func(h *htm.Heap) Collector { return NewHOHRC(h, Options{Step: 4}) }, dynamic: true},
		{name: "HOHRC/step1", mk: func(h *htm.Heap) Collector { return NewHOHRC(h, Options{Step: 1}) }, dynamic: true},
		{name: "FastCollect", mk: func(h *htm.Heap) Collector { return NewFastCollect(h, Options{Step: 8}) }, dynamic: true},
		{name: "FastCollect/adaptive", mk: func(h *htm.Heap) Collector { return NewFastCollect(h, Options{Step: 8, Adaptive: true}) }, dynamic: true},
		{name: "ArrayStatSearchNo", mk: func(h *htm.Heap) Collector { return NewArrayStatSearchNo(h, testCapacity, Options{Step: 8}) }},
		{name: "ArrayStatAppendDereg", mk: func(h *htm.Heap) Collector { return NewArrayStatAppendDereg(h, testCapacity, Options{Step: 8}) }},
		{name: "ArrayDynSearchResize", mk: func(h *htm.Heap) Collector { return NewArrayDynSearchResize(h, 0, Options{Step: 8}) }, dynamic: true},
		{name: "ArrayDynAppendDereg", mk: func(h *htm.Heap) Collector { return NewArrayDynAppendDereg(h, 0, Options{Step: 8}) }, dynamic: true},
		{name: "ArrayDynAppendDereg/adaptive", mk: func(h *htm.Heap) Collector { return NewArrayDynAppendDereg(h, 0, Options{Step: 8, Adaptive: true}) }, dynamic: true},
		{name: "StaticBaseline", mk: func(h *htm.Heap) Collector { return NewStaticBaseline(h, testCapacity) }, maxThreads: 16},
		{name: "DynamicBaseline", mk: func(h *htm.Heap) Collector { return NewDynamicBaseline(h) }, dynamic: true},
		{name: "ArrayDynAppendDeregUpdOpt", mk: func(h *htm.Heap) Collector { return NewArrayDynAppendDeregUpdOpt(h, 0, Options{Step: 8}) }, dynamic: true, extension: true},
		{name: "DeferredReuse(ArrayDynAppendDereg)", mk: func(h *htm.Heap) Collector {
			return NewDeferredReuse(NewArrayDynAppendDereg(h, 0, Options{Step: 8}), 4)
		}, dynamic: true, extension: true},
		{name: "DeferredReuse(FastCollect)", mk: func(h *htm.Heap) Collector {
			return NewDeferredReuse(NewFastCollect(h, Options{Step: 8}), 4)
		}, dynamic: true, extension: true},
	}
}

func forEachImpl(t *testing.T, f func(t *testing.T, im impl, col Collector, h *htm.Heap)) {
	t.Helper()
	for _, im := range implementations() {
		t.Run(im.name, func(t *testing.T) {
			h := htm.NewHeap(htm.Config{Words: 1 << 18})
			f(t, im, im.mk(h), h)
		})
	}
}

// sortedValues returns a sorted copy for multiset comparison.
func sortedValues(vs []Value) []Value {
	out := append([]Value(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func assertMultisetEqual(t *testing.T, got, want []Value, msg string) {
	t.Helper()
	g, w := sortedValues(got), sortedValues(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d values %v, want %d values %v", msg, len(g), g, len(w), w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: got %v, want %v", msg, g, w)
		}
	}
}

func TestCollectEmpty(t *testing.T) {
	forEachImpl(t, func(t *testing.T, im impl, col Collector, h *htm.Heap) {
		c := col.NewCtx(h.NewThread())
		if got := col.Collect(c, nil); len(got) != 0 {
			t.Errorf("Collect on empty object = %v", got)
		}
	})
}

func TestRegisterCollectDeregister(t *testing.T) { forEachImpl(t, registerCollectDeregister) }

func registerCollectDeregister(t *testing.T, im impl, col Collector, h *htm.Heap) {
	c := col.NewCtx(h.NewThread())
	h1 := col.Register(c, 10)
	h2 := col.Register(c, 20)
	h3 := col.Register(c, 30)
	assertMultisetEqual(t, col.Collect(c, nil), []Value{10, 20, 30}, "after 3 registers")
	col.Deregister(c, h2)
	assertMultisetEqual(t, col.Collect(c, nil), []Value{10, 30}, "after deregister")
	col.Update(c, h1, 11)
	col.Update(c, h3, 33)
	assertMultisetEqual(t, col.Collect(c, nil), []Value{11, 33}, "after updates")
	col.Deregister(c, h1)
	col.Deregister(c, h3)
	if got := col.Collect(c, nil); len(got) != 0 {
		t.Errorf("Collect after deregistering all = %v", got)
	}
}

func TestHandleReuseAfterDeregister(t *testing.T) {
	forEachImpl(t, func(t *testing.T, im impl, col Collector, h *htm.Heap) {
		c := col.NewCtx(h.NewThread())
		for i := 0; i < 50; i++ {
			hd := col.Register(c, Value(i+1))
			assertMultisetEqual(t, col.Collect(c, nil), []Value{Value(i + 1)}, "single handle cycle")
			col.Deregister(c, hd)
		}
		if got := col.Collect(c, nil); len(got) != 0 {
			t.Errorf("leftover values: %v", got)
		}
	})
}

func TestCollectAppendsToOut(t *testing.T) {
	forEachImpl(t, func(t *testing.T, im impl, col Collector, h *htm.Heap) {
		c := col.NewCtx(h.NewThread())
		col.Register(c, 7)
		prefix := []Value{1, 2, 3}
		got := col.Collect(c, prefix)
		if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Errorf("Collect did not append: %v", got)
		}
	})
}

func TestManyHandlesSingleThread(t *testing.T) {
	forEachImpl(t, func(t *testing.T, im impl, col Collector, h *htm.Heap) {
		n := 100
		if im.maxThreads != 0 {
			n = testCapacity / 16 // StaticBaseline partitions per thread
		}
		c := col.NewCtx(h.NewThread())
		want := make([]Value, 0, n)
		handles := make([]Handle, 0, n)
		for i := 0; i < n; i++ {
			v := Value(1000 + i)
			handles = append(handles, col.Register(c, v))
			want = append(want, v)
		}
		assertMultisetEqual(t, col.Collect(c, nil), want, "bulk registration")
		// Deregister every other handle.
		want2 := want[:0]
		for i, hd := range handles {
			if i%2 == 0 {
				col.Deregister(c, hd)
			} else {
				want2 = append(want2, Value(1000+i))
			}
		}
		assertMultisetEqual(t, col.Collect(c, nil), want2, "after alternating deregister")
	})
}

// TestModelCheck runs a random single-threaded operation sequence against a
// map model; with no concurrency, Collect must return the model's values
// exactly.
func TestModelCheck(t *testing.T) { forEachImpl(t, modelCheck) }

func modelCheck(t *testing.T, im impl, col Collector, h *htm.Heap) {
	rng := rand.New(rand.NewSource(42))
	c := col.NewCtx(h.NewThread())
	model := make(map[Handle]Value)
	var handles []Handle
	next := Value(1)
	limit := 60
	if im.maxThreads != 0 {
		limit = testCapacity/16 - 1
	}
	for op := 0; op < 2000; op++ {
		switch r := rng.Intn(10); {
		case r < 3 && len(handles) < limit:
			v := next
			next++
			hd := col.Register(c, v)
			if _, dup := model[hd]; dup {
				t.Fatalf("Register returned live handle %v twice", hd)
			}
			model[hd] = v
			handles = append(handles, hd)
		case r < 6 && len(handles) > 0:
			i := rng.Intn(len(handles))
			v := next
			next++
			col.Update(c, handles[i], v)
			model[handles[i]] = v
		case r < 8 && len(handles) > 0:
			i := rng.Intn(len(handles))
			hd := handles[i]
			handles[i] = handles[len(handles)-1]
			handles = handles[:len(handles)-1]
			col.Deregister(c, hd)
			delete(model, hd)
		default:
			want := make([]Value, 0, len(model))
			for _, v := range model {
				want = append(want, v)
			}
			assertMultisetEqual(t, col.Collect(c, nil), want, fmt.Sprintf("op %d", op))
		}
	}
}

// TestStableHandlesAlwaysCollected is the key liveness/safety property under
// concurrency: handles registered before any churn begins and never updated
// or deregistered must appear in every concurrent Collect.
func TestStableHandlesAlwaysCollected(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	forEachImpl(t, stableHandlesAlwaysCollected)
}

func stableHandlesAlwaysCollected(t *testing.T, im impl, col Collector, h *htm.Heap) {
	setupCtx := col.NewCtx(h.NewThread())
	const stable = 8
	stableVals := make(map[Value]bool, stable)
	for i := 0; i < stable; i++ {
		v := Value(0xBEEF000 + i)
		col.Register(setupCtx, v)
		stableVals[v] = true
	}
	churners := 4
	if im.maxThreads != 0 && churners > im.maxThreads-2 {
		churners = im.maxThreads - 2
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			c := col.NewCtx(h.NewThread())
			var mine []Handle
			vn := Value(seed) << 32
			for {
				select {
				case <-stop:
					for _, hd := range mine {
						col.Deregister(c, hd)
					}
					return
				default:
				}
				switch {
				case len(mine) < 6 && rng.Intn(2) == 0:
					vn++
					mine = append(mine, col.Register(c, vn))
				case len(mine) > 0 && rng.Intn(3) == 0:
					i := rng.Intn(len(mine))
					col.Deregister(c, mine[i])
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				case len(mine) > 0:
					vn++
					col.Update(c, mine[rng.Intn(len(mine))], vn)
				}
			}
		}(int64(w + 1))
	}
	collectCtx := col.NewCtx(h.NewThread())
	for round := 0; round < 100; round++ {
		got := col.Collect(collectCtx, nil)
		found := make(map[Value]bool)
		for _, v := range got {
			if stableVals[v] {
				found[v] = true
			}
		}
		if len(found) != stable {
			close(stop)
			wg.Wait()
			t.Fatalf("round %d: Collect missed %d stable handles (got %d values)",
				round, stable-len(found), len(got))
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentQuiescentExactness runs churn, then quiesces and checks the
// final Collect equals the surviving bindings exactly.
func TestConcurrentQuiescentExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	forEachImpl(t, func(t *testing.T, im impl, col Collector, h *htm.Heap) {
		workers := 6
		if im.maxThreads != 0 && workers > im.maxThreads-1 {
			workers = im.maxThreads - 1
		}
		var mu sync.Mutex
		final := make(map[Value]int) // surviving value multiset
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				c := col.NewCtx(h.NewThread())
				type bind struct {
					h Handle
					v Value
				}
				var mine []bind
				vn := Value(seed) << 40
				for op := 0; op < 400; op++ {
					switch {
					case len(mine) < 8 && rng.Intn(2) == 0:
						vn++
						mine = append(mine, bind{col.Register(c, vn), vn})
					case len(mine) > 0 && rng.Intn(3) == 0:
						i := rng.Intn(len(mine))
						col.Deregister(c, mine[i].h)
						mine[i] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					case len(mine) > 0:
						vn++
						i := rng.Intn(len(mine))
						col.Update(c, mine[i].h, vn)
						mine[i].v = vn
					default:
						col.Collect(c, nil)
					}
				}
				mu.Lock()
				for _, b := range mine {
					final[b.v]++
				}
				mu.Unlock()
			}(int64(w + 1))
		}
		wg.Wait()
		c := col.NewCtx(h.NewThread())
		got := col.Collect(c, nil)
		gotCount := make(map[Value]int)
		for _, v := range got {
			gotCount[v]++
		}
		for v, n := range final {
			if gotCount[v] != n {
				t.Errorf("value %#x: collected %d times, want %d", v, gotCount[v], n)
			}
		}
		for v := range gotCount {
			if _, ok := final[v]; !ok {
				t.Errorf("collected stale value %#x", v)
			}
		}
	})
}

// TestSpaceReclaimed verifies the paper's space property for the dynamic
// algorithms: after deregistering everything, live heap usage returns to
// within a constant of the quiescent baseline rather than retaining the
// historical maximum.
func TestSpaceReclaimed(t *testing.T) {
	forEachImpl(t, func(t *testing.T, im impl, col Collector, h *htm.Heap) {
		if !im.dynamic {
			t.Skip("static algorithms retain their arrays by design")
		}
		c := col.NewCtx(h.NewThread())
		base := h.Stats().LiveWords
		var handles []Handle
		for i := 0; i < 200; i++ {
			handles = append(handles, col.Register(c, Value(i+1)))
		}
		peak := h.Stats().LiveWords
		if peak < base+200 {
			t.Fatalf("peak usage %d implausibly low (base %d)", peak, base)
		}
		for _, hd := range handles {
			col.Deregister(c, hd)
		}
		after := h.Stats().LiveWords
		// Allow a small constant slack (a minimum-size array). A Ctx holds no
		// heap block, so staging needs none.
		slack := uint64(2 * slotWords * DefaultMinSize)
		if after > base+slack {
			t.Errorf("space not reclaimed: base=%d peak=%d after=%d (slack %d)", base, peak, after, slack)
		}
	})
}

func TestCollectDuplicatesAllowedButBounded(t *testing.T) {
	// Sanity: single-threaded collects must not contain duplicates at all.
	forEachImpl(t, func(t *testing.T, im impl, col Collector, h *htm.Heap) {
		c := col.NewCtx(h.NewThread())
		for i := 0; i < 12; i++ {
			col.Register(c, Value(100+i))
		}
		got := col.Collect(c, nil)
		seen := make(map[Value]bool)
		for _, v := range got {
			if seen[v] {
				t.Fatalf("duplicate value %d in quiescent collect", v)
			}
			seen[v] = true
		}
	})
}
