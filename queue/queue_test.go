package queue

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/htm"
)

type qimpl struct {
	name string
	mk   func(h *htm.Heap) Queue
	// reclaims reports whether dequeued nodes are returned to the allocator.
	reclaims bool
}

func qimpls() []qimpl {
	return []qimpl{
		{"HTM", func(h *htm.Heap) Queue { return NewHTMQueue(h) }, true},
		{"MichaelScott", func(h *htm.Heap) Queue { return NewMSQueue(h) }, false},
		{"MichaelScottROP", func(h *htm.Heap) Queue { return NewMSQueueROP(h) }, true},
		{"MichaelScottEBR", func(h *htm.Heap) Queue { return NewMSQueueEBR(h) }, true},
	}
}

func closeCtx(q Queue, c *Ctx) {
	CloseCtx(q, c)
}

func forEachQueue(t *testing.T, f func(t *testing.T, im qimpl, q Queue, h *htm.Heap)) {
	t.Helper()
	for _, im := range qimpls() {
		t.Run(im.name, func(t *testing.T) {
			h := htm.NewHeap(htm.Config{Words: 1 << 18})
			f(t, im, im.mk(h), h)
		})
	}
}

func TestQueueEmptyDequeue(t *testing.T) {
	forEachQueue(t, func(t *testing.T, im qimpl, q Queue, h *htm.Heap) {
		c := q.NewCtx(h.NewThread())
		defer closeCtx(q, c)
		if _, ok := q.Dequeue(c); ok {
			t.Error("Dequeue on empty queue returned a value")
		}
	})
}

func TestQueueFIFOOrder(t *testing.T) {
	forEachQueue(t, func(t *testing.T, im qimpl, q Queue, h *htm.Heap) {
		c := q.NewCtx(h.NewThread())
		defer closeCtx(q, c)
		for i := uint64(1); i <= 100; i++ {
			q.Enqueue(c, i)
		}
		for i := uint64(1); i <= 100; i++ {
			v, ok := q.Dequeue(c)
			if !ok || v != i {
				t.Fatalf("Dequeue = (%d, %v), want (%d, true)", v, ok, i)
			}
		}
		if _, ok := q.Dequeue(c); ok {
			t.Error("queue should be empty")
		}
	})
}

func TestQueueInterleaved(t *testing.T) {
	forEachQueue(t, func(t *testing.T, im qimpl, q Queue, h *htm.Heap) {
		c := q.NewCtx(h.NewThread())
		defer closeCtx(q, c)
		next := uint64(1)
		expect := uint64(1)
		for round := 0; round < 50; round++ {
			for i := 0; i < 3; i++ {
				q.Enqueue(c, next)
				next++
			}
			for i := 0; i < 2; i++ {
				v, ok := q.Dequeue(c)
				if !ok || v != expect {
					t.Fatalf("Dequeue = (%d, %v), want (%d, true)", v, ok, expect)
				}
				expect++
			}
		}
	})
}

// TestQueueConcurrentConservation: N producers and M consumers; every
// enqueued value is dequeued exactly once.
func TestQueueConcurrentConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	forEachQueue(t, func(t *testing.T, im qimpl, q Queue, h *htm.Heap) {
		const producers, consumers, perProducer = 4, 4, 2000
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				c := q.NewCtx(h.NewThread())
				defer closeCtx(q, c)
				for i := uint64(0); i < perProducer; i++ {
					q.Enqueue(c, id<<32|i|1<<63)
				}
			}(uint64(p))
		}
		var mu sync.Mutex
		seen := make(map[uint64]int)
		prodDone := make(chan struct{})
		go func() { wg.Wait(); close(prodDone) }()
		var cwg sync.WaitGroup
		for cn := 0; cn < consumers; cn++ {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				c := q.NewCtx(h.NewThread())
				defer closeCtx(q, c)
				var local []uint64
				for {
					v, ok := q.Dequeue(c)
					if ok {
						local = append(local, v)
						continue
					}
					select {
					case <-prodDone:
						// One final drain after producers finished.
						if v, ok := q.Dequeue(c); ok {
							local = append(local, v)
							continue
						}
						mu.Lock()
						for _, v := range local {
							seen[v]++
						}
						mu.Unlock()
						return
					default:
					}
				}
			}()
		}
		cwg.Wait()
		if len(seen) != producers*perProducer {
			t.Fatalf("dequeued %d distinct values, want %d", len(seen), producers*perProducer)
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("value %#x dequeued %d times", v, n)
			}
		}
	})
}

// TestQueuePerProducerOrder: values from one producer are dequeued in
// their enqueue order (FIFO per producer under concurrency).
func TestQueuePerProducerOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	forEachQueue(t, func(t *testing.T, im qimpl, q Queue, h *htm.Heap) {
		const producers, perProducer = 3, 1500
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				c := q.NewCtx(h.NewThread())
				defer closeCtx(q, c)
				for i := uint64(0); i < perProducer; i++ {
					q.Enqueue(c, id<<48|i)
				}
			}(uint64(p + 1))
		}
		c := q.NewCtx(h.NewThread())
		defer closeCtx(q, c)
		lastSeen := make(map[uint64]uint64)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		drained := false
		for !drained {
			v, ok := q.Dequeue(c)
			if !ok {
				select {
				case <-done:
					if _, ok := q.Dequeue(c); !ok {
						drained = true
					}
				default:
				}
				continue
			}
			id, seq := v>>48, v&0xFFFFFFFFFFFF
			if last, ok := lastSeen[id]; ok && seq <= last {
				t.Fatalf("producer %d: saw seq %d after %d", id, seq, last)
			}
			lastSeen[id] = seq
		}
	})
}

// TestHTMQueueReclaimsMemory demonstrates the paper's space property: after
// draining, the HTM queue's live memory returns to its empty footprint, while
// the pool-based MS queue retains the historical maximum.
func TestHTMQueueReclaimsMemory(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	q := NewHTMQueue(h)
	c := q.NewCtx(h.NewThread())
	base := h.Stats().LiveWords
	for i := uint64(0); i < 1000; i++ {
		q.Enqueue(c, i+1)
	}
	if peak := h.Stats().LiveWords; peak < base+1000*qNodeWords {
		t.Fatalf("peak %d implausible", peak)
	}
	for {
		if _, ok := q.Dequeue(c); !ok {
			break
		}
	}
	if live := h.Stats().LiveWords; live != base {
		t.Errorf("live = %d after drain, want %d", live, base)
	}
}

// TestMSQueuePoolRetainsHistoricalMax documents the contrasting behaviour.
func TestMSQueuePoolRetainsHistoricalMax(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	q := NewMSQueue(h)
	c := q.NewCtx(h.NewThread())
	base := h.Stats().LiveWords
	for i := uint64(0); i < 1000; i++ {
		q.Enqueue(c, i+1)
	}
	for {
		if _, ok := q.Dequeue(c); !ok {
			break
		}
	}
	live := h.Stats().LiveWords
	if live < base+1000*qNodeWords {
		t.Errorf("pool variant freed memory? live = %d, base = %d", live, base)
	}
	if q.PoolSize(c) != 1000 {
		t.Errorf("pool size = %d, want 1000", q.PoolSize(c))
	}
}

// TestMSQueueROPEventuallyReclaims: after draining and releasing all hazard
// records, retired nodes must be freed.
func TestMSQueueROPEventuallyReclaims(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	q := NewMSQueueROP(h)
	c := q.NewCtx(h.NewThread())
	base := h.Stats().LiveWords
	for i := uint64(0); i < 500; i++ {
		q.Enqueue(c, i+1)
	}
	for {
		if _, ok := q.Dequeue(c); !ok {
			break
		}
	}
	q.CloseCtx(c)
	live := h.Stats().LiveWords
	// Everything except the dummy node should be reclaimed.
	if live > base+qNodeWords {
		t.Errorf("live = %d after drain+release, want <= %d", live, base+qNodeWords)
	}
}

// TestMSQueueEBREventuallyReclaims: after draining and releasing the epoch
// record, limbo nodes must be freed.
func TestMSQueueEBREventuallyReclaims(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	q := NewMSQueueEBR(h)
	c := q.NewCtx(h.NewThread())
	base := h.Stats().LiveWords
	for i := uint64(0); i < 500; i++ {
		q.Enqueue(c, i+1)
	}
	for {
		if _, ok := q.Dequeue(c); !ok {
			break
		}
	}
	q.CloseCtx(c)
	live := h.Stats().LiveWords
	// Everything except the dummy node should be reclaimed.
	if live > base+qNodeWords {
		t.Errorf("live = %d after drain+release, want <= %d", live, base+qNodeWords)
	}
}

// TestDrainN: the bounded drain returns values in FIFO order and stops at
// the cap.
func TestDrainN(t *testing.T) {
	forEachQueue(t, func(t *testing.T, im qimpl, q Queue, h *htm.Heap) {
		c := q.NewCtx(h.NewThread())
		defer closeCtx(q, c)
		for i := uint64(1); i <= 300; i++ {
			q.Enqueue(c, i)
		}
		first := DrainN(q, c, 100)
		if len(first) != 100 {
			t.Fatalf("DrainN(100) returned %d values", len(first))
		}
		for i, v := range first {
			if v != uint64(i+1) {
				t.Fatalf("DrainN[%d] = %d, want %d", i, v, i+1)
			}
		}
		if n := DrainCount(q, c, 50); n != 50 {
			t.Fatalf("DrainCount(50) = %d", n)
		}
		rest := Drain(q, c)
		if len(rest) != 150 {
			t.Fatalf("Drain returned %d values, want 150", len(rest))
		}
		if rest[0] != 151 {
			t.Errorf("Drain resumed at %d, want 151", rest[0])
		}
	})
}

// TestDrainNTerminatesUnderConcurrentProducer: with a producer racing the
// drain, an unbounded "until empty" loop need never exit; the cap guarantees
// termination.
func TestDrainNTerminatesUnderConcurrentProducer(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	q := NewMSQueue(h)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := q.NewCtx(h.NewThread())
		for i := uint64(1); !stop.Load(); i++ {
			q.Enqueue(c, i)
		}
	}()
	c := q.NewCtx(h.NewThread())
	out := DrainN(q, c, 500)
	stop.Store(true)
	wg.Wait()
	if len(out) > 500 {
		t.Errorf("DrainN returned %d values, cap was 500", len(out))
	}
}

// TestQuickQueueMatchesModel runs random op sequences against a slice model.
func TestQuickQueueMatchesModel(t *testing.T) {
	for _, im := range qimpls() {
		im := im
		t.Run(im.name, func(t *testing.T) {
			f := func(ops []uint8) bool {
				h := htm.NewHeap(htm.Config{Words: 1 << 18})
				q := im.mk(h)
				c := q.NewCtx(h.NewThread())
				defer closeCtx(q, c)
				var model []uint64
				next := uint64(1)
				for _, op := range ops {
					if op%2 == 0 {
						q.Enqueue(c, next)
						model = append(model, next)
						next++
					} else {
						v, ok := q.Dequeue(c)
						if len(model) == 0 {
							if ok {
								return false
							}
							continue
						}
						if !ok || v != model[0] {
							return false
						}
						model = model[1:]
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestQueueClockTicksPerOp pins how many version-clock ticks one operation
// costs on a quiet heap. Every tick is a locked RMW on the clock plus locked
// metadata transitions, so the count is the operation's write footprint on
// the simulated machine — and the regression guard against filling a fresh
// node with per-word StoreNT again (one tick per word; Thread.AllocInit fills
// it inside the allocation's own tick). The pinned number is the operation's
// own ticks — commits, NT stores and CASes — net of the one tick each
// allocator call costs, because ROP and EBR free in batches and the pooled
// queue allocates only when its pool is dry. HTMQueue allocates and frees per
// operation, so its totals are pinned too: 2 and 2.
func TestQueueClockTicksPerOp(t *testing.T) {
	want := map[string]struct{ enq, deq, deqExtra uint64 }{
		// One commit each way.
		"HTM": {enq: 1, deq: 1},
		// A pooled node is refilled in place: value, next-tag reset, link CAS,
		// tail CAS. The dequeue is the head CAS.
		"MichaelScott": {enq: 4, deq: 1},
		// Announce, link, swing the tail, clear; announce twice, swing the
		// head, clear twice.
		"MichaelScottROP": {enq: 4, deq: 5},
		// Pin, link, swing the tail, unpin; pin, swing the head, unpin — plus
		// the epoch-advance CAS when a retirement triggers one.
		"MichaelScottEBR": {enq: 4, deq: 3, deqExtra: 1},
	}
	forEachQueue(t, func(t *testing.T, im qimpl, q Queue, h *htm.Heap) {
		c := q.NewCtx(h.NewThread())
		defer closeCtx(q, c)
		w := want[im.name]
		measure := func(op func()) (own, allocs, frees uint64) {
			ticks, s := h.ClockNow(), h.Stats()
			op()
			d := h.Stats()
			allocs, frees = d.AllocCalls-s.AllocCalls, d.FreeCalls-s.FreeCalls
			return h.ClockNow() - ticks - allocs - frees, allocs, frees
		}
		for round := 0; round < 2; round++ {
			for i := 0; i < 200; i++ {
				own, allocs, frees := measure(func() { q.Enqueue(c, uint64(i+1)) })
				if own != w.enq {
					t.Fatalf("enqueue %d: %d ticks of its own, want %d", i, own, w.enq)
				}
				if im.name == "HTM" && (allocs != 1 || frees != 0) {
					t.Fatalf("enqueue %d: %d allocs, %d frees, want 1, 0", i, allocs, frees)
				}
			}
			for i := 0; i < 200; i++ {
				own, allocs, frees := measure(func() { q.Dequeue(c) })
				if own != w.deq && own != w.deq+w.deqExtra {
					t.Fatalf("dequeue %d: %d ticks of its own, want %d (+%d at most)", i, own, w.deq, w.deqExtra)
				}
				if im.name == "HTM" && (allocs != 0 || frees != 1) {
					t.Fatalf("dequeue %d: %d allocs, %d frees, want 0, 1", i, allocs, frees)
				}
			}
		}
	})
}

// TestHTMQueueDoesNotAllocate: the node image and both transaction closures
// stay on the goroutine stack.
func TestHTMQueueDoesNotAllocate(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 12})
	q := NewHTMQueue(h)
	c := q.NewCtx(h.NewThread())
	if a := testing.AllocsPerRun(200, func() {
		q.Enqueue(c, 7)
		if v, ok := q.Dequeue(c); !ok || v != 7 {
			t.Fatalf("Dequeue = (%d, %v), want (7, true)", v, ok)
		}
	}); a != 0 {
		t.Errorf("HTMQueue enqueue+dequeue allocates %v Go objects per pair, want 0", a)
	}
}
