package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/htm"
)

// The contended-overflow workload: every operation writes more distinct
// words than the store buffer holds, so every operation completes on the TLE
// fallback path. This is the §6 scenario the fine-grained fallback exists
// for — under the paper's single global fallback lock these operations
// serialize even when their footprints are disjoint, and every hardware
// transaction in the process waits out each critical section at begin.

// fallbackHeapWords sizes the per-point heap: each worker needs only its own
// small block, but keep headroom for thread-cache stranding.
const fallbackHeapWords = 1 << 18

// fallbackStoreBuffer is the deliberately tiny store buffer of the
// contended-overflow workload; fallbackWrites distinct stores overflow it on
// the first hardware attempt and MaxRetries 1 engages the fallback at once.
const (
	fallbackStoreBuffer = 2
	fallbackWrites      = 8
)

func fallbackHeap(cfg Config, global bool) *htm.Heap {
	return fallbackHeapSpins(cfg, global, 0)
}

// fallbackHeapSpins additionally sets the out-of-order acquire budget
// (htm.Config.FallbackSpins: 0 selects the engine default, negative means no
// spinning — release-and-retry immediately on any out-of-order conflict).
func fallbackHeapSpins(cfg Config, global bool, spins int) *htm.Heap {
	return htm.NewHeap(htm.Config{
		Words:           fallbackHeapWords,
		StoreBufferSize: fallbackStoreBuffer,
		EnableTLE:       true,
		MaxRetries:      1,
		GlobalFallback:  global,
		FallbackSpins:   spins,
		YieldEvery:      cfg.YieldEvery,
		NoMaxLive:       true,
	})
}

// FallbackOverflow measures fallback throughput: `threads` workers each run
// transactions that overflow the store buffer and complete on the fallback
// path. With disjoint=true every worker owns its block (the footprints share
// nothing); otherwise all workers hammer one shared block. global starts the
// heap in the global-lock mode (htm.Config.GlobalFallback).
func FallbackOverflow(cfg Config, threads int, disjoint, global bool) Result {
	cfg = cfg.withDefaults()
	return overflowOn(fallbackHeap(cfg, global), cfg, threads, disjoint)
}

// FallbackSpinsOverflow is the shared-footprint overflow workload run with an
// explicit out-of-order acquire budget: how long a fallback acquire spins on
// a lock held by a LOWER-addressed owner before releasing its whole set and
// retrying. spins=0 means no spinning at all (mapped to the config's
// negative encoding); the engine default is 128.
func FallbackSpinsOverflow(cfg Config, threads, spins int) Result {
	cfg = cfg.withDefaults()
	if spins == 0 {
		spins = -1 // Config.FallbackSpins: 0 would select the default
	}
	return overflowOn(fallbackHeapSpins(cfg, false, spins), cfg, threads, false)
}

// overflowOn runs the contended-overflow workload on a prepared heap.
func overflowOn(h *htm.Heap, cfg Config, threads int, disjoint bool) Result {
	setup := h.NewThread()
	shared := setup.Alloc(fallbackWrites)

	b := newBarrier(threads)
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := h.NewThread()
			blk := shared
			if disjoint {
				blk = th.Alloc(fallbackWrites)
			}
			b.arrive()
			d := deadliner{deadline: time.Now().Add(cfg.PointDuration)}
			n := uint64(0)
			for !d.expired() {
				th.Atomic(func(tx *htm.Txn) {
					for i := 0; i < fallbackWrites; i++ {
						a := blk + htm.Addr(i)
						tx.Store(a, tx.Load(a)+1)
					}
				})
				n++
			}
			ops.Add(n)
		}(w)
	}
	startedAt := b.release()
	wg.Wait()
	elapsed := time.Since(startedAt)
	return Result{Ops: ops.Load(), Elapsed: elapsed, Stats: h.Stats()}
}

// FallbackInterference measures what persistent fallback traffic costs the
// hardware path: one worker loops overflowing (fallback) operations on its
// private block while `threads` other workers run small hardware
// transactions on their own private words. Only the hardware workers'
// operations are counted. Under the global lock every hardware begin waits
// out every fallback critical section; under the fine-grained fallback the
// footprints are disjoint and the hardware path never waits.
func FallbackInterference(cfg Config, threads int, global bool) Result {
	cfg = cfg.withDefaults()
	h := fallbackHeap(cfg, global)

	b := newBarrier(threads + 1)
	stop := make(chan struct{})
	var ops atomic.Uint64
	var hwWg, fbWg sync.WaitGroup

	fbWg.Add(1)
	go func() { // the fallback looper
		defer fbWg.Done()
		th := h.NewThread()
		blk := th.Alloc(fallbackWrites)
		b.arrive()
		for {
			select {
			case <-stop:
				return
			default:
			}
			th.Atomic(func(tx *htm.Txn) {
				for i := 0; i < fallbackWrites; i++ {
					a := blk + htm.Addr(i)
					tx.Store(a, tx.Load(a)+1)
				}
			})
		}
	}()

	for w := 0; w < threads; w++ {
		hwWg.Add(1)
		go func(id int) {
			defer hwWg.Done()
			th := h.NewThread()
			word := th.Alloc(1)
			b.arrive()
			d := deadliner{deadline: time.Now().Add(cfg.PointDuration)}
			n := uint64(0)
			for !d.expired() {
				th.Atomic(func(tx *htm.Txn) {
					tx.Store(word, tx.Load(word)+1)
				})
				n++
			}
			ops.Add(n)
		}(w)
	}
	startedAt := b.release()
	// The hardware workers own the deadline; the fallback looper runs until
	// they are done, so they face fallback traffic for the whole window.
	hwWg.Wait()
	elapsed := time.Since(startedAt)
	close(stop)
	fbWg.Wait()
	return Result{Ops: ops.Load(), Elapsed: elapsed, Stats: h.Stats()}
}

// FallbackScaling renders the contended-overflow figure: fallback throughput
// versus thread count, fine-grained against the global-lock baseline, on
// disjoint and on fully shared footprints. The paper's global lock
// serializes all four series; the fine-grained fallback lets the disjoint
// series scale while the shared series stays (correctly) serialized by true
// data conflicts.
func FallbackScaling(cfg Config, threadCounts []int) *Table {
	if threadCounts == nil {
		threadCounts = DefaultThreadCounts
	}
	t := &Table{Title: "Fallback scaling: contended-overflow [ops/us]", XLabel: "threads"}
	for _, n := range threadCounts {
		t.Xs = append(t.Xs, fmt.Sprint(n))
	}
	variants := []struct {
		label            string
		disjoint, global bool
	}{
		{"fine-grained disjoint", true, false},
		{"global-lock disjoint", true, true},
		{"fine-grained shared", false, false},
		{"global-lock shared", false, true},
	}
	for _, v := range variants {
		s := Series{Label: v.label}
		for _, n := range threadCounts {
			r := FallbackOverflow(cfg, n, v.disjoint, v.global)
			s.Ys = append(s.Ys, r.OpsPerUs())
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// FallbackSpinsSweep renders shared-footprint overflow throughput across
// out-of-order acquire budgets (the Config.FallbackSpins knob) at a fixed
// thread count. Too small a budget releases and retries on every transient
// inversion; too large spins on locks whose owners are themselves spinning.
// The sweep locates the engine default (128) on that curve.
func FallbackSpinsSweep(cfg Config, threads int, spinsValues []int) *Table {
	t := &Table{
		Title:  "Fallback spins knob: shared contended-overflow [ops/us]",
		XLabel: "spins",
	}
	for _, sp := range spinsValues {
		t.Xs = append(t.Xs, fmt.Sprint(sp))
	}
	s := Series{Label: fmt.Sprintf("fine-grained shared, %d threads", threads)}
	for _, sp := range spinsValues {
		r := FallbackSpinsOverflow(cfg, threads, sp)
		s.Ys = append(s.Ys, r.OpsPerUs())
	}
	t.Series = append(t.Series, s)
	return t
}

// FallbackInterferenceTable renders hardware throughput beside one
// persistent fallback looper, fine-grained versus global-lock, across
// hardware thread counts.
func FallbackInterferenceTable(cfg Config, threadCounts []int) *Table {
	if threadCounts == nil {
		threadCounts = DefaultThreadCounts
	}
	t := &Table{Title: "Hardware throughput beside persistent fallback traffic [ops/us]", XLabel: "hw threads"}
	for _, n := range threadCounts {
		t.Xs = append(t.Xs, fmt.Sprint(n))
	}
	for _, global := range []bool{false, true} {
		label := "fine-grained fallback"
		if global {
			label = "global-lock fallback"
		}
		s := Series{Label: label}
		for _, n := range threadCounts {
			r := FallbackInterference(cfg, n, global)
			s.Ys = append(s.Ys, r.OpsPerUs())
		}
		t.Series = append(t.Series, s)
	}
	return t
}
