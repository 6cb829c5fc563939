// Reclamation: safe memory reclamation two ways over the simulated heap.
//
// Part 1 — Dynamic Collect as the announcement mechanism (§1.2): a writer
// repeatedly replaces the node behind a shared pointer and wants to free the
// old node. Readers announce the node they are about to access by
// registering (or updating) a handle in a Dynamic Collect object; the writer
// may free a node only after a Collect shows nobody announces it — the same
// protocol as hazard pointers, but with dynamically allocated announcement
// slots, so reader threads can come and go without leaking announcement
// space.
//
// Part 2 — epoch-based reclamation (internal/epoch): the same workload, but
// readers pin the global epoch once per read-side critical section instead
// of announcing every pointer, and the writer retires old nodes into a limbo
// list that drains two epoch advances later. No per-load announce/validate
// traffic — the reclamation tradeoff the queue benchmarks measure.
//
//	go run ./examples/reclamation
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/htm"
	"repro/internal/core"
	"repro/internal/epoch"
)

func dynamicCollectDemo() {
	// The plan's YieldEvery interleaves the goroutines' heap accesses even on
	// hosts with fewer cores than workers, so the writer and readers actually
	// race.
	heap := htm.NewHeap(htm.Config{Faults: &htm.FaultPlan{YieldEvery: 8}})
	announce := core.NewArrayDynAppendDereg(heap, 0, core.Options{Step: 8})

	setup := heap.NewThread()
	shared := setup.Alloc(1) // shared pointer cell
	first := setup.Alloc(2)  // node: two words that must always match
	heap.StoreNT(first, 1)
	heap.StoreNT(first+1, 1)
	heap.StoreNT(shared, uint64(first))

	const readers = 4
	const swaps = 3000
	var stop atomic.Bool
	var torn atomic.Uint64
	var reads atomic.Uint64

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := heap.NewThread()
			c := announce.NewCtx(th)
			// Announce with a dynamically allocated handle: when this reader
			// exits, Deregister returns the announcement slot's memory —
			// unlike static hazard-pointer tables, space tracks the number
			// of *active* readers.
			h := announce.Register(c, 0)
			defer announce.Deregister(c, h)
			for !stop.Load() {
				// Announce-then-verify: publish the pointer we intend to
				// read, then re-check it is still current.
				node := htm.Addr(heap.LoadNT(shared))
				announce.Update(c, h, uint64(node))
				if htm.Addr(heap.LoadNT(shared)) != node {
					continue
				}
				x := heap.LoadNT(node)
				y := heap.LoadNT(node + 1)
				if x != y {
					torn.Add(1)
				}
				reads.Add(1)
				announce.Update(c, h, 0)
			}
		}()
	}

	writer := heap.NewThread()
	wctx := announce.NewCtx(writer)
	var retired []htm.Addr
	freed := 0
	for i := uint64(2); i <= swaps; i++ {
		node := writer.AllocInit([]uint64{i, i}) // filled while private
		old := htm.Addr(heap.LoadNT(shared))
		heap.StoreNT(shared, uint64(node))
		retired = append(retired, old)
		if len(retired) >= 32 {
			// Collect over all announcements; free retired nodes nobody
			// announces. This is exactly the Scan step of ROP/hazard
			// pointers, built on Dynamic Collect.
			inUse := make(map[uint64]bool)
			for _, v := range announce.Collect(wctx, nil) {
				inUse[v] = true
			}
			kept := retired[:0]
			for _, n := range retired {
				if inUse[uint64(n)] {
					kept = append(kept, n)
				} else {
					writer.Free(n)
					freed++
				}
			}
			retired = kept
		}
	}
	stop.Store(true)
	wg.Wait()

	fmt.Println("-- Dynamic Collect announcements (hazard-pointer protocol) --")
	fmt.Printf("swaps: %d, reads: %d, torn reads: %d\n", swaps, reads.Load(), torn.Load())
	fmt.Printf("nodes freed while readers were running: %d (backlog %d)\n", freed, len(retired))
	fmt.Println("heap:", heap.Stats())
	if torn.Load() > 0 {
		panic("a reader observed reused memory — reclamation protocol broken")
	}
}

func epochDemo() {
	heap := htm.NewHeap(htm.Config{Faults: &htm.FaultPlan{YieldEvery: 8}})
	dom := epoch.NewDomain(heap)

	setup := heap.NewThread()
	shared := setup.Alloc(1)
	first := setup.Alloc(2)
	heap.StoreNT(first, 1)
	heap.StoreNT(first+1, 1)
	heap.StoreNT(shared, uint64(first))

	const readers = 4
	const swaps = 3000
	var stop atomic.Bool
	var torn atomic.Uint64
	var reads atomic.Uint64

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := heap.NewThread()
			rec := dom.Acquire(th)
			defer rec.Release()
			for !stop.Load() {
				// One Pin covers the whole read-side critical section: no
				// per-pointer announce, no re-validation loop. The node
				// cannot be freed while we are pinned.
				rec.Pin()
				node := htm.Addr(heap.LoadNT(shared))
				x := heap.LoadNT(node)
				y := heap.LoadNT(node + 1)
				rec.Unpin()
				if x != y {
					torn.Add(1)
				}
				reads.Add(1)
			}
		}()
	}

	writer := heap.NewThread()
	wrec := dom.Acquire(writer)
	liveBefore := heap.Stats().LiveWords
	for i := uint64(2); i <= swaps; i++ {
		node := writer.AllocInit([]uint64{i, i}) // filled while private
		old := htm.Addr(heap.LoadNT(shared))
		heap.StoreNT(shared, uint64(node))
		// Retire into the limbo list; frees happen automatically once the
		// epoch has advanced twice past the retirement.
		wrec.Retire(old)
	}
	stop.Store(true)
	wg.Wait()
	backlog := wrec.RetiredLen()
	wrec.Release()

	fmt.Println("-- Epoch-based reclamation (internal/epoch) --")
	fmt.Printf("swaps: %d, reads: %d, torn reads: %d\n", swaps, reads.Load(), torn.Load())
	fmt.Printf("limbo backlog when writer stopped: %d (drained by Release)\n", backlog)
	fmt.Printf("final epoch: %d, live words: %d (was %d before swaps)\n",
		dom.Epoch(), heap.Stats().LiveWords, liveBefore)
	fmt.Println("heap:", heap.Stats())
	if torn.Load() > 0 {
		panic("a reader observed reused memory — epoch grace period broken")
	}
}

func main() {
	dynamicCollectDemo()
	fmt.Println()
	epochDemo()
}
