// Adaptive: the §3.4 telescoping step-size mechanism reacting to contention.
//
// One thread runs Collects with the adaptive controller while update threads
// switch between quiet and noisy phases. The demo prints, per phase, the
// collector's throughput and the distribution of step sizes it settled on —
// large steps when quiet (amortize transaction start/commit), small steps
// when noisy (bound abort damage), the tradeoff of Figures 5 and 6.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/htm"
	"repro/internal/core"
	"repro/internal/cycles"
)

func main() {
	// The plan's YieldEvery makes transactions occupy scheduler-visible
	// time, so contention shows up even on hosts with fewer cores than
	// goroutines (see htm.FaultPlan.YieldEvery).
	heap := htm.NewHeap(htm.Config{Faults: &htm.FaultPlan{YieldEvery: 4}})
	clock := cycles.Calibrate(cycles.DefaultGHz)
	col := core.NewArrayDynAppendDereg(heap, 0, core.Options{Step: 8, Adaptive: true})

	setup := col.NewCtx(heap.NewThread())
	handles := make([]core.Handle, 64)
	for i := range handles {
		handles[i] = col.Register(setup, uint64(i+1))
	}

	var period atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := col.NewCtx(heap.NewThread())
			for i := uint64(1); !stop.Load(); i++ {
				clock.SpinCoop(int(period.Load()))
				col.Update(c, handles[id], i)
			}
		}(w)
	}

	collector := col.NewCtx(heap.NewThread())
	phases := []struct {
		name   string
		cycles int64
	}{
		{"quiet (1M-cycle updates)", 1000000},
		{"noisy (2k-cycle updates)", 2000},
		{"quiet again", 1000000},
	}
	prev := map[int]uint64{}
	for _, ph := range phases {
		period.Store(ph.cycles)
		n := 0
		deadline := time.Now().Add(400 * time.Millisecond)
		start := time.Now()
		for time.Now().Before(deadline) {
			col.Collect(collector, nil)
			n++
		}
		elapsed := time.Since(start)
		hist := collector.StepHistogram()
		delta := map[int]uint64{}
		var steps []int
		var total uint64
		for s, v := range hist {
			d := v - prev[s]
			if d > 0 {
				delta[s] = d
				steps = append(steps, s)
				total += d
			}
		}
		prev = hist
		sort.Ints(steps)
		fmt.Printf("%-28s %8.3f collects/ms   step mix:", ph.name, float64(n)/float64(elapsed.Milliseconds()))
		for _, s := range steps {
			fmt.Printf("  %d:%d%%", s, 100*delta[s]/total)
		}
		fmt.Println()
	}
	stop.Store(true)
	wg.Wait()
}
