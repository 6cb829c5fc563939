// Package harness drives the paper's benchmarks: it builds the workloads of
// §5 (collect-dominated mix, collect-update, collect-(de)register, varying
// registered slots, queue throughput, update latency) and renders the same
// series the figures plot.
//
// Throughput units follow the paper: operations per microsecond, where one
// benchmark operation is one Collect / Update / Register / Deregister /
// Enqueue / Dequeue call. Periods are in cycles via package cycles.
//
// The paper ran on a 16-core Rock machine; this harness runs the same thread
// counts as goroutines on whatever cores exist, yielding during simulated
// busy-wait periods so that time-slicing stands in for spare cores. Shapes —
// algorithm orderings, contention cliffs, crossovers — are the reproduction
// target, not absolute ops/µs (README.md tabulates the claim each figure
// carries and the test that asserts it).
package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/htm"
	"repro/internal/core"
	"repro/internal/cycles"
)

// Config carries experiment-wide knobs.
type Config struct {
	// PointDuration is the measured duration of one data point. Defaults to
	// 200ms.
	PointDuration time.Duration
	// HeapWords sizes the fresh heap created per data point. Defaults to
	// 1<<20.
	HeapWords int
	// Clock converts cycle-denominated periods into spins; calibrated once
	// by the caller. Defaults to a fresh calibration.
	Clock *cycles.Clock
	// Threads is the maximum simulated thread count (the paper's machine
	// has 16).
	Threads int
	// YieldEvery is passed to htm.Config.YieldEvery so that transactions
	// occupy scheduler-visible time on hosts with fewer cores than simulated
	// threads. Defaults to 4 when the host has fewer cores than Threads and
	// 0 otherwise; set to a negative value to force 0.
	YieldEvery int
	// TrackSpace keeps exact LiveWords/MaxLiveWords accounting on the
	// allocation path of every per-point heap. Space-measured experiments
	// (SpaceTable, QueueSpace) set it; throughput sweeps leave it false so
	// allocation stays free of globally shared counters.
	TrackSpace bool
}

func (c Config) withDefaults() Config {
	if c.PointDuration <= 0 {
		c.PointDuration = 200 * time.Millisecond
	}
	if c.HeapWords <= 0 {
		c.HeapWords = 1 << 20
	}
	if c.Clock == nil {
		c.Clock = cycles.Calibrate(cycles.DefaultGHz)
	}
	if c.Threads <= 0 {
		c.Threads = 16
	}
	if c.YieldEvery == 0 && runtime.NumCPU() < c.Threads {
		c.YieldEvery = 12
	}
	if c.YieldEvery < 0 {
		c.YieldEvery = 0
	}
	return c
}

// newHeap builds the per-point heap with the experiment's yield policy.
func (c Config) newHeap() *htm.Heap {
	return htm.NewHeap(htm.Config{Words: c.HeapWords, YieldEvery: c.YieldEvery, NoMaxLive: !c.TrackSpace})
}

// Result is one measured data point.
type Result struct {
	// Ops is the number of benchmark operations completed before the
	// deadline and Elapsed the measured wall time.
	Ops     uint64
	Elapsed time.Duration
	// Heap statistics snapshot at the end of the run.
	Stats htm.Stats
	// StepHist aggregates elements-collected-per-step across collecting
	// threads (Figure 6); nil unless adaptation was enabled.
	StepHist map[int]uint64
}

// OpsPerUs returns throughput in the paper's unit.
func (r Result) OpsPerUs() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.Elapsed.Microseconds())
}

// barrier coordinates simultaneous worker start.
type barrier struct {
	ready sync.WaitGroup
	start chan struct{}
}

func newBarrier(n int) *barrier {
	b := &barrier{start: make(chan struct{})}
	b.ready.Add(n)
	return b
}

// arrive marks the worker ready and blocks until the coordinator releases.
func (b *barrier) arrive() {
	b.ready.Done()
	<-b.start
}

// release waits for all workers and opens the gate, returning the start time.
func (b *barrier) release() time.Time {
	b.ready.Wait()
	t := time.Now()
	close(b.start)
	return t
}

// deadliner amortizes time.Now calls inside worker loops.
type deadliner struct {
	deadline time.Time
	n        int
}

func (d *deadliner) expired() bool {
	d.n++
	if d.n&0x3F != 0 {
		return false
	}
	return time.Now().After(d.deadline)
}

// mergeHists sums per-thread step histograms.
func mergeHists(dst, src map[int]uint64) map[int]uint64 {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = make(map[int]uint64)
	}
	for k, v := range src {
		dst[k] += v
	}
	return dst
}

// value constructs a distinct non-zero value for thread id and counter n.
func value(id uint64, n uint64) core.Value {
	return core.Value(id<<40 | (n + 1))
}

// opMix is the paper's collect-dominated distribution (§5.2): Collect 90%,
// Update 8%, Register 1%, Deregister 1%.
type opKind uint8

const (
	opCollect opKind = iota
	opUpdate
	opRegister
	opDeregister
)

func pickOp(rng *uint64) opKind {
	x := *rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*rng = x
	switch r := x % 100; {
	case r < 90:
		return opCollect
	case r < 98:
		return opUpdate
	case r < 99:
		return opRegister
	default:
		return opDeregister
	}
}

// CollectDominated runs the §5.2 mixed workload (Figure 3): threads perform
// 90/8/1/1 Collect/Update/Register/Deregister, each managing a FIFO queue of
// at most 64/threads handles, with 32 handles pre-registered in total.
func CollectDominated(cfg Config, mk func(h *htm.Heap) core.Collector, threads int) Result {
	cfg = cfg.withDefaults()
	h := cfg.newHeap()
	col := mk(h)

	const totalSlots = 64
	const preRegistered = 32
	maxPer := totalSlots / threads
	if maxPer < 1 {
		maxPer = 1
	}
	prePer := preRegistered / threads
	if prePer < 1 {
		prePer = 1
	}
	if prePer > maxPer {
		prePer = maxPer
	}

	b := newBarrier(threads)
	var ops atomic.Uint64
	hists := make([]map[int]uint64, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := col.NewCtx(h.NewThread())
			rng := uint64(id+1) * 0x9E3779B97F4A7C15
			var queue []core.Handle
			vn := uint64(0)
			for i := 0; i < prePer; i++ {
				vn++
				queue = append(queue, col.Register(c, value(uint64(id+1), vn)))
			}
			b.arrive()
			d := deadliner{deadline: time.Now().Add(cfg.PointDuration)}
			n := uint64(0)
			var scratch []core.Value
			for !d.expired() {
				switch pickOp(&rng) {
				case opCollect:
					scratch = col.Collect(c, scratch[:0])
				case opUpdate:
					if len(queue) > 0 {
						vn++
						// Least recently used handle: front of the queue,
						// rotated to the back.
						hd := queue[0]
						copy(queue, queue[1:])
						queue[len(queue)-1] = hd
						col.Update(c, hd, value(uint64(id+1), vn))
					}
				case opRegister:
					if len(queue) < maxPer {
						vn++
						queue = append(queue, col.Register(c, value(uint64(id+1), vn)))
					}
				case opDeregister:
					if len(queue) > 0 {
						hd := queue[0]
						copy(queue, queue[1:])
						queue = queue[:len(queue)-1]
						col.Deregister(c, hd)
					}
				}
				n++
			}
			ops.Add(n)
			hists[id] = c.StepHistogram()
		}(w)
	}
	startedAt := b.release()
	wg.Wait()
	elapsed := time.Since(startedAt)

	res := Result{Ops: ops.Load(), Elapsed: elapsed, Stats: h.Stats()}
	for _, hist := range hists {
		res.StepHist = mergeHists(res.StepHist, hist)
	}
	return res
}
