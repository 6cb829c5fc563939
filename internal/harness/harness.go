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
	// YieldEvery is passed to htm.FaultPlan.YieldEvery so that transactions
	// occupy scheduler-visible time on hosts with fewer cores than simulated
	// threads. Defaults to 12 when the host has fewer cores than Threads and
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

// heap builds a per-point heap from hc under the experiment's policy: the
// yield model (YieldEvery) and exact space tracking only with TrackSpace.
// hc.Words defaults to HeapWords.
func (c Config) heap(hc htm.Config) *htm.Heap {
	if hc.Words == 0 {
		hc.Words = c.HeapWords
	}
	if c.YieldEvery > 0 {
		hc.Faults = &htm.FaultPlan{YieldEvery: c.YieldEvery}
	}
	hc.NoMaxLive = !c.TrackSpace
	return htm.NewHeap(hc)
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

// A worker is one thread of a measured point. Its set-up runs on the
// thread's goroutine before the start barrier and returns the operation the
// scaffold repeats, plus an optional finish hook that runs after the last
// operation and returns the thread's step histogram (nil for none).
type worker func(id int) (op func(), finish func() map[int]uint64)

// measure is the worker scaffold of every fixed-duration workload on h. It
// starts `counted` workers made by mk and `bg` background workers made by
// mkBg (ids count from 0 within each group), releases them together, and
// repeats each counted worker's op until the point deadline. Background
// workers repeat theirs until the counted workers are done, and also stop on
// their own at 5/4 of the point: a Collect can be starved indefinitely by hot
// enough churn (the paper's "do not complete" points), and the run must still
// end. Ops counts the counted workers' operations, Elapsed runs from release
// until they have joined, Stats is read once every worker has joined, and
// StepHist sums every worker's histogram.
func (c Config) measure(h *htm.Heap, counted int, mk worker, bg int, mkBg worker) Result {
	b := newBarrier(counted + bg)
	stop := make(chan struct{})
	ops := make([]uint64, counted+bg)
	hists := make([]map[int]uint64, counted+bg)
	var fg, back sync.WaitGroup
	for i := range ops {
		wg, w, id, d := &fg, mk, i, c.PointDuration
		if i >= counted {
			wg, w, id, d = &back, mkBg, i-counted, d+d/4
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			op, finish := w(id)
			b.arrive()
			deadline := time.Now().Add(d)
			n := uint64(0)
			// The clock is read every 64th operation, the stop channel every one.
			for ; (n%64 != 0 || time.Now().Before(deadline)) && !stopped(stop); n++ {
				op()
			}
			ops[i] = n
			if finish != nil {
				hists[i] = finish()
			}
		}()
	}
	startedAt := b.release()
	fg.Wait()
	res := Result{Elapsed: time.Since(startedAt)}
	close(stop)
	back.Wait()
	for _, n := range ops[:counted] {
		res.Ops += n
	}
	for _, hist := range hists {
		for k, v := range hist {
			if res.StepHist == nil {
				res.StepHist = make(map[int]uint64)
			}
			res.StepHist[k] += v
		}
	}
	res.Stats = h.Stats()
	return res
}

// stopped reports whether stop has been closed, without blocking.
func stopped(stop chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
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
	h := cfg.heap(htm.Config{})
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

	return cfg.measure(h, threads, func(id int) (func(), func() map[int]uint64) {
		c := col.NewCtx(h.NewThread())
		rng := uint64(id+1) * 0x9E3779B97F4A7C15
		var queue []core.Handle
		vn := uint64(0)
		for i := 0; i < prePer; i++ {
			vn++
			queue = append(queue, col.Register(c, value(uint64(id+1), vn)))
		}
		var scratch []core.Value
		return func() {
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
		}, c.StepHistogram
	}, 0, nil)
}
