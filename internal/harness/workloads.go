package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/htm"
	"repro/internal/core"
)

// CollectUpdate runs the §5.3 workload (Figures 4–6): one thread performs
// Collects while `updaters` others perform one Update each updatePeriod
// cycles. The update threads pre-register 64 handles in total; each uses only
// its first handle, the rest exist to keep the registered count independent
// of the thread count. Throughput counts the collector's operations only.
func CollectUpdate(cfg Config, mk func(h *htm.Heap) core.Collector, updaters, updatePeriod int) Result {
	cfg = cfg.withDefaults()
	h := cfg.heap(htm.Config{})
	col := mk(h)

	const totalHandles = 64
	per := totalHandles / updaters
	if per < 1 {
		per = 1
	}

	b := newBarrier(updaters + 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < updaters; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := col.NewCtx(h.NewThread())
			n := per
			if id == 0 {
				n += totalHandles - per*updaters // remainder to the first
			}
			handles := make([]core.Handle, 0, n)
			vn := uint64(0)
			for i := 0; i < n; i++ {
				vn++
				handles = append(handles, col.Register(c, value(uint64(id+1), vn)))
			}
			b.arrive()
			// Workers also observe the point deadline directly: a Collect
			// can be starved indefinitely by sufficiently hot churn (the
			// paper's "do not complete" points), and the run must still end.
			d := deadliner{deadline: time.Now().Add(cfg.PointDuration + cfg.PointDuration/4)}
			for !d.expired() {
				select {
				case <-stop:
					return
				default:
				}
				cfg.Clock.SpinCoop(updatePeriod)
				vn++
				col.Update(c, handles[0], value(uint64(id+1), vn))
			}
		}(w)
	}

	var collects uint64
	var hist map[int]uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := col.NewCtx(h.NewThread())
		b.arrive()
		d := deadliner{deadline: time.Now().Add(cfg.PointDuration)}
		var scratch []core.Value
		n := uint64(0)
		for !d.expired() {
			scratch = col.Collect(c, scratch[:0])
			n++
		}
		collects = n
		hist = c.StepHistogram()
		close(stop)
	}()

	startedAt := b.release()
	wg.Wait()
	elapsed := time.Since(startedAt)
	return Result{Ops: collects, Elapsed: elapsed, Stats: h.Stats(), StepHist: hist}
}

// CollectDeregister runs the §5.4 workload (Figure 7): one collector thread
// plus `churners` threads running Deregister — wait(registerPeriod) —
// Register — wait(deregPeriod) loops over an initial total of 64 handles.
func CollectDeregister(cfg Config, mk func(h *htm.Heap) core.Collector, churners, registerPeriod, deregPeriod int) Result {
	cfg = cfg.withDefaults()
	h := cfg.heap(htm.Config{})
	col := mk(h)

	const totalHandles = 64
	per := totalHandles / churners
	if per < 1 {
		per = 1
	}

	b := newBarrier(churners + 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := col.NewCtx(h.NewThread())
			handles := make([]core.Handle, 0, per)
			vn := uint64(0)
			for i := 0; i < per; i++ {
				vn++
				handles = append(handles, col.Register(c, value(uint64(id+1), vn)))
			}
			b.arrive()
			i := 0
			d := deadliner{deadline: time.Now().Add(cfg.PointDuration + cfg.PointDuration/4)}
			for !d.expired() {
				select {
				case <-stop:
					return
				default:
				}
				// Start with a Deregister so the registered total never
				// exceeds 64 (paper §5.4).
				col.Deregister(c, handles[i])
				cfg.Clock.SpinCoop(registerPeriod)
				vn++
				handles[i] = col.Register(c, value(uint64(id+1), vn))
				cfg.Clock.SpinCoop(deregPeriod)
				i = (i + 1) % len(handles)
			}
		}(w)
	}

	var collects uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := col.NewCtx(h.NewThread())
		b.arrive()
		d := deadliner{deadline: time.Now().Add(cfg.PointDuration)}
		var scratch []core.Value
		n := uint64(0)
		for !d.expired() {
			scratch = col.Collect(c, scratch[:0])
			n++
		}
		collects = n
		close(stop)
	}()

	startedAt := b.release()
	wg.Wait()
	elapsed := time.Since(startedAt)
	return Result{Ops: collects, Elapsed: elapsed, Stats: h.Stats()}
}

// TimedBucket is one point of the Figure 8 time series.
type TimedBucket struct {
	// AtMs is the bucket's end, in milliseconds since the run started.
	AtMs int
	// OpsPerUs is the collector's throughput within the bucket.
	OpsPerUs float64
}

// VaryingSlots runs the §5.5 workload (Figure 8): one collector and
// `updaters` update threads (20k-cycle period). The update threads alternate
// the total number of registered handles between lo and hi every phase
// (500ms in the paper), and the collector's throughput is recorded in
// buckets.
func VaryingSlots(cfg Config, mk func(h *htm.Heap) core.Collector, updaters int, lo, hi int, phase, total, bucket time.Duration) []TimedBucket {
	cfg = cfg.withDefaults()
	h := cfg.heap(htm.Config{})
	col := mk(h)
	const updatePeriod = 20000

	// target holds the current per-thread handle count goal.
	var target atomic.Int64
	perLo, perHi := lo/updaters, hi/updaters
	if perLo < 1 {
		perLo = 1
	}
	if perHi < perLo {
		perHi = perLo
	}
	target.Store(int64(perLo))

	b := newBarrier(updaters + 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < updaters; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := col.NewCtx(h.NewThread())
			var handles []core.Handle
			vn := uint64(0)
			reg := func() {
				vn++
				handles = append(handles, col.Register(c, value(uint64(id+1), vn)))
			}
			for len(handles) < perLo {
				reg()
			}
			b.arrive()
			d := deadliner{deadline: time.Now().Add(total + total/4)}
			for !d.expired() {
				select {
				case <-stop:
					return
				default:
				}
				for t := int(target.Load()); len(handles) < t; {
					reg()
					t = int(target.Load())
				}
				for t := int(target.Load()); len(handles) > t && len(handles) > 1; {
					last := handles[len(handles)-1]
					handles = handles[:len(handles)-1]
					col.Deregister(c, last)
					t = int(target.Load())
				}
				cfg.Clock.SpinCoop(updatePeriod)
				vn++
				col.Update(c, handles[0], value(uint64(id+1), vn))
			}
		}(w)
	}

	var buckets []TimedBucket
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := col.NewCtx(h.NewThread())
		b.arrive()
		start := time.Now()
		deadline := start.Add(total)
		nextPhase := start.Add(phase)
		nextBucket := start.Add(bucket)
		bucketStart := start
		cur := perLo
		var scratch []core.Value
		n := uint64(0)
		for {
			scratch = col.Collect(c, scratch[:0])
			n++
			now := time.Now()
			if now.After(nextBucket) {
				el := now.Sub(bucketStart)
				buckets = append(buckets, TimedBucket{
					AtMs:     int(now.Sub(start).Milliseconds()),
					OpsPerUs: float64(n) / float64(el.Microseconds()),
				})
				n = 0
				bucketStart = now
				nextBucket = now.Add(bucket)
			}
			if now.After(nextPhase) {
				if cur == perLo {
					cur = perHi
				} else {
					cur = perLo
				}
				target.Store(int64(cur))
				nextPhase = now.Add(phase)
			}
			if now.After(deadline) {
				break
			}
		}
		close(stop)
	}()

	b.release()
	wg.Wait()
	return buckets
}

// UpdateLatency measures single-thread Update latency (§5.1's ~215ns vs
// ~135ns comparison) in nanoseconds per operation.
func UpdateLatency(cfg Config, mk func(h *htm.Heap) core.Collector, iters int) float64 {
	cfg = cfg.withDefaults()
	h := cfg.heap(htm.Config{})
	col := mk(h)
	c := col.NewCtx(h.NewThread())
	hd := col.Register(c, 1)
	// Warm up.
	for i := 0; i < 1000; i++ {
		col.Update(c, hd, uint64(i+1))
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		col.Update(c, hd, uint64(i+1))
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}
