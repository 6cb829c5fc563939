package harness

import (
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
	per := max(1, totalHandles/updaters)
	return cfg.measure(h, 1, collecting(h, col), updaters, func(id int) (func(), func() map[int]uint64) {
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
		return func() {
			cfg.Clock.SpinCoop(updatePeriod)
			vn++
			col.Update(c, handles[0], value(uint64(id+1), vn))
		}, nil
	})
}

// collecting is the worker of the one collecting thread beside background
// churn: a Collect per operation.
func collecting(h *htm.Heap, col core.Collector) worker {
	return func(int) (func(), func() map[int]uint64) {
		c := col.NewCtx(h.NewThread())
		var scratch []core.Value
		return func() { scratch = col.Collect(c, scratch[:0]) }, c.StepHistogram
	}
}

// CollectDeregister runs the §5.4 workload (Figure 7): one collector thread
// plus `churners` threads running Deregister — wait(registerPeriod) —
// Register — wait(deregPeriod) loops over an initial total of 64 handles.
func CollectDeregister(cfg Config, mk func(h *htm.Heap) core.Collector, churners, registerPeriod, deregPeriod int) Result {
	cfg = cfg.withDefaults()
	h := cfg.heap(htm.Config{})
	col := mk(h)

	per := max(1, 64/churners)
	return cfg.measure(h, 1, collecting(h, col), churners, func(id int) (func(), func() map[int]uint64) {
		c := col.NewCtx(h.NewThread())
		handles := make([]core.Handle, 0, per)
		vn := uint64(0)
		for i := 0; i < per; i++ {
			vn++
			handles = append(handles, col.Register(c, value(uint64(id+1), vn)))
		}
		i := 0
		return func() {
			// Start with a Deregister so the registered total never
			// exceeds 64 (paper §5.4).
			col.Deregister(c, handles[i])
			cfg.Clock.SpinCoop(registerPeriod)
			vn++
			handles[i] = col.Register(c, value(uint64(id+1), vn))
			cfg.Clock.SpinCoop(deregPeriod)
			i = (i + 1) % len(handles)
		}, nil
	})
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
// buckets over a point of length total.
func VaryingSlots(cfg Config, mk func(h *htm.Heap) core.Collector, updaters int, lo, hi int, phase, total, bucket time.Duration) []TimedBucket {
	cfg = cfg.withDefaults()
	cfg.PointDuration = total
	h := cfg.heap(htm.Config{})
	col := mk(h)
	const updatePeriod = 20000

	// target holds the current per-thread handle count goal.
	var target atomic.Int64
	perLo := max(1, lo/updaters)
	perHi := max(perLo, hi/updaters)
	target.Store(int64(perLo))

	var buckets []TimedBucket
	collector := func(int) (func(), func() map[int]uint64) {
		c := col.NewCtx(h.NewThread())
		var start, nextPhase, nextBucket, bucketStart time.Time
		var scratch []core.Value
		n := uint64(0)
		return func() {
			if start.IsZero() { // the first operation starts the clock
				start = time.Now()
				nextPhase, nextBucket, bucketStart = start.Add(phase), start.Add(bucket), start
			}
			scratch = col.Collect(c, scratch[:0])
			n++
			now := time.Now()
			if now.After(nextBucket) {
				buckets = append(buckets, TimedBucket{
					AtMs:     int(now.Sub(start).Milliseconds()),
					OpsPerUs: float64(n) / float64(now.Sub(bucketStart).Microseconds()),
				})
				n, bucketStart, nextBucket = 0, now, now.Add(bucket)
			}
			if now.After(nextPhase) {
				if target.Load() == int64(perLo) {
					target.Store(int64(perHi))
				} else {
					target.Store(int64(perLo))
				}
				nextPhase = now.Add(phase)
			}
		}, nil
	}
	cfg.measure(h, 1, collector, updaters, func(id int) (func(), func() map[int]uint64) {
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
		return func() {
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
		}, nil
	})
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
