package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/htm"
	"repro/queue"
)

// QueueThroughput runs the §1.1 workload (Figure 1): threads perform a
// 50/50 mix of enqueues and dequeues on one queue, pre-filled so dequeues
// mostly succeed. Throughput counts all operations.
func QueueThroughput(cfg Config, mk func(h *htm.Heap) queue.Queue, threads, prefill int) Result {
	cfg = cfg.withDefaults()
	h := cfg.heap(htm.Config{})
	q := mk(h)

	setup := q.NewCtx(h.NewThread())
	for i := 0; i < prefill; i++ {
		q.Enqueue(setup, uint64(i+1))
	}
	queue.CloseCtx(q, setup)

	b := newBarrier(threads)
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := q.NewCtx(h.NewThread())
			rng := uint64(id+1) * 0x9E3779B97F4A7C15
			b.arrive()
			d := deadliner{deadline: time.Now().Add(cfg.PointDuration)}
			n := uint64(0)
			vn := uint64(0)
			for !d.expired() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				if rng&1 == 0 {
					vn++
					q.Enqueue(c, uint64(id+1)<<32|vn)
				} else {
					q.Dequeue(c)
				}
				n++
			}
			ops.Add(n)
			queue.CloseCtx(q, c)
		}(w)
	}
	startedAt := b.release()
	wg.Wait()
	elapsed := time.Since(startedAt)
	return Result{Ops: ops.Load(), Elapsed: elapsed, Stats: h.Stats()}
}
