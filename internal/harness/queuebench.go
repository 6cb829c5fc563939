package harness

import (
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

	return cfg.measure(h, threads, func(id int) (func(), func() map[int]uint64) {
		c := q.NewCtx(h.NewThread())
		rng := uint64(id+1) * 0x9E3779B97F4A7C15
		vn := uint64(0)
		return func() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				if rng&1 == 0 {
					vn++
					q.Enqueue(c, uint64(id+1)<<32|vn)
				} else {
					q.Dequeue(c)
				}
			}, func() map[int]uint64 {
				queue.CloseCtx(q, c)
				return nil
			}
	}, 0, nil)
}
