package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/htm"
)

// The sharded-clock workload: every worker runs small read-write
// transactions on its own private block, so footprints are fully disjoint
// and no transaction ever conflicts with another. With a single version
// clock the commits still serialize on one cache line — the last global RMW
// on the otherwise contention-free path. With Config.ClockShards each
// worker's commit ticks only its home shard's padded clock word, so the
// workload's only shared writes disappear and throughput should track the
// thread count (modulo the host's real core count).

// clockHeapWords sizes the per-point heap for the disjoint workload.
const clockHeapWords = 1 << 18

// clockTxnWords is the footprint of one disjoint transaction: read all the
// words, rewrite one. Small enough to stay far from the store-buffer limit.
const clockTxnWords = 4

// DisjointCommits measures disjoint read-write transaction throughput with
// `threads` workers on a heap configured with `shards` clock shards.
func DisjointCommits(cfg Config, threads, shards int) Result {
	cfg = cfg.withDefaults()
	h := cfg.heap(htm.Config{Words: clockHeapWords, ClockShards: shards})
	b := newBarrier(threads)
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := h.NewThread()
			blk := th.Alloc(clockTxnWords)
			b.arrive()
			d := deadliner{deadline: time.Now().Add(cfg.PointDuration)}
			n := uint64(0)
			for !d.expired() {
				th.Atomic(func(tx *htm.Txn) {
					var sum uint64
					for i := 0; i < clockTxnWords; i++ {
						sum += tx.Load(blk + htm.Addr(i))
					}
					tx.Store(blk, sum+1)
				})
				n++
			}
			ops.Add(n)
		}(w)
	}
	startedAt := b.release()
	wg.Wait()
	return Result{Ops: ops.Load(), Elapsed: time.Since(startedAt), Stats: h.Stats()}
}

// ClockScaling renders the sharded-clock figure: disjoint read-write
// transaction throughput versus thread count, one series per clock shard
// count. shards=1 is the pre-sharding single-clock baseline; on a machine
// with real cores the sharded series pull away as threads grow, and on a
// time-sliced host they must at least never fall below the baseline.
func ClockScaling(cfg Config, threadCounts, shardCounts []int) *Table {
	if threadCounts == nil {
		threadCounts = DefaultThreadCounts
	}
	if shardCounts == nil {
		shardCounts = []int{1, 4, 16, runtime.GOMAXPROCS(0)}
	}
	t := &Table{Title: "Sharded clock: disjoint read-write commits [ops/us]", XLabel: "threads"}
	for _, n := range threadCounts {
		t.Xs = append(t.Xs, fmt.Sprint(n))
	}
	seen := map[int]bool{}
	for _, shards := range shardCounts {
		if seen[shards] {
			continue // GOMAXPROCS may collide with a fixed count
		}
		seen[shards] = true
		s := Series{Label: fmt.Sprintf("shards=%d", shards)}
		for _, n := range threadCounts {
			r := DisjointCommits(cfg, n, shards)
			s.Ys = append(s.Ys, r.OpsPerUs())
		}
		t.Series = append(t.Series, s)
	}
	return t
}
