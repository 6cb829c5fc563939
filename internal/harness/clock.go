package harness

import (
	"fmt"
	"runtime"
	"strconv"

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
	return cfg.measure(h, threads, func(int) (func(), func() map[int]uint64) {
		th := h.NewThread()
		blk := th.Alloc(clockTxnWords)
		return func() {
			th.Atomic(func(tx *htm.Txn) {
				var sum uint64
				for i := 0; i < clockTxnWords; i++ {
					sum += tx.Load(blk + htm.Addr(i))
				}
				tx.Store(blk, sum+1)
			})
		}, nil
	}, 0, nil)
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
	var rows []row
	seen := map[int]bool{}
	for _, shards := range shardCounts {
		if !seen[shards] { // GOMAXPROCS may collide with a fixed count
			seen[shards] = true
			rows = append(rows, row{fmt.Sprintf("shards=%d", shards),
				func(n int) float64 { return DisjointCommits(cfg, n, shards).OpsPerUs() }})
		}
	}
	return grid("Sharded clock: disjoint read-write commits [ops/us]", "threads", threadCounts, strconv.Itoa, rows...)
}
