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
// `threads` workers on a heap configured with `shards` clock shards and
// `stripeShift` metadata striping.
func DisjointCommits(cfg Config, threads, shards, stripeShift int) Result {
	cfg = cfg.withDefaults()
	h := cfg.heap(htm.Config{Words: clockHeapWords, ClockShards: shards, StripeShift: stripeShift})
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
			r := DisjointCommits(cfg, n, shards, 0)
			s.Ys = append(s.Ys, r.OpsPerUs())
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// stripeNeighborWords is the block size of the stripe-aliasing workload:
// wide enough that at StripeShift 4 a block still spans a full stripe.
const stripeNeighborWords = 16

// StripeContention measures the striping tradeoff: `threads` workers share
// one block of stripeNeighborWords words, each transaction rewriting a
// single worker-owned word (all footprints disjoint at word granularity).
// With StripeShift 0 these never conflict; as the shift grows, more workers
// alias onto the same metadata word and commit-time CAS conflicts appear.
func StripeContention(cfg Config, threads, stripeShift int) Result {
	cfg = cfg.withDefaults()
	h := cfg.heap(htm.Config{Words: clockHeapWords, StripeShift: stripeShift})
	setup := h.NewThread()
	shared := setup.Alloc(stripeNeighborWords)
	b := newBarrier(threads)
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := h.NewThread()
			word := shared + htm.Addr(id%stripeNeighborWords)
			b.arrive()
			d := deadliner{deadline: time.Now().Add(cfg.PointDuration)}
			n := uint64(0)
			for !d.expired() {
				th.Atomic(func(tx *htm.Txn) {
					tx.Store(word, tx.Load(word)+1)
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

// StripeConflictTable renders the striping tradeoff at a fixed thread
// count: neighbor-word throughput, the overall abort rate, and the share of
// aborts attributed to stripe aliasing, across StripeShift values. The
// memory saved by striping (one metadata word per 2^shift words) is bought
// with exactly the false conflicts this table makes visible.
func StripeConflictTable(cfg Config, threads int, shifts []int) *Table {
	if shifts == nil {
		shifts = []int{0, 1, 2, 4}
	}
	t := &Table{
		Title:  fmt.Sprintf("Stripe knob: neighbor-word commits, %d threads", threads),
		XLabel: "stripe shift",
	}
	for _, sh := range shifts {
		t.Xs = append(t.Xs, fmt.Sprint(sh))
	}
	tput := Series{Label: "throughput [ops/us]"}
	aborts := Series{Label: "aborts per 1k ops"}
	aliased := Series{Label: "stripe conflicts per 1k ops"}
	for _, sh := range shifts {
		r := StripeContention(cfg, threads, sh)
		tput.Ys = append(tput.Ys, r.OpsPerUs())
		perK := func(n uint64) float64 {
			if r.Ops == 0 {
				return 0
			}
			return 1000 * float64(n) / float64(r.Ops)
		}
		aborts.Ys = append(aborts.Ys, perK(r.Stats.TotalAborts()))
		aliased.Ys = append(aliased.Ys, perK(r.Stats.StripeConflicts))
	}
	t.Series = append(t.Series, tput, aborts, aliased)
	return t
}
