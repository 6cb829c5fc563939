package harness

import (
	"strconv"

	"repro/htm"
)

// The contended-overflow workload: every operation writes more distinct
// words than the store buffer holds, so every operation completes on the TLE
// fallback path. This is the §6 scenario the fine-grained fallback exists
// for — under the paper's single global fallback lock these operations
// serialize even when their footprints are disjoint, and every hardware
// transaction in the process waits out each critical section at begin.

// fallbackHeapWords sizes the per-point heap: each worker needs only its own
// small block, but keep headroom for thread-cache stranding.
const fallbackHeapWords = 1 << 18

// fallbackStoreBuffer is the deliberately tiny store buffer of the
// contended-overflow workload; fallbackWrites distinct stores overflow it on
// the first hardware attempt and MaxRetries 1 engages the fallback at once.
const (
	fallbackStoreBuffer = 2
	fallbackWrites      = 8
)

// fallbackConfig configures the contended-overflow heap, starting in the
// global-lock mode if global.
func fallbackConfig(global bool) htm.Config {
	return htm.Config{
		Words:           fallbackHeapWords,
		StoreBufferSize: fallbackStoreBuffer,
		EnableTLE:       true,
		MaxRetries:      1,
		GlobalFallback:  global,
	}
}

// FallbackOverflow measures fallback throughput: `threads` workers each run
// transactions that overflow the store buffer and complete on the fallback
// path. With disjoint=true every worker owns its block (the footprints share
// nothing); otherwise all workers hammer one shared block. global starts the
// heap in the global-lock mode (htm.Config.GlobalFallback).
func FallbackOverflow(cfg Config, threads int, disjoint, global bool) Result {
	cfg = cfg.withDefaults()
	h := cfg.heap(fallbackConfig(global))
	setup := h.NewThread()
	shared := setup.Alloc(fallbackWrites)
	return cfg.measure(h, threads, func(int) (func(), func() map[int]uint64) {
		th := h.NewThread()
		blk := shared
		if disjoint {
			blk = th.Alloc(fallbackWrites)
		}
		return overflowOp(th, blk), nil
	}, 0, nil)
}

// overflowOp is one contended-overflow operation: increment every word of
// blk in one transaction, more stores than the store buffer holds.
func overflowOp(th *htm.Thread, blk htm.Addr) func() {
	return func() {
		th.Atomic(func(tx *htm.Txn) {
			for i := 0; i < fallbackWrites; i++ {
				a := blk + htm.Addr(i)
				tx.Store(a, tx.Load(a)+1)
			}
		})
	}
}

// FallbackInterference measures what persistent fallback traffic costs the
// hardware path: one background worker loops overflowing (fallback)
// operations on its private block while `threads` other workers run small
// hardware transactions on their own private words. Only the hardware
// workers' operations are counted, and the fallback looper runs until they
// are done, so they face fallback traffic for the whole window. Under the
// global lock every hardware begin waits out every fallback critical
// section; under the fine-grained fallback the footprints are disjoint and
// the hardware path never waits.
func FallbackInterference(cfg Config, threads int, global bool) Result {
	cfg = cfg.withDefaults()
	h := cfg.heap(fallbackConfig(global))
	return cfg.measure(h, threads, func(int) (func(), func() map[int]uint64) {
		th := h.NewThread()
		word := th.Alloc(1)
		return func() {
			th.Atomic(func(tx *htm.Txn) {
				tx.Store(word, tx.Load(word)+1)
			})
		}, nil
	}, 1, func(int) (func(), func() map[int]uint64) {
		th := h.NewThread()
		return overflowOp(th, th.Alloc(fallbackWrites)), nil
	})
}

// FallbackScaling renders the contended-overflow figure: fallback throughput
// versus thread count, fine-grained against the global-lock baseline, on
// disjoint and on fully shared footprints. The paper's global lock
// serializes all four series; the fine-grained fallback lets the disjoint
// series scale while the shared series stays (correctly) serialized by true
// data conflicts.
func FallbackScaling(cfg Config, threadCounts []int) *Table {
	if threadCounts == nil {
		threadCounts = DefaultThreadCounts
	}
	overflow := func(label string, disjoint, global bool) row {
		return row{label, func(n int) float64 { return FallbackOverflow(cfg, n, disjoint, global).OpsPerUs() }}
	}
	return grid("Fallback scaling: contended-overflow [ops/us]", "threads", threadCounts, strconv.Itoa,
		overflow("fine-grained disjoint", true, false),
		overflow("global-lock disjoint", true, true),
		overflow("fine-grained shared", false, false),
		overflow("global-lock shared", false, true))
}

// FallbackInterferenceTable renders hardware throughput beside one
// persistent fallback looper, fine-grained versus global-lock, across
// hardware thread counts.
func FallbackInterferenceTable(cfg Config, threadCounts []int) *Table {
	if threadCounts == nil {
		threadCounts = DefaultThreadCounts
	}
	beside := func(label string, global bool) row {
		return row{label, func(n int) float64 { return FallbackInterference(cfg, n, global).OpsPerUs() }}
	}
	return grid("Hardware throughput beside persistent fallback traffic [ops/us]", "hw threads", threadCounts, strconv.Itoa,
		beside("fine-grained fallback", false), beside("global-lock fallback", true))
}
