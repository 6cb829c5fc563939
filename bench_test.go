package repro

// Repository-level benchmarks: ablations for the design choices DESIGN.md
// calls out and the two §4.1/§5.4 extensions. The paper's figures are
// cmd/figures; substrate and data-path microbenchmarks live beside their
// packages (htm, queue, kv, internal/core); regressions are judged by bench/.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"repro/htm"
	"repro/internal/core"
	"repro/internal/harness"
)

// BenchmarkAblationTelescoping isolates the benefit of telescoping: the
// Figure 2 algorithm's collect throughput at step 1 (no telescoping) versus
// larger steps, uncontended.
func BenchmarkAblationTelescoping(b *testing.B) {
	for _, step := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("step=%d", step), func(b *testing.B) {
			h := htm.NewHeap(htm.Config{Words: 1 << 19})
			col := core.NewArrayDynAppendDereg(h, 0, core.Options{Step: step})
			c := col.NewCtx(h.NewThread())
			for i := 0; i < 64; i++ {
				col.Register(c, uint64(i+1))
			}
			var out []core.Value
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = col.Collect(c, out[:0])
			}
			if len(out) != 64 {
				b.Fatalf("collect returned %d values", len(out))
			}
		})
	}
}

// BenchmarkAblationTLE compares best-effort retry against the TLE fallback
// under a workload whose transactions always fit (TLE should cost nothing)
// and one that always overflows (TLE is the only way to complete).
func BenchmarkAblationTLE(b *testing.B) {
	run := func(b *testing.B, cfg htm.Config, stores int) {
		h := htm.NewHeap(cfg)
		th := h.NewThread()
		a := th.Alloc(stores)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.Atomic(func(t *htm.Txn) {
				for s := 0; s < stores; s++ {
					t.Store(a+htm.Addr(s), uint64(i))
				}
			})
		}
	}
	b.Run("fits/best-effort", func(b *testing.B) {
		run(b, htm.Config{Words: 1 << 16}, 8)
	})
	b.Run("fits/tle-enabled", func(b *testing.B) {
		run(b, htm.Config{Words: 1 << 16, EnableTLE: true}, 8)
	})
	b.Run("overflows/tle-fallback", func(b *testing.B) {
		run(b, htm.Config{Words: 1 << 16, EnableTLE: true, MaxRetries: 1}, htm.RockStoreBufferSize+8)
	})
	b.Run("overflows/tle-fallback-global", func(b *testing.B) {
		run(b, htm.Config{Words: 1 << 16, EnableTLE: true, MaxRetries: 1, GlobalFallback: true}, htm.RockStoreBufferSize+8)
	})
}

// BenchmarkAblationAllocInTxn compares the paper's pre-allocate-outside
// discipline (Rock) against a TM-aware allocator (future HTM, §6) on an
// enqueue-shaped transaction.
func BenchmarkAblationAllocInTxn(b *testing.B) {
	b.Run("prealloc-outside", func(b *testing.B) {
		h := htm.NewHeap(htm.Config{Words: 1 << 20})
		th := h.NewThread()
		slot := th.Alloc(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := th.Alloc(2)
			th.Atomic(func(t *htm.Txn) {
				t.Store(n, uint64(i))
				old := htm.Addr(t.Load(slot))
				t.Store(slot, uint64(n))
				if old != htm.NilAddr {
					t.FreeOnCommit(old)
				}
			})
		}
	})
	b.Run("alloc-in-txn", func(b *testing.B) {
		h := htm.NewHeap(htm.Config{Words: 1 << 20, AllowAllocInTxn: true})
		th := h.NewThread()
		slot := th.Alloc(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.Atomic(func(t *htm.Txn) {
				n := t.Alloc(2)
				t.Store(n, uint64(i))
				old := htm.Addr(t.Load(slot))
				t.Store(slot, uint64(n))
				if old != htm.NilAddr {
					t.FreeOnCommit(old)
				}
			})
		}
	})
}

// BenchmarkAblationCompaction isolates what compaction buys Collect: scan
// cost with 8 registered handles after a historical maximum of 64, for the
// compact-on-deregister, no-compaction, and full-scan designs.
func BenchmarkAblationCompaction(b *testing.B) {
	specs := []harness.CollectorSpec{
		harness.SpecArrayStatAppendDereg(64, core.Options{Step: 32}),
		harness.SpecArrayStatSearchNo(64),
		harness.SpecStaticBaseline(64),
	}
	for _, spec := range specs {
		b.Run(spec.Label, func(b *testing.B) {
			h := htm.NewHeap(htm.Config{Words: 1 << 19})
			col := spec.New(h, 1)
			c := col.NewCtx(h.NewThread())
			handles := make([]core.Handle, 0, 64)
			for i := 0; i < 64; i++ {
				handles = append(handles, col.Register(c, uint64(i+1)))
			}
			for i := 8; i < 64; i++ {
				col.Deregister(c, handles[i])
			}
			var out []core.Value
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = col.Collect(c, out[:0])
			}
			if len(out) != 8 {
				b.Fatalf("collect returned %d values", len(out))
			}
		})
	}
}

// BenchmarkExtensionUpdOpt contrasts the paper's §4.1 unimplemented variant
// with the base algorithm: naked-store Update (fast) against transactional
// indirection, and the matching Collect-side costs.
func BenchmarkExtensionUpdOpt(b *testing.B) {
	mk := map[string]func(h *htm.Heap) core.Collector{
		"base": func(h *htm.Heap) core.Collector { return core.NewArrayDynAppendDereg(h, 0, core.Options{Step: 16}) },
		"updopt": func(h *htm.Heap) core.Collector {
			return core.NewArrayDynAppendDeregUpdOpt(h, 0, core.Options{Step: 16})
		},
	}
	for name, make := range mk {
		b.Run(name+"/update", func(b *testing.B) {
			h := htm.NewHeap(htm.Config{Words: 1 << 19})
			col := make(h)
			c := col.NewCtx(h.NewThread())
			hd := col.Register(c, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col.Update(c, hd, uint64(i+1))
			}
		})
		b.Run(name+"/collect64", func(b *testing.B) {
			h := htm.NewHeap(htm.Config{Words: 1 << 19})
			col := make(h)
			c := col.NewCtx(h.NewThread())
			for i := 0; i < 64; i++ {
				col.Register(c, uint64(i+1))
			}
			var out []core.Value
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = col.Collect(c, out[:0])
			}
		})
	}
}

// BenchmarkExtensionDeferredReuse shows §5.4's suggestion paying off for
// FastCollect: Register/Deregister churn with and without deferred reuse,
// measured as single-thread churn cost.
func BenchmarkExtensionDeferredReuse(b *testing.B) {
	b.Run("fastcollect/plain", func(b *testing.B) {
		h := htm.NewHeap(htm.Config{Words: 1 << 19})
		col := core.NewFastCollect(h, core.Options{Step: 16})
		c := col.NewCtx(h.NewThread())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hd := col.Register(c, uint64(i+1))
			col.Deregister(c, hd)
		}
	})
	b.Run("fastcollect/deferred-reuse", func(b *testing.B) {
		h := htm.NewHeap(htm.Config{Words: 1 << 19})
		col := core.NewDeferredReuse(core.NewFastCollect(h, core.Options{Step: 16}), 8)
		c := col.NewCtx(h.NewThread())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hd := col.Register(c, uint64(i+1))
			col.Deregister(c, hd)
		}
	})
}
