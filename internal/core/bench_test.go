package core

import (
	"testing"

	"repro/htm"
)

// BenchmarkChurnCollect is the repo benchmark's collect-churn steady loop in
// one command, for the next profile of the telescoped Collect path:
//
//	go test -run '^$' -bench ChurnCollect -cpu 1 -cpuprofile /tmp/cpu.out ./internal/core
//
// 72 handles (8 never churned) on an ArrayDynAppendDereg with the adaptive
// step; one iteration deregisters and re-registers one handle and then runs
// one Collect into a reused slice.
func BenchmarkChurnCollect(b *testing.B) {
	const churned, pinned = 64, 8
	h := htm.NewHeap(htm.Config{Words: 1 << 20})
	col := NewArrayDynAppendDereg(h, 0, Options{Adaptive: true})
	churn := col.NewCtx(h.NewThread())
	for i := 0; i < pinned; i++ {
		col.Register(churn, Value(1)<<62|Value(i))
	}
	var handles [churned]Handle
	for i := range handles {
		handles[i] = col.Register(churn, Value(i+1)<<32|1)
	}
	c := col.NewCtx(h.NewThread())
	vals := col.Collect(c, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % churned
		col.Deregister(churn, handles[slot])
		handles[slot] = col.Register(churn, Value(slot+1)<<32|Value(i+2))
		vals = col.Collect(c, vals[:0])
	}
	b.StopTimer()
	if len(vals) != churned+pinned {
		b.Fatalf("Collect returned %d values, %d handles are registered", len(vals), churned+pinned)
	}
}
