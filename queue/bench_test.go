package queue

import (
	"math/rand"
	"testing"

	"repro/htm"
)

// BenchmarkQueueReclaim is the repo benchmark's queue-reclaim steady loop in
// one command, for the next profile of the short-transaction path:
//
//	go test -run '^$' -bench QueueReclaim -cpu 1 -cpuprofile /tmp/cpu.out ./queue
//
// A 4 096-node burst, then one enqueue or dequeue per iteration chosen by a
// seeded, balanced coin ring (as many of each, shuffled), so the queue returns
// to its burst length on every lap and never drains. One sub-benchmark per
// queue: HTM is Figure 1's subject, the three Michael-Scott queues are its
// controls.
func BenchmarkQueueReclaim(b *testing.B) {
	const burst, ringLen = 4096, 1 << 12
	ring := make([]bool, ringLen)
	for i := 0; i < ringLen/2; i++ {
		ring[i] = true
	}
	rand.New(rand.NewSource(1)).Shuffle(ringLen, func(i, j int) { ring[i], ring[j] = ring[j], ring[i] })
	for _, im := range qimpls() {
		b.Run(im.name, func(b *testing.B) {
			h := htm.NewHeap(htm.Config{Words: 1 << 20})
			q := im.mk(h)
			c := q.NewCtx(h.NewThread())
			defer CloseCtx(q, c)
			seq := uint64(0)
			for ; seq < burst; seq++ {
				q.Enqueue(c, seq+1)
			}
			if im.name == "HTM" {
				// The node image and both transaction closures stay on the stack.
				if a := testing.AllocsPerRun(100, func() {
					q.Enqueue(c, 1)
					q.Dequeue(c)
				}); a != 0 {
					b.Fatalf("HTMQueue enqueue+dequeue allocates %v objects, want 0", a)
				}
			}
			empty := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ring[i&(ringLen-1)] {
					seq++
					q.Enqueue(c, seq)
				} else if _, ok := q.Dequeue(c); !ok {
					empty++
				}
			}
			b.StopTimer()
			if empty != 0 {
				b.Fatalf("%d dequeues found the queue empty behind a %d-node burst", empty, burst)
			}
		})
	}
}
