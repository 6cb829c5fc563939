package main

import (
	"slices"
	"time"

	"repro/htm"
)

// htmProbes are single-thread calibration timings of the substrate's public
// primitives on a heap of their own: the bottom rung of every ladder.
type htmProbes struct {
	roNs, rwNs, allocFreeNs, loadNTNs float64
}

func (p htmProbes) emit(m metricSet) {
	m["htm.txn_ro8_ns"] = p.roNs
	m["htm.txn_rw4_ns"] = p.rwNs
	m["htm.alloc_free16_ns"] = p.allocFreeNs
	m["htm.load_nt_ns"] = p.loadNTNs
}

var probeSink uint64

// runProbes spends d across the four probes.
func runProbes(d time.Duration) htmProbes {
	h := htm.NewHeap(htm.Config{Words: 1 << 16, EnableTLE: true})
	th := h.NewThread()
	a := th.Alloc(8)
	each := d / 4
	return htmProbes{
		roNs: probe(each, func() {
			th.Atomic(func(t *htm.Txn) {
				var s uint64
				for i := htm.Addr(0); i < 8; i++ {
					s += t.Load(a + i)
				}
				probeSink = s
			})
		}),
		rwNs: probe(each, func() {
			th.Atomic(func(t *htm.Txn) {
				for i := htm.Addr(0); i < 4; i++ {
					t.Store(a+i, t.Load(a+i)+1)
				}
			})
		}),
		allocFreeNs: probe(each, func() { th.Free(th.Alloc(16)) }),
		loadNTNs:    probe(each, func() { probeSink = h.LoadNT(a) }),
	}
}

// probe times batches of 256 calls of f for d and returns the median batch's
// nanoseconds per call.
func probe(d time.Duration, f func()) float64 {
	const batch = 256
	var perCall []float64
	for end := now() + int64(d); ; {
		t0 := now()
		if t0 >= end && len(perCall) > 0 {
			break
		}
		for i := 0; i < batch; i++ {
			f()
		}
		perCall = append(perCall, float64(now()-t0)/batch)
	}
	slices.Sort(perCall)
	return perCall[len(perCall)/2]
}
