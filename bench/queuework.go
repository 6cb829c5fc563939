package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/htm"
	"repro/queue"
)

// queue-reclaim is the paper's Figure 1: a burst of enqueues, then each client
// replays its balanced ring of enqueue/dequeue choices, then the queue is
// drained. Values carry (producer, sequence) so FIFO order can be checked.

const (
	queueBurst     = 4096
	queueHeapWords = 1 << 20
	burstProducer  = maxClients // producer id of the set-up burst
)

type queueImpl struct {
	key string // metric infix
	mk  func(h *htm.Heap) queue.Queue
}

var (
	htmQueue      = queueImpl{"htm", func(h *htm.Heap) queue.Queue { return queue.NewHTMQueue(h) }}
	queueControls = []queueImpl{
		{"ms", func(h *htm.Heap) queue.Queue { return queue.NewMSQueue(h) }},
		{"rop", func(h *htm.Heap) queue.Queue { return queue.NewMSQueueROP(h) }},
		{"ebr", func(h *htm.Heap) queue.Queue { return queue.NewMSQueueEBR(h) }},
	}
)

func queueValue(producer int, seq uint64) uint64 { return uint64(producer+1)<<40 | seq }
func queueProducer(v uint64) int                 { return int(v>>40) - 1 }
func queueSeq(v uint64) uint64                   { return v & (1<<40 - 1) }

type queueEnv struct {
	h     *htm.Heap
	q     queue.Queue
	rings [][]bool // one per client
}

// setupQueue builds the heap and the queue and enqueues the burst.
func setupQueue(impl queueImpl, rings [][]bool) *queueEnv {
	e := &queueEnv{h: htm.NewHeap(htm.Config{Words: queueHeapWords}), rings: rings}
	e.q = impl.mk(e.h)
	c := e.q.NewCtx(e.h.NewThread())
	for i := uint64(1); i <= queueBurst; i++ {
		e.q.Enqueue(c, queueValue(burstProducer, i))
	}
	queue.CloseCtx(e.q, c)
	return e
}

// queueOutcome is one queue's measured window plus its checked aftermath.
type queueOutcome struct {
	w              *windowResult
	before, after  htm.Stats
	emptyDequeues  uint64
	quiescentWords uint64
	err            error
}

// fifoChecker holds, per producer, the highest sequence one consumer has
// dequeued: a FIFO queue hands any one consumer each producer's values in
// increasing order.
type fifoChecker [maxClients + 1]uint64

func (f *fifoChecker) see(v uint64) error {
	p, s := queueProducer(v), queueSeq(v)
	if p < 0 || p > maxClients {
		return fmt.Errorf("dequeued %#x, which no producer enqueued", v)
	}
	if s <= f[p] {
		return fmt.Errorf("producer %d: dequeued seq %d after seq %d", p, s, f[p])
	}
	f[p] = s
	return nil
}

// run measures one window, then drains and checks: per-producer FIFO order
// for each consumer and for the drain, enqueued = dequeued + drained, and a
// quiescent heap.
func (e *queueEnv) run(d time.Duration, tr *tracer) *queueOutcome {
	out := &queueOutcome{before: e.h.Stats()}
	b := newStartBarrier(len(e.rings))
	// Each client counts in locals and publishes once at the end: counters
	// side by side in one array would share a cache line between the clients.
	type clientOutcome struct {
		rec             *recorder
		seen            fifoChecker
		enq, deq, empty uint64
	}
	outcomes := make([]clientOutcome, len(e.rings))
	var wg sync.WaitGroup
	for id := range e.rings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.q.NewCtx(e.h.NewThread())
			defer queue.CloseCtx(e.q, c)
			ring := e.rings[id]
			r := newRecorder(d, tr, opEnqueue, opDequeue)
			var seen fifoChecker
			var enq, deq, empty uint64
			r.begin(b.arrive())
			for i := 0; ; i++ {
				timed := i&sampleMask == 0
				var t0 int64
				if timed {
					t0 = now()
					if t0 >= r.end {
						break
					}
					r.at(t0)
				}
				r.attempted++
				if ring[i&(ringLen-1)] {
					enq++
					e.q.Enqueue(c, queueValue(id, enq))
					if timed {
						r.observe("queue", opEnqueue, t0, now(), uint32(i))
					}
					r.kindOps[opEnqueue]++
				} else {
					v, ok := e.q.Dequeue(c)
					if timed {
						r.observe("queue", opDequeue, t0, now(), uint32(i))
					}
					r.kindOps[opDequeue]++
					if !ok {
						empty++
					} else {
						deq++
						if err := seen.see(v); err != nil {
							r.fail("consumer %d: %v", id, err)
							continue
						}
					}
				}
				r.sliceOps[r.si]++
			}
			outcomes[id] = clientOutcome{r, seen, enq, deq, empty}
		}()
	}
	b.release()
	wg.Wait()
	out.after = e.h.Stats()
	var recs []*recorder
	for _, o := range outcomes {
		recs = append(recs, o.rec)
	}
	out.w = mergeRecorders(d, recs...)

	// What is left was enqueued after everything any consumer took from the
	// same producer, so the drain continues from the highest sequence seen.
	var drain fifoChecker
	for p := range drain {
		for _, o := range outcomes {
			drain[p] = max(drain[p], o.seen[p])
		}
	}
	c := e.q.NewCtx(e.h.NewThread())
	rest := queue.Drain(e.q, c)
	queue.CloseCtx(e.q, c)
	for _, v := range rest {
		if err := drain.see(v); err != nil && out.err == nil {
			out.err = fmt.Errorf("drain: %w", err)
		}
	}
	var enqueued, dequeued uint64 = queueBurst, uint64(len(rest))
	for _, o := range outcomes {
		enqueued, dequeued = enqueued+o.enq, dequeued+o.deq
		out.emptyDequeues += o.empty
	}
	if enqueued != dequeued && out.err == nil {
		out.err = fmt.Errorf("%s: enqueued %d values, dequeued and drained %d", e.q.Name(), enqueued, dequeued)
	}
	if err := sweepClean(e.h); err != nil && out.err == nil {
		out.err = fmt.Errorf("%s: %w", e.q.Name(), err)
	}
	out.quiescentWords = e.h.Stats().LiveWords
	return out
}

func genQueueRings(seed uint64, clients int) [][]bool {
	rings := make([][]bool, clients)
	for c := range rings {
		rings[c] = genCoinRing(seed, c)
	}
	return rings
}

func runQueueEndToEnd(cfg runConfig) *runResult {
	res := newRunResult("queue-reclaim")
	rings := genQueueRings(cfg.seed, cfg.clients)
	var env *queueEnv
	setup := func() error {
		env = setupQueue(htmQueue, rings)
		return nil
	}
	setups, _ := timeSetups(cfg, func() {}, setup)
	runtime.GC()
	out := env.run(cfg.window, nil)
	after, _ := timeSetups(cfg, func() {}, setup)
	setups = append(setups, after...)
	res.check(out.err)
	res.absorb(out.w)
	res.endToEnd(setups, out.w, opDequeue, out.w, opEnqueue, out.quiescentWords)
	return res
}

func runQueueTraced(cfg runConfig) *runResult {
	res := newRunResult("queue-reclaim")
	m := res.metrics
	rings := genQueueRings(cfg.seed, cfg.clients)

	refBefore := setupQueue(htmQueue, rings).run(share(cfg.window, shareReference), nil)
	res.check(refBefore.err)
	res.absorb(refBefore.w)

	tr := newTracer()
	out := setupQueue(htmQueue, rings).run(share(cfg.window, shareTraced), tr)
	res.check(out.err)
	res.absorb(out.w)
	refAfter := setupQueue(htmQueue, rings).run(share(cfg.window, shareReference), nil)
	res.check(refAfter.err)
	res.absorb(refAfter.w)
	res.check(tr.writeFile(filepath.Join(cfg.out, "trace-queue-reclaim.json")))

	emitHTMDeltas(m, out.before, out.after, float64(max(out.w.ops(), 1)))
	emitTrace(m, tr, out.w, refBefore.w, refAfter.w)
	m["queue.enqueue_p50_ns"] = out.w.p50us(opEnqueue) * 1e3
	m["queue.dequeue_p50_ns"] = out.w.p50us(opDequeue) * 1e3
	m["queue.enqueue_p99_ns"] = out.w.p99us(opEnqueue) * 1e3
	m["queue.dequeue_p99_ns"] = out.w.p99us(opDequeue) * 1e3
	m["queue.dequeue_empty_ratio"] = float64(out.emptyDequeues) / float64(max(out.w.kindOps[opDequeue], 1))
	for _, impl := range queueControls {
		ctl := setupQueue(impl, rings).run(share(cfg.window, shareRung), nil)
		res.check(ctl.err)
		res.absorb(ctl.w)
		m["queue."+impl.key+".ops_per_s"] = ctl.w.opsPerSec()
		m["queue."+impl.key+".quiescent_words"] = float64(ctl.quiescentWords)
	}
	m["queue.htm_vs_ms_ratio"] = out.w.opsPerSec() / max(m["queue.ms.ops_per_s"], 1)
	probes := runProbes(share(cfg.window, shareRung))
	probes.emit(m)

	for _, k := range []opKind{opEnqueue, opDequeue} {
		l := ladder{workload: res.workload, op: kindNames[k], top: out.w.p50us(k), samples: out.w.samples(k)}
		l.add("queue", l.top, true)
		l.add("htm probe (rw4 + alloc/free)", (probes.rwNs+probes.allocFreeNs)/1e3, false)
		res.ladders = append(res.ladders, l)
	}
	return res
}
