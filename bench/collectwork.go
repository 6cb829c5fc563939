package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/htm"
	"repro/internal/core"
)

// collect-churn is the paper's Figure 7 at one point: Collects from an
// ArrayDynAppendDereg with the adaptive step while handles are deregistered
// and re-registered round-robin. In the contended regime a churner thread does
// that beside the collector, so the array the collector is reading is
// compacted, resized and freed underneath it; in the steady regime one thread
// alternates one churn and one Collect, so every Collect reads an array that
// has just been compacted and re-grown but no transaction is ever disturbed.

const (
	churnHandles     = 64
	sentinelHandles  = 8    // registered once, never churned: must be in every Collect
	churnWait        = 2000 // ns busy-waited between a Deregister and its Register
	collectHeapWords = 1 << 20
	sentinelTag      = uint64(1) << 62
)

func churnValue(slot int, ver uint64) uint64 { return uint64(slot+1)<<32 | ver }

type collectEnv struct {
	h         *htm.Heap
	col       *core.ArrayDynAppendDereg
	sentCtx   *core.Ctx
	sentinels []core.Handle
	churnCtx  *core.Ctx
	handles   []core.Handle
}

// setupCollect builds the heap and the collect object and registers the
// sentinel and churn handles.
func setupCollect() *collectEnv {
	e := &collectEnv{h: htm.NewHeap(htm.Config{Words: collectHeapWords})}
	e.col = core.NewArrayDynAppendDereg(e.h, 0, core.Options{Adaptive: true})
	e.sentCtx = e.col.NewCtx(e.h.NewThread())
	for i := 0; i < sentinelHandles; i++ {
		e.sentinels = append(e.sentinels, e.col.Register(e.sentCtx, sentinelTag|uint64(i)))
	}
	e.churnCtx = e.col.NewCtx(e.h.NewThread())
	for i := 0; i < churnHandles; i++ {
		e.handles = append(e.handles, e.col.Register(e.churnCtx, churnValue(i, 1)))
	}
	return e
}

type collectOutcome struct {
	w             *windowResult // the collector's: ops are Collects
	churn         *windowResult
	before, after htm.Stats
	values        uint64 // values returned over all Collects
	stepHist      map[int]uint64
	quiescent     uint64
	err           error
}

// run measures one window, with a churner thread beside the collector or
// with the two alternating on one thread, then deregisters everything and
// checks that only the object itself is left on a quiescent heap.
func (e *collectEnv) run(d time.Duration, tr *tracer, concurrent bool) *collectOutcome {
	out := &collectOutcome{before: e.h.Stats()}
	var collector, churner *recorder
	if concurrent {
		collector, churner = e.runConcurrent(d, tr, out)
	} else {
		collector, churner = e.runAlternating(d, tr, out)
	}
	out.after = e.h.Stats()
	out.w = mergeRecorders(d, collector)
	out.churn = mergeRecorders(d, churner)

	for _, h := range e.handles {
		e.col.Deregister(e.churnCtx, h)
	}
	for _, h := range e.sentinels {
		e.col.Deregister(e.sentCtx, h)
	}
	e.churnCtx.Close()
	e.sentCtx.Close()
	if n := e.col.Registered(); n != 0 {
		out.err = fmt.Errorf("%d handles still registered after deregistering all", n)
	}
	if err := sweepClean(e.h); err != nil && out.err == nil {
		out.err = err
	}
	out.quiescent = e.h.Stats().LiveWords
	return out
}

// runAlternating is the steady regime's window: churn one handle, Collect,
// repeat. With no one else registering, every Collect must return exactly the
// sentinels and the newest version of every churn slot.
func (e *collectEnv) runAlternating(d time.Duration, tr *tracer, out *collectOutcome) (collector, churner *recorder) {
	c := e.col.NewCtx(e.h.NewThread())
	defer c.Close()
	collector, churner = newRecorder(d, tr, opCollect), newRecorder(d, tr, opChurn)
	var vals []core.Value
	var newest [churnHandles]uint64
	for slot := range newest {
		newest[slot] = 1
	}
	ver := uint64(1)
	start := now()
	collector.begin(start)
	churner.begin(start)
	for i := 0; ; i++ {
		slot := i % churnHandles
		timed := i&sampleMask == 0
		var t0, t1 int64
		if timed {
			t0 = now()
			if t0 >= collector.end {
				break
			}
			collector.at(t0)
			churner.at(t0)
		}
		e.col.Deregister(e.churnCtx, e.handles[slot])
		ver++
		newest[slot] = ver
		e.handles[slot] = e.col.Register(e.churnCtx, churnValue(slot, ver))
		if timed {
			t1 = now()
			churner.observe("core", opChurn, t0, t1, uint32(i))
		}
		churner.attempted++
		churner.kindOps[opChurn]++
		churner.sliceOps[churner.si]++

		collector.attempted++
		vals = e.col.Collect(c, vals[:0])
		if timed {
			collector.observe("core", opCollect, t1, now(), uint32(i))
		}
		out.values += uint64(len(vals))
		err := checkCollect(vals, ver)
		if err == nil && len(vals) != sentinelHandles+churnHandles {
			err = fmt.Errorf("%d values, %d handles are registered", len(vals), sentinelHandles+churnHandles)
		}
		for _, v := range vals {
			if s := int(v>>32) - 1; err == nil && v&sentinelTag == 0 && v&(1<<32-1) != newest[s] {
				err = fmt.Errorf("slot %d read at version %d, its newest is %d", s, v&(1<<32-1), newest[s])
			}
		}
		if err != nil {
			collector.fail("collect %d: %v", i, err)
			continue
		}
		collector.sliceOps[collector.si]++
		collector.kindOps[opCollect]++
	}
	out.stepHist = c.StepHistogram()
	return collector, churner
}

// runConcurrent is the contended regime's window. The collector checks every
// result after timing it: all sentinels present, and every other value one the
// churner has issued (slot in range, version no later than the newest issued
// so far).
func (e *collectEnv) runConcurrent(d time.Duration, tr *tracer, out *collectOutcome) (collector, churner *recorder) {
	b := newStartBarrier(2)
	var issued atomic.Uint64 // highest version the churner has started to register
	issued.Store(1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)

	go func() { // collector
		defer wg.Done()
		defer stop.Store(true)
		c := e.col.NewCtx(e.h.NewThread())
		defer c.Close()
		r := newRecorder(d, tr, opCollect)
		collector = r
		var vals []core.Value
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
			vals = e.col.Collect(c, vals[:0])
			if timed {
				r.observe("core", opCollect, t0, now(), uint32(i))
			}
			out.values += uint64(len(vals))
			if err := checkCollect(vals, issued.Load()); err != nil {
				r.fail("collect %d: %v", i, err)
				continue
			}
			r.sliceOps[r.si]++
			r.kindOps[opCollect]++
		}
		out.stepHist = c.StepHistogram()
	}()

	go func() { // churner
		defer wg.Done()
		r := newRecorder(d, tr, opChurn)
		churner = r
		c := e.churnCtx
		ver := uint64(1)
		r.begin(b.arrive())
		for i := 0; !stop.Load(); i++ {
			slot := i % churnHandles
			timed := i&sampleMask == 0
			var t0 int64
			if timed {
				t0 = now()
			}
			e.col.Deregister(c, e.handles[slot])
			// The wait is against the clock, not a calibrated iteration count:
			// a count calibrated once per run would stretch or shrink the
			// churn rate of the whole run with the host's speed at that moment.
			t1 := now()
			t2 := t1 + churnWait
			for now() < t2 {
			}
			ver++
			issued.Store(ver)
			e.handles[slot] = e.col.Register(c, churnValue(slot, ver))
			if timed {
				// The busy-wait is the workload's think time, not the op.
				t3 := now()
				if t3 < r.end {
					r.at(t3)
					r.observe("core", opChurn, t0, t3-(t2-t1), uint32(i))
					r.sliceOps[r.si] += sampleMask + 1
				}
			}
			r.kindOps[opChurn]++
			r.attempted++
		}
	}()

	b.release()
	wg.Wait()
	return collector, churner
}

func checkCollect(vals []core.Value, issued uint64) error {
	var sentinels [sentinelHandles]bool
	for _, v := range vals {
		if v&sentinelTag != 0 {
			if i := v &^ sentinelTag; i < sentinelHandles {
				sentinels[i] = true
				continue
			}
			return fmt.Errorf("value %#x is no registered sentinel", v)
		}
		slot, ver := int(v>>32)-1, v&(1<<32-1)
		if slot < 0 || slot >= churnHandles || ver < 1 || ver > issued {
			return fmt.Errorf("value %#x maps to no handle ever registered (newest version %d)", v, issued)
		}
	}
	for i, ok := range sentinels {
		if !ok {
			return fmt.Errorf("sentinel %d missing from a Collect of %d values", i, len(vals))
		}
	}
	return nil
}

func runCollectEndToEnd(cfg runConfig) *runResult {
	res := newRunResult("collect-churn")
	var env *collectEnv
	setup := func() error {
		env = setupCollect()
		return nil
	}
	setups, _ := timeSetups(cfg, func() {}, setup)
	runtime.GC()
	out := env.run(cfg.window, nil, cfg.clients > 1)
	after, _ := timeSetups(cfg, func() {}, setup)
	setups = append(setups, after...)
	res.check(out.err)
	res.absorb(out.w)
	res.absorb(out.churn)
	res.endToEnd(setups, out.w, opCollect, out.churn, opChurn, out.quiescent)
	return res
}

func runCollectTraced(cfg runConfig) *runResult {
	res := newRunResult("collect-churn")
	m := res.metrics

	refBefore := setupCollect().run(share(cfg.window, shareReference), nil, cfg.clients > 1)
	res.check(refBefore.err)
	res.absorb(refBefore.w)

	tr := newTracer()
	out := setupCollect().run(share(cfg.window, shareTraced), tr, cfg.clients > 1)
	res.check(out.err)
	res.absorb(out.w)
	res.absorb(out.churn)
	refAfter := setupCollect().run(share(cfg.window, shareReference), nil, cfg.clients > 1)
	res.check(refAfter.err)
	res.absorb(refAfter.w)
	res.check(tr.writeFile(filepath.Join(cfg.out, "trace-collect-churn.json")))

	collects := float64(max(out.w.ops(), 1))
	emitHTMDeltas(m, out.before, out.after, collects+float64(out.churn.kindOps[opChurn]))
	emitTrace(m, tr, out.w, refBefore.w, refAfter.w)
	m["core.collect_p50_us"] = out.w.p50us(opCollect)
	m["core.collect_p99_us"] = out.w.p99us(opCollect)
	m["core.values_per_collect"] = float64(out.values) / float64(max(out.w.attempted, 1))
	var elems, weighted float64
	for step, n := range out.stepHist {
		elems += float64(n)
		weighted += float64(step) * float64(n)
	}
	m["core.step_mean"] = weighted / max(elems, 1)
	m["core.churn_ops_per_s"] = out.churn.opsPerSec()
	m["core.churn_p99_us"] = out.churn.p99us(opChurn)
	probes := runProbes(share(cfg.window, shareRung))
	probes.emit(m)

	l := ladder{workload: res.workload, op: "collect", top: out.w.p50us(opCollect), samples: out.w.samples(opCollect)}
	l.add("core", l.top, true)
	l.add("htm probe (ro8)", probes.roNs/1e3, false)
	res.ladders = append(res.ladders, l)
	return res
}
