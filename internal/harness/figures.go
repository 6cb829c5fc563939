package harness

import (
	"fmt"
	"strconv"
	"time"

	"repro/htm"
	"repro/internal/core"
	"repro/queue"
)

// Default sweeps, matching the paper's axes.
var (
	// DefaultThreadCounts is the X axis of Figures 1 and 3.
	DefaultThreadCounts = []int{1, 2, 4, 6, 8, 10, 12, 14, 16}
	// Fig4Periods is the update-period axis of Figures 4 and 5 (cycles).
	Fig4Periods = []int{1000000, 500000, 200000, 100000, 50000, 20000, 10000,
		8000, 6000, 4000, 2000, 1000, 800, 600, 400}
	// Fig6Periods is the axis of Figure 6 (cycles).
	Fig6Periods = []int{8000, 6000, 4000, 2000, 1000, 800, 600, 400}
	// Fig7Periods is the deregister-period axis of Figure 7 (cycles).
	Fig7Periods = []int{1000000, 500000, 200000, 100000, 50000, 20000, 10000,
		8000, 6000, 4000, 2000, 1000}
	// Fig7RegisterPeriod is fixed in §5.4.
	Fig7RegisterPeriod = 20000
)

// The §5 experiments keep at most 64 handles registered, so the static
// arrays are sized 64 as on Rock.
const paperCapacity = 64

// Fig1 reproduces Figure 1: queue throughput versus thread count for the
// HTM queue, the Michael-Scott queue, Michael-Scott with ROP reclamation,
// and Michael-Scott with epoch-based reclamation.
func Fig1(cfg Config, threadCounts []int) *Table {
	var rows []row
	for _, spec := range QueueSpecs() {
		rows = append(rows, row{spec.Label,
			func(n int) float64 { return QueueThroughput(cfg, spec.New, n, 256).OpsPerUs() }})
	}
	return grid("Figure 1: Queue performance [ops/us]", "threads", threadCounts, strconv.Itoa, rows...)
}

// specRows makes one row per collector spec, labelled as the spec, whose
// point at x is the throughput of point(spec, x).
func specRows(specs []CollectorSpec, point func(spec CollectorSpec, x int) Result) []row {
	rows := make([]row, len(specs))
	for i, spec := range specs {
		rows[i] = row{spec.Label, func(x int) float64 { return point(spec, x).OpsPerUs() }}
	}
	return rows
}

// Fig3Specs is the algorithm set of Figure 3, in the paper's legend order.
func Fig3Specs() []CollectorSpec {
	return []CollectorSpec{
		SpecArrayStatSearchNo(paperCapacity),
		SpecArrayDynAppendDereg(stepOpts(32)),
		SpecArrayStatAppendDereg(paperCapacity, stepOpts(32)),
		SpecFastCollect(stepOpts(32)),
		SpecStaticBaseline(paperCapacity),
		SpecArrayDynSearchResize(stepOpts(32)),
		SpecHOHRC(stepOpts(28)),
		SpecDynamicBaseline(),
	}
}

// Fig3 reproduces Figure 3: collect-dominated throughput versus thread
// count for all eight algorithms.
func Fig3(cfg Config, threadCounts []int) *Table {
	return grid("Figure 3: Collect-dominated [ops/us]", "threads", threadCounts, strconv.Itoa,
		specRows(Fig3Specs(), func(spec CollectorSpec, n int) Result { return CollectDominated(cfg, Bind(spec, n), n) })...)
}

// Fig4Specs is the algorithm set of Figure 4 (HOHRC and the Dynamic baseline
// are omitted, as in the paper, after Figure 3 shows them far behind).
func Fig4Specs() []CollectorSpec {
	return []CollectorSpec{
		SpecArrayDynAppendDereg(adaptOpts(8)),
		SpecArrayStatAppendDereg(paperCapacity, adaptOpts(8)),
		SpecFastCollect(adaptOpts(8)),
		SpecArrayDynSearchResize(adaptOpts(8)),
		SpecArrayStatSearchNo(paperCapacity),
		SpecStaticBaseline(paperCapacity),
	}
}

// Fig4 reproduces Figure 4: Collect throughput under concurrent Updates,
// sweeping the update period.
func Fig4(cfg Config, updaters int, periods []int) *Table {
	return grid("Figure 4: Collect-Update [ops/us]", "update period", periods, FormatCycles,
		specRows(Fig4Specs(), func(spec CollectorSpec, p int) Result {
			return CollectUpdate(cfg, Bind(spec, updaters+1), updaters, p)
		})...)
}

// Fig5 reproduces Figure 5: fixed step sizes 8/16/32 versus the best fixed
// step with adaptation bookkeeping ("Best (adapt cost)") versus the adaptive
// mechanism, for ArrayDynAppendDereg on the collect-update workload.
func Fig5(cfg Config, updaters int, periods []int) *Table {
	update := func(o core.Options, p int) float64 {
		return CollectUpdate(cfg, Bind(SpecArrayDynAppendDereg(o), updaters+1), updaters, p).OpsPerUs()
	}
	fixedSteps := []int{32, 16, 8}
	var rows []row
	for _, step := range fixedSteps {
		rows = append(rows, row{fmt.Sprintf("Step %d", step), func(p int) float64 { return update(stepOpts(step), p) }})
	}
	best := func(p int) float64 {
		bestY := 0.0
		for _, step := range fixedSteps {
			bestY = max(bestY, update(core.Options{Step: step, TrackOutcomes: true}, p))
		}
		return bestY
	}
	adaptive := func(p int) float64 { return update(adaptOpts(8), p) }
	return grid("Figure 5: Adapting step size (ArrayDynAppendDereg) [ops/us]", "update period", periods, FormatCycles,
		append(rows, row{"Best (adapt cost)", best}, row{"Adaptive", adaptive})...)
}

// Fig6 reproduces Figure 6: the fraction of slots collected at each step
// size by adaptive ArrayDynAppendDereg, per update period.
func Fig6(cfg Config, updaters int, periods []int) *HistTable {
	t := &HistTable{Title: "Figure 6: Step size distribution (ArrayDynAppendDereg, adaptive)"}
	for _, p := range periods {
		t.Xs = append(t.Xs, FormatCycles(p))
		r := CollectUpdate(cfg, Bind(SpecArrayDynAppendDereg(adaptOpts(8)), updaters+1), updaters, p)
		t.Hists = append(t.Hists, r.StepHist)
	}
	return t
}

// Fig7Specs is the algorithm set of Figure 7.
func Fig7Specs() []CollectorSpec {
	return []CollectorSpec{
		SpecArrayStatAppendDereg(paperCapacity, stepOpts(32)),
		SpecArrayDynAppendDereg(stepOpts(32)),
		SpecFastCollect(stepOpts(32)),
		SpecArrayDynSearchResize(stepOpts(32)),
		SpecArrayStatSearchNo(paperCapacity),
		SpecStaticBaseline(paperCapacity),
	}
}

// Fig7 reproduces Figure 7: Collect throughput under concurrent
// Register/Deregister churn, sweeping the deregister period with the
// register period fixed at 20k cycles.
func Fig7(cfg Config, churners int, periods []int) *Table {
	return grid("Figure 7: Collect-(De)Register [ops/us]", "deregister period", periods, FormatCycles,
		specRows(Fig7Specs(), func(spec CollectorSpec, p int) Result {
			return CollectDeregister(cfg, Bind(spec, churners+1), churners, Fig7RegisterPeriod, p)
		})...)
}

// Fig8Specs is the algorithm set of Figure 8.
func Fig8Specs() []CollectorSpec {
	return []CollectorSpec{
		SpecArrayStatAppendDereg(paperCapacity, stepOpts(32)),
		SpecArrayDynAppendDereg(stepOpts(32)),
		SpecFastCollect(stepOpts(32)),
		SpecArrayStatSearchNo(paperCapacity),
		SpecStaticBaseline(paperCapacity),
	}
}

// Fig8 reproduces Figure 8: Collect throughput over time while update
// threads alternate the registered-handle count between 16 and 64 every
// `phaseMs` milliseconds, for `totalMs` total, bucketed every `bucketMs`. The
// table has one column per bucket, labelled with the end time the first
// series to reach that bucket recorded.
func Fig8(cfg Config, updaters int, phaseMs, totalMs, bucketMs int) *Table {
	t := &Table{Title: "Figure 8: Collect throughput with varying registered slots [ops/us]", XLabel: "time [ms]"}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, spec := range Fig8Specs() {
		buckets := VaryingSlots(cfg, Bind(spec, updaters+1), updaters, 16, 64,
			ms(phaseMs), ms(totalMs), ms(bucketMs))
		s := Series{Label: spec.Label}
		for i, b := range buckets {
			if i == len(t.Xs) {
				t.Xs = append(t.Xs, fmt.Sprint(b.AtMs))
			}
			s.Ys = append(s.Ys, b.OpsPerUs)
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// UpdateLatencySpecs lists the algorithms of the §5.1 latency table.
func UpdateLatencySpecs() []CollectorSpec {
	return []CollectorSpec{
		SpecArrayStatSearchNo(paperCapacity),
		SpecArrayStatAppendDereg(paperCapacity, stepOpts(1)),
		SpecArrayDynSearchResize(stepOpts(1)),
		SpecArrayDynAppendDereg(stepOpts(1)),
		SpecFastCollect(stepOpts(1)),
		SpecHOHRC(stepOpts(1)),
		SpecStaticBaseline(paperCapacity),
		SpecDynamicBaseline(),
	}
}

// UpdateLatencyTable reproduces the §5.1 measurement: single-thread Update
// latency per algorithm. The paper's point is the ~215ns (transactional
// indirection) versus ~135ns (naked store) split.
func UpdateLatencyTable(cfg Config, iters int) *Table {
	t := &Table{Title: "Section 5.1: Update latency [ns/op]", XLabel: "algorithm", Xs: []string{"ns/op"}}
	for _, spec := range UpdateLatencySpecs() {
		ns := UpdateLatency(cfg, Bind(spec, 1), iters)
		t.Series = append(t.Series, Series{Label: spec.Label, Ys: []float64{ns}})
	}
	return t
}

// SpaceTable measures the space story (§1.1, §1.2): peak live heap bytes
// during a collect-dominated run per algorithm, and queue memory after
// growing to 10k entries and draining.
func SpaceTable(cfg Config) *Table {
	cfg = cfg.withDefaults()
	cfg.TrackSpace = true // peak-live columns need exact high-water marks
	t := &Table{Title: "Space: peak live heap during Figure 3 workload / queue residual after drain [bytes]",
		XLabel: "system", Xs: []string{"peak", "residual"}}
	for _, spec := range Fig3Specs() {
		r := CollectDominated(cfg, Bind(spec, 8), 8)
		t.Series = append(t.Series, Series{
			Label: spec.Label,
			Ys:    []float64{float64(r.Stats.MaxLiveWords * 8), float64(r.Stats.LiveWords * 8)},
		})
	}
	for _, spec := range QueueSpecs() {
		peak, quiescent := QueueSpace(cfg, spec, 10000)
		t.Series = append(t.Series, Series{
			Label: "Queue: " + spec.Label,
			Ys:    []float64{float64(peak), float64(quiescent)},
		})
	}
	return t
}

// QueueSpace grows a fresh queue to n entries, drains it, and reports the
// peak live bytes while full and the residual (quiescent) live bytes after
// draining and releasing the context — the §1.1 space comparison.
func QueueSpace(cfg Config, spec QueueSpec, n int) (peak, quiescent uint64) {
	cfg = cfg.withDefaults()
	h := htm.NewHeap(htm.Config{Words: cfg.HeapWords})
	q := spec.New(h)
	c := q.NewCtx(h.NewThread())
	for i := 0; i < n; i++ {
		q.Enqueue(c, uint64(i+1))
	}
	peak = h.Stats().MaxLiveWords * 8
	queue.DrainCount(q, c, queue.DrainLimit)
	queue.CloseCtx(q, c)
	return peak, h.Stats().LiveWords * 8
}

// QueueComparison summarizes the Figure 1 story at one thread count, with
// the columns the §1.1 discussion turns on for all four reclamation regimes:
// throughput, per-operation wall time and its overhead relative to the HTM
// queue, and the space story — peak live bytes while holding 10k entries and
// quiescent (post-drain) live bytes.
func QueueComparison(cfg Config, threads, prefill int) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: fmt.Sprintf(
			"Queue comparison at %d threads: throughput, per-op overhead, quiescent memory", threads),
		XLabel: "queue",
		Xs:     []string{"ops/us", "ns/op", "ovhd%", "peak B", "quiescent B"},
	}
	type row struct {
		label                        string
		opsUs, nsOp, peak, quiescent float64
	}
	var rows []row
	var htmNs float64
	for _, spec := range QueueSpecs() {
		r := QueueThroughput(cfg, spec.New, threads, prefill)
		opsUs := r.OpsPerUs()
		nsOp := 0.0
		if opsUs > 0 {
			// threads workers ran concurrently for Elapsed, so per-op wall
			// time on one thread is threads/throughput.
			nsOp = float64(threads) * 1000 / opsUs
		}
		if spec.Label == "HTM" {
			htmNs = nsOp
		}
		peak, quiescent := QueueSpace(cfg, spec, 10000)
		rows = append(rows, row{spec.Label, opsUs, nsOp, float64(peak), float64(quiescent)})
	}
	// The overhead column is relative to the HTM queue, found by label so
	// reordering QueueSpecs cannot silently shift the baseline.
	for _, r := range rows {
		ovhd := 0.0
		if htmNs > 0 {
			ovhd = (r.nsOp - htmNs) / htmNs * 100
		}
		t.Series = append(t.Series, Series{
			Label: r.label,
			Ys:    []float64{r.opsUs, r.nsOp, ovhd, r.peak, r.quiescent},
		})
	}
	return t
}

// Bind fixes a spec's thread count, yielding the constructor shape the
// workload functions take.
func Bind(spec CollectorSpec, threads int) func(h *htm.Heap) core.Collector {
	return func(h *htm.Heap) core.Collector { return spec.New(h, threads) }
}
