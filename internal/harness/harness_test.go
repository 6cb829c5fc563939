package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cycles"
)

// quickCfg keeps harness tests fast: tiny points, fixed spin calibration.
func quickCfg() Config {
	return Config{
		PointDuration: 30 * time.Millisecond,
		HeapWords:     1 << 18,
		Clock:         cycles.NewFixed(1),
		Threads:       4,
	}
}

func TestCollectDominatedRuns(t *testing.T) {
	for _, spec := range Fig3Specs() {
		spec := spec
		t.Run(spec.Label, func(t *testing.T) {
			r := CollectDominated(quickCfg(), Bind(spec, 3), 3)
			if r.Ops == 0 {
				t.Error("no operations completed")
			}
			if r.OpsPerUs() <= 0 {
				t.Errorf("throughput = %f", r.OpsPerUs())
			}
		})
	}
}

func TestCollectUpdateRuns(t *testing.T) {
	for _, spec := range Fig4Specs() {
		spec := spec
		t.Run(spec.Label, func(t *testing.T) {
			r := CollectUpdate(quickCfg(), Bind(spec, 4), 3, 20000)
			if r.Ops == 0 {
				t.Error("no collects completed")
			}
		})
	}
}

// An adaptive run records a step histogram, and — §3.4, on Figure 6's own
// data — no step it ever committed staged more words than the heap's store
// buffer holds (a larger step can only overflow).
func TestCollectUpdateRecordsHistogramWhenAdaptive(t *testing.T) {
	cfg := quickCfg()
	limit := cfg.newHeap().Config().StoreBufferSize
	fig6 := Fig6(cfg, 2, []int{50000, 400})
	for i, hist := range fig6.Hists {
		if len(hist) == 0 {
			t.Errorf("period %s: adaptive run produced no step histogram", fig6.Xs[i])
		}
		for step := range hist {
			if step < 1 || step > limit {
				t.Errorf("period %s: committed step %d outside [1, StoreBufferSize=%d]", fig6.Xs[i], step, limit)
			}
		}
	}
}

func TestCollectDeregisterRuns(t *testing.T) {
	for _, spec := range Fig7Specs() {
		spec := spec
		t.Run(spec.Label, func(t *testing.T) {
			r := CollectDeregister(quickCfg(), Bind(spec, 4), 3, 20000, 50000)
			if r.Ops == 0 {
				t.Error("no collects completed")
			}
		})
	}
}

func TestVaryingSlotsProducesBuckets(t *testing.T) {
	cfg := quickCfg()
	buckets := VaryingSlots(cfg, Bind(SpecArrayDynAppendDereg(stepOpts(8)), 4), 3,
		4, 16, 40*time.Millisecond, 120*time.Millisecond, 20*time.Millisecond)
	if len(buckets) < 3 {
		t.Fatalf("got %d buckets", len(buckets))
	}
	for _, b := range buckets {
		if b.OpsPerUs < 0 {
			t.Errorf("negative throughput at %dms", b.AtMs)
		}
	}
}

func TestUpdateLatencyPositive(t *testing.T) {
	for _, spec := range UpdateLatencySpecs() {
		spec := spec
		t.Run(spec.Label, func(t *testing.T) {
			ns := UpdateLatency(quickCfg(), Bind(spec, 1), 5000)
			if ns <= 0 {
				t.Errorf("latency = %f", ns)
			}
		})
	}
}

func TestQueueThroughputRuns(t *testing.T) {
	for _, spec := range QueueSpecs() {
		spec := spec
		t.Run(spec.Label, func(t *testing.T) {
			r := QueueThroughput(quickCfg(), spec.New, 3, 64)
			if r.Ops == 0 {
				t.Error("no operations completed")
			}
		})
	}
}

func TestQueueComparisonShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every queue")
	}
	tab := QueueComparison(quickCfg(), 3, 64)
	if len(tab.Series) != len(QueueSpecs()) {
		t.Fatalf("series = %d, want %d", len(tab.Series), len(QueueSpecs()))
	}
	if len(tab.Xs) != 5 {
		t.Fatalf("columns = %d, want 5 (ops/us, ns/op, ovhd%%, peak, quiescent)", len(tab.Xs))
	}
	var pool, ebr float64
	for _, s := range tab.Series {
		if len(s.Ys) != len(tab.Xs) {
			t.Fatalf("series %q has %d values", s.Label, len(s.Ys))
		}
		if s.Ys[0] <= 0 {
			t.Errorf("series %q throughput = %f", s.Label, s.Ys[0])
		}
		switch s.Label {
		case "Michael-Scott":
			pool = s.Ys[4]
		case "Michael-Scott EBR":
			ebr = s.Ys[4]
		}
	}
	// Guard against label drift making the assertion below vacuous.
	if pool <= 0 || ebr <= 0 {
		t.Fatalf("missing series: pool quiescent = %f, EBR quiescent = %f", pool, ebr)
	}
	// The reclaiming variant must hold far less quiescent memory than the
	// pool variant after draining 10k entries.
	if ebr*10 > pool {
		t.Errorf("EBR quiescent bytes %f not far below pool quiescent bytes %f", ebr, pool)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		XLabel: "x",
		Xs:     []string{"1", "2"},
		Series: []Series{{Label: "a", Ys: []float64{1.5, 2.5}}, {Label: "b", Ys: []float64{0.5}}},
	}
	out := tab.Render()
	for _, want := range []string{"demo", "1.500", "2.500", "0.500", "-", "a", "b"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestHistTableRender(t *testing.T) {
	ht := &HistTable{
		Title: "hist",
		Xs:    []string{"8k", "4k"},
		Hists: []map[int]uint64{{8: 75, 16: 25}, {}},
	}
	out := ht.Render()
	if !strings.Contains(out, "75.0%") {
		t.Errorf("missing percentage:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("empty histogram should render '-':\n%s", out)
	}
}

func TestFormatCycles(t *testing.T) {
	tests := map[int]string{
		1000000: "1M",
		500000:  "500k",
		20000:   "20k",
		800:     "800",
		400:     "400",
	}
	for in, want := range tests {
		if got := FormatCycles(in); got != want {
			t.Errorf("FormatCycles(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestResultOpsPerUsZeroElapsed(t *testing.T) {
	if (Result{Ops: 5}).OpsPerUs() != 0 {
		t.Error("zero elapsed should yield 0 throughput")
	}
}

func TestSpaceTableShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every algorithm")
	}
	cfg := quickCfg()
	tab := SpaceTable(cfg)
	if len(tab.Series) != len(Fig3Specs())+len(QueueSpecs()) {
		t.Fatalf("series = %d", len(tab.Series))
	}
	var htmQueueResidual, msQueueResidual float64
	for _, s := range tab.Series {
		if len(s.Ys) != 2 {
			t.Fatalf("series %q has %d columns", s.Label, len(s.Ys))
		}
		switch s.Label {
		case "Queue: HTM":
			htmQueueResidual = s.Ys[1]
		case "Queue: Michael-Scott":
			msQueueResidual = s.Ys[1]
		}
	}
	// The paper's space claim: the pool-based MS queue retains its
	// historical maximum after draining; the HTM queue does not.
	if htmQueueResidual*10 > msQueueResidual {
		t.Errorf("HTM queue residual %f not far below MS pool residual %f",
			htmQueueResidual, msQueueResidual)
	}

	// Figure 1 / §1.1, exactly: QueueSpace is single-threaded, so its byte
	// counts are deterministic. Grow each queue to a small and a large n and
	// drain it; what stays allocated separates "historical max, forever"
	// from reclamation.
	const small, large = 100, 10000
	var nodeBytes uint64
	for _, spec := range QueueSpecs() {
		peakS, quietS := QueueSpace(cfg, spec, small)
		peakL, quietL := QueueSpace(cfg, spec, large)
		if spec.Label == "HTM" {
			nodeBytes = (peakL - peakS) / (large - small)
		}
		if nodeBytes == 0 {
			t.Fatalf("%s: node size unknown (HTM must be the first spec and grow with n)", spec.Label)
		}
		switch spec.Label {
		case "HTM":
			// Immediate reclamation: only the dummy node remains, at any n.
			if quietS != quietL || quietL > nodeBytes {
				t.Errorf("HTM quiescent bytes %d at n=%d, %d at n=%d; want equal and at most one %d-byte node",
					quietS, small, quietL, large, nodeBytes)
			}
		case "Michael-Scott":
			// The pool never returns memory: every node ever needed stays.
			if quietS < small*nodeBytes || quietL < large*nodeBytes || quietL <= quietS {
				t.Errorf("pooled MS quiescent bytes %d at n=%d, %d at n=%d; want at least n %d-byte nodes and growth",
					quietS, small, quietL, large, nodeBytes)
			}
		default:
			// ROP and EBR reclaim: a bound that does not depend on n —
			// fewer than the small n's worth of nodes, at both n.
			if bound := small * nodeBytes; quietS >= bound || quietL >= bound {
				t.Errorf("%s quiescent bytes %d at n=%d, %d at n=%d; want both below %d",
					spec.Label, quietS, small, quietL, large, bound)
			}
		}
	}
}
