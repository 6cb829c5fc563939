package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/htm"
)

// The phase-shift workload: the contended-overflow experiment (fallback.go)
// with a footprint that alternates mid-run. Disjoint phases are the regime
// the fine-grained fallback wins (footprints share nothing, the global lock
// serializes for no reason); shared phases are the regime the global lock
// wins (N fallbacks fighting over one lock-set lose to simply serializing).
// No static configuration is right for both — this is the experiment the
// adaptive Tuner exists for: it should match the best static choice in each
// phase, minus only the switching lag.

// adaptivePhases is how many alternating phases one measurement runs
// (disjoint, shared, disjoint, shared — starting disjoint).
const adaptivePhases = 4

// AdaptiveMode selects the substrate configuration of a phase-shift run.
type AdaptiveMode int

const (
	// AdaptiveFine pins the fine-grained fallback: no Tuner is attached, so
	// the mode never leaves its initial setting.
	AdaptiveFine AdaptiveMode = iota
	// AdaptiveGlobal pins the global-lock fallback the same way.
	AdaptiveGlobal
	// AdaptiveTuned runs the htm.Tuner with epochs much shorter than a
	// phase, switching modes from live abort feedback.
	AdaptiveTuned
)

func (m AdaptiveMode) String() string {
	switch m {
	case AdaptiveGlobal:
		return "global"
	case AdaptiveTuned:
		return "adaptive"
	default:
		return "fine"
	}
}

// PhaseResult is one phase-shift measurement, with ops split by phase type.
type PhaseResult struct {
	DisjointOps, SharedOps   uint64
	DisjointTime, SharedTime time.Duration
	Stats                    htm.Stats
}

func perUs(ops uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / float64(d.Microseconds())
}

// DisjointOpsPerUs, SharedOpsPerUs and OverallOpsPerUs return throughput for
// the disjoint phases, the shared phases, and the whole run.
func (r PhaseResult) DisjointOpsPerUs() float64 { return perUs(r.DisjointOps, r.DisjointTime) }
func (r PhaseResult) SharedOpsPerUs() float64   { return perUs(r.SharedOps, r.SharedTime) }
func (r PhaseResult) OverallOpsPerUs() float64 {
	return perUs(r.DisjointOps+r.SharedOps, r.DisjointTime+r.SharedTime)
}

// AdaptivePhaseShift runs the phase-shift overflow workload: `threads`
// workers run store-buffer-overflowing transactions whose footprints are
// private in even phases and one shared block in odd phases. In shared
// phases each worker traverses the block in a worker-specific rotation, so
// lock acquisitions collide both in order (convoys -> FallbackWaits) and out
// of order (release-and-retry -> FallbackRetries) — the evidence mix the
// Tuner's storm signal reads.
func AdaptivePhaseShift(cfg Config, threads int, mode AdaptiveMode) PhaseResult {
	cfg = cfg.withDefaults()
	h := cfg.heap(fallbackConfig(mode == AdaptiveGlobal))
	phaseLen := cfg.PointDuration / adaptivePhases
	if phaseLen < 20*time.Millisecond {
		phaseLen = 20 * time.Millisecond // keep several tuner epochs per phase
	}
	if mode == AdaptiveTuned {
		tu := h.StartTuner(htm.TunerConfig{Interval: phaseLen / 10})
		defer tu.Stop()
	}

	setup := h.NewThread()
	shared := setup.Alloc(fallbackWrites)

	// phase holds the current phase index; -1 stops the workers. Workers read
	// it once per operation, so a flip takes effect within one op.
	var phase atomic.Int64
	var disjointOps, sharedOps atomic.Uint64

	b := newBarrier(threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := h.NewThread()
			disjointOp := overflowOp(th, th.Alloc(fallbackWrites))
			b.arrive()
			var dOps, sOps uint64
			for {
				p := phase.Load()
				if p < 0 {
					break
				}
				if inShared := p&1 == 1; inShared {
					th.Atomic(func(tx *htm.Txn) {
						for k := 0; k < fallbackWrites; k++ {
							a := shared + htm.Addr((k+id)%fallbackWrites)
							tx.Store(a, tx.Load(a)+1)
						}
					})
					sOps++
				} else {
					disjointOp()
					dOps++
				}
			}
			disjointOps.Add(dOps)
			sharedOps.Add(sOps)
		}(w)
	}
	b.release()
	var disjointTime, sharedTime time.Duration
	for i := 0; i < adaptivePhases; i++ {
		phaseStart := time.Now()
		time.Sleep(phaseLen)
		if i&1 == 1 {
			sharedTime += time.Since(phaseStart)
		} else {
			disjointTime += time.Since(phaseStart)
		}
		if i == adaptivePhases-1 {
			phase.Store(-1)
		} else {
			phase.Store(int64(i + 1))
		}
	}
	wg.Wait()
	return PhaseResult{
		DisjointOps:  disjointOps.Load(),
		SharedOps:    sharedOps.Load(),
		DisjointTime: disjointTime,
		SharedTime:   sharedTime,
		Stats:        h.Stats(),
	}
}

// AdaptiveScaling renders the adaptive-contention figure: phase-split
// throughput of the phase-shift workload under the two static baselines and
// the Tuner. The adaptive column should track the fine-grained baseline in
// the disjoint column and the global-lock baseline in the shared column —
// the best static configuration of each phase, from one run.
func AdaptiveScaling(cfg Config, threads int) *Table {
	t := &Table{
		Title:  "Adaptive contention management: phase-shift overflow [ops/us]",
		XLabel: "phase",
		Xs:     []string{"disjoint", "shared", "overall"},
	}
	for _, mode := range []AdaptiveMode{AdaptiveFine, AdaptiveGlobal, AdaptiveTuned} {
		r := AdaptivePhaseShift(cfg, threads, mode)
		t.Series = append(t.Series, Series{
			Label: mode.String(),
			Ys:    []float64{r.DisjointOpsPerUs(), r.SharedOpsPerUs(), r.OverallOpsPerUs()},
		})
	}
	return t
}
