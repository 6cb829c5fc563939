// Command fallbackbench runs the contended-overflow benchmark: every
// operation overflows the store buffer and completes on the TLE fallback
// path, sweeping thread counts for the fine-grained per-word lock-set
// fallback against the retired global-lock baseline (paper §6), on disjoint
// and on fully shared footprints. A second table measures what persistent
// fallback traffic costs concurrently running hardware transactions — under
// the global lock every hardware begin waits out every fallback critical
// section; under the fine-grained fallback it never waits. Two further
// tables cover the sharded version clock (disjoint commits across clock
// shard counts) and the striped-metadata knob (neighbor-word throughput and
// aliasing aborts across StripeShift values). The final table is the
// adaptive-contention figure: the phase-shift workload (footprints alternate
// between disjoint and fully shared mid-run) under each pinned fallback mode
// and the online Tuner, which should match the best pinned choice in each
// phase.
//
// With -json the tables are written as a machine-readable harness.Report;
// with -append they are merged into an existing report file instead (so CI
// can extend the queuebench report into one BENCH_CI.json that matches the
// committed snapshot's coverage).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cycles"
	"repro/internal/harness"
)

func main() {
	os.Exit(run())
}

func run() int {
	dur := flag.Duration("duration", 200*time.Millisecond, "measured duration per data point")
	threads := flag.Int("threads", 16, "maximum simulated thread count")
	quick := flag.Bool("quick", false, "reduced sweep")
	jsonOut := flag.String("json", "", "write (or with -append, merge) results as a machine-readable Report to this file")
	appendTo := flag.Bool("append", false, "merge the tables into an existing -json report instead of overwriting it")
	label := flag.String("label", "fallbackbench", "label recorded in the -json report")
	flag.Parse()

	cfg := harness.Config{
		PointDuration: *dur,
		Clock:         cycles.Calibrate(cycles.DefaultGHz),
		Threads:       *threads,
	}
	// -quick shortens the per-point duration but keeps the same thread
	// sweep, so quick CI runs and committed snapshots cover identical series
	// and the benchtrend -fail-shrunk gate can compare them.
	counts := []int{1, 2, 4, 8, 16}
	if *quick && cfg.PointDuration > 100*time.Millisecond {
		cfg.PointDuration = 100 * time.Millisecond
	}
	var tc []int
	for _, n := range counts {
		if n <= *threads {
			tc = append(tc, n)
		}
	}

	scaling := harness.FallbackScaling(cfg, tc)
	fmt.Println(scaling.Render())
	interference := harness.FallbackInterferenceTable(cfg, tc)
	fmt.Println(interference.Render())
	// The spins sweep runs at a fixed thread count (capped by -threads) so
	// quick and full runs cover the same axis.
	spinsThreads := 8
	if spinsThreads > *threads {
		spinsThreads = *threads
	}
	spinsSweep := harness.FallbackSpinsSweep(cfg, spinsThreads, []int{0, 32, 128, 512})
	fmt.Println(spinsSweep.Render())
	// Sharded-clock and stripe-knob figures (PR 9): disjoint commits across
	// clock shard counts, and the stripe aliasing tradeoff at a fixed thread
	// count. shards=1 / shift=0 are the pre-sharding baselines.
	clockScaling := harness.ClockScaling(cfg, tc, []int{1, 4, 16})
	fmt.Println(clockScaling.Render())
	stripeTable := harness.StripeConflictTable(cfg, spinsThreads, []int{0, 1, 2, 4})
	fmt.Println(stripeTable.Render())
	// Adaptive-contention figure: phase-shift throughput at the same
	// fixed thread count as the spins sweep.
	adaptiveTable := harness.AdaptiveScaling(cfg, spinsThreads)
	fmt.Println(adaptiveTable.Render())

	if *jsonOut != "" {
		rep := harness.NewReport(*label)
		if *appendTo {
			if existing, err := harness.ReadJSONFile(*jsonOut); err == nil {
				rep = existing
				rep.Label = *label // the merged report is this run's record
			} else if !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "fallbackbench: read %s: %v\n", *jsonOut, err)
				return 1
			}
		}
		rep.SetConfig("fallback_duration", cfg.PointDuration.String())
		rep.SetConfig("fallback_threads", fmt.Sprint(*threads))
		rep.AddTable(scaling)
		rep.AddTable(interference)
		rep.AddTable(spinsSweep)
		rep.AddTable(clockScaling)
		rep.AddTable(stripeTable)
		rep.AddTable(adaptiveTable)
		if err := rep.WriteJSONFile(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "fallbackbench: write %s: %v\n", *jsonOut, err)
			return 1
		}
		fmt.Printf("# wrote %s\n", *jsonOut)
	}
	return 0
}
