// Command figures regenerates the paper's evaluation and prints the series
// the figures plot, one rendered table per experiment.
//
// Usage:
//
//	figures <queue|collect|fallback|space|all> [-exp name] [-duration 200ms] [-threads 16] [-quick]
//
// Subcommands:
//
//	queue     Figure 1 (queue throughput across thread counts) and the §1.1
//	          comparison: per-op overhead and peak/quiescent memory for the
//	          HTM queue and Michael-Scott with a pool, ROP and EBR.
//	collect   Dynamic Collect, §5: the §5.1 update latency, Figures 3-8 and
//	          the space table.
//	fallback  TLE fallback, §6: fine-grained lock-set versus global lock under
//	          contended overflow, and hardware throughput beside fallback
//	          traffic.
//	space     the space table alone.
//	all       every paper figure in the order the paper presents them.
//
// -exp narrows a subcommand to one of its experiments (-help lists the names).
// Shapes — orderings, crossovers, space asymptotics — are the reproduction
// target, not absolute ops/µs; speed regressions are judged by bench/.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cycles"
	"repro/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// sweep is every axis and size the experiments share, chosen once from the
// flags.
type sweep struct {
	cfg harness.Config
	// threads is the thread-count axis, capped at -threads.
	threads []int
	// fixed is the thread count of the single-point tables.
	fixed int
	// updaters is the background thread count beside the one collecting
	// thread: the largest axis point less one.
	updaters int
	// periods4, periods6 and periods7 are the cycle axes of Figures 4/5, 6
	// and 7; fig8 holds the phase, total and bucket lengths in ms of the
	// Figure 8 time series.
	periods4, periods6, periods7 []int
	fig8                         [3]int
}

// selectSweep maps the flags to a sweep. -quick thins the axes and caps the
// per-point duration at 100ms; it never raises a shorter -duration. Figure 8
// buckets at the point duration, capped at 100ms, flips its slot count every
// 5 buckets and runs 30 buckets (12 under -quick).
func selectSweep(quick bool, maxThreads int, dur time.Duration) sweep {
	s := sweep{
		cfg:      harness.Config{PointDuration: dur, Threads: maxThreads},
		periods4: harness.Fig4Periods,
		periods6: harness.Fig6Periods,
		periods7: harness.Fig7Periods,
	}
	counts, fig8Buckets := harness.DefaultThreadCounts, 30
	if quick {
		counts, fig8Buckets = []int{1, 2, 4, 8, 16}, 12
		s.periods4 = []int{1000000, 50000, 8000, 2000, 400}
		s.periods6 = []int{8000, 2000, 400}
		s.periods7 = []int{1000000, 50000, 8000, 1000}
		s.cfg.PointDuration = min(dur, 100*time.Millisecond)
	}
	bucket := max(1, int(min(s.cfg.PointDuration, 100*time.Millisecond)/time.Millisecond))
	s.fig8 = [3]int{5 * bucket, fig8Buckets * bucket, bucket}
	for _, n := range counts {
		if n <= maxThreads {
			s.threads = append(s.threads, n)
		}
	}
	s.fixed = min(8, maxThreads)
	s.updaters = max(1, s.threads[len(s.threads)-1]-1)
	return s
}

// renderer is a figure in printable form (harness.Table, harness.HistTable).
type renderer interface{ Render() string }

// subcommands in usage order.
var subcommands = []string{"queue", "collect", "fallback", "space", "all"}

// experiment is one figure: its -exp name, the subcommands that run it, and
// how to measure it.
type experiment struct {
	name string
	subs string
	run  func(s sweep) renderer
}

// experiments lists every figure once; each subcommand runs its members in
// this order, which within `all` is the paper's.
var experiments = []experiment{
	{"fig1", "queue all", func(s sweep) renderer { return harness.Fig1(s.cfg, s.threads) }},
	{"comparison", "queue", func(s sweep) renderer { return harness.QueueComparison(s.cfg, s.fixed, 256) }},
	{"latency", "collect all", func(s sweep) renderer { return harness.UpdateLatencyTable(s.cfg, 200000) }},
	{"fig3", "collect all", func(s sweep) renderer { return harness.Fig3(s.cfg, s.threads) }},
	{"fig4", "collect all", func(s sweep) renderer { return harness.Fig4(s.cfg, s.updaters, s.periods4) }},
	{"fig5", "collect all", func(s sweep) renderer { return harness.Fig5(s.cfg, s.updaters, s.periods4) }},
	{"fig6", "collect all", func(s sweep) renderer { return harness.Fig6(s.cfg, s.updaters, s.periods6) }},
	{"fig7", "collect all", func(s sweep) renderer { return harness.Fig7(s.cfg, s.updaters, s.periods7) }},
	{"fig8", "collect all", func(s sweep) renderer { return harness.Fig8(s.cfg, s.updaters, s.fig8[0], s.fig8[1], s.fig8[2]) }},
	{"space", "collect space all", func(s sweep) renderer { return harness.SpaceTable(s.cfg) }},
	{"scaling", "fallback", func(s sweep) renderer { return harness.FallbackScaling(s.cfg, s.threads) }},
	{"interference", "fallback", func(s sweep) renderer { return harness.FallbackInterferenceTable(s.cfg, s.threads) }},
}

// selected returns the experiments of subcommand sub named exp ("all" for
// every one), in run order.
func selected(sub, exp string) []experiment {
	var out []experiment
	for _, e := range experiments {
		if slices.Contains(strings.Fields(e.subs), sub) && (exp == "all" || exp == e.name) {
			out = append(out, e)
		}
	}
	return out
}

// names renders an experiment list for usage and error messages.
func names(es []experiment) string {
	var ns []string
	for _, e := range es {
		ns = append(ns, e.name)
	}
	return strings.Join(ns, "|")
}

func run(args []string) int {
	exp := flag.String("exp", "all", "run only this experiment of the subcommand")
	dur := flag.Duration("duration", 200*time.Millisecond, "measured duration per data point")
	threads := flag.Int("threads", 16, "maximum simulated thread count")
	quick := flag.Bool("quick", false, "reduced sweeps; caps -duration at 100ms")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "usage: figures <%s> [flags]\n", strings.Join(subcommands, "|"))
		for _, sub := range subcommands {
			fmt.Fprintf(w, "  %-9s -exp %s\n", sub, names(selected(sub, "all")))
		}
		flag.PrintDefaults()
	}

	var sub string
	flags := args
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, flags = args[0], args[1:]
	}
	flag.CommandLine.Parse(flags) // ExitOnError: -help exits 0, a bad flag 2
	if !slices.Contains(subcommands, sub) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "figures: want one subcommand, then flags; got %q\n", args)
		flag.Usage()
		return 2
	}
	todo := selected(sub, *exp)
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "figures %s: unknown experiment %q (have %s)\n", sub, *exp, names(selected(sub, "all")))
		return 2
	}
	if *threads < 1 {
		fmt.Fprintln(os.Stderr, "figures: -threads must be at least 1")
		return 2
	}

	s := selectSweep(*quick, *threads, *dur)
	s.cfg.Clock = cycles.Calibrate(cycles.DefaultGHz)
	for _, e := range todo {
		fmt.Println(e.run(s).Render())
	}
	return 0
}
