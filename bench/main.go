// Command ladder is the repository's benchmark: five workloads that climb the
// layers (htm → queue / collect → kv.Store → WAL → handler → loopback), all
// run inside this one process. See README.md beside this file.
//
//	ladder -workload http-read -seed 1 -seconds 10 -trace 0   one run, as BENCHMARK.json's driver calls it
//	ladder                                                    every workload, untraced then traced
//	ladder -repeat 10                                         ten untraced sets on seeds 1..10, spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is one run's parameters.
type runConfig struct {
	seed    uint64
	window  time.Duration
	trace   bool
	clients int           // 0 = by regime: 1 untraced (steady), maxClients traced (contended)
	setups  int           // set-ups per untraced run at least; setup_s is their median
	budget  time.Duration // set-ups go on until they have taken this long in all (at most maxSetups)
	out     string        // directory for temp WAL dirs and trace files
}

const (
	setupBudget = 500 * time.Millisecond
	maxSetups   = 100
)

// timeSetups sets the system up and returns the seconds each set-up took. An
// untraced run calls it twice, before its window and after it, so that a state
// of the host that lasts ten seconds does not own every set-up of the run;
// each call makes half of cfg.setups set-ups at least and goes on until half
// of cfg.budget of set-up time is spent (a set-up of a millisecond needs many
// repeats before it holds still, one of a third of a second few). untimed runs
// before each set-up and tears down the one before.
func timeSetups(cfg runConfig, untimed func(), setup func() error) (secs []float64, err error) {
	var spent time.Duration
	for i := 0; i < (cfg.setups+1)/2 || (spent < cfg.budget/2 && i < maxSetups/2); i++ {
		untimed()
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return secs, err
		}
		d := time.Since(t0)
		spent += d
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}

type metricSet map[string]float64

// runResult is what one run of one workload produced.
type runResult struct {
	workload          string
	attempted, failed uint64
	errs              []string // failed correctness or leak checks
	metrics           metricSet
	samples           map[string]int // sample counts behind the percentiles
	ladders           []ladder
}

func newRunResult(workload string) *runResult {
	return &runResult{workload: workload, metrics: metricSet{}, samples: map[string]int{}}
}

// check records a failed check; nil is no failure.
func (r *runResult) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err.Error())
	}
}

// absorb adds a window's attempts and failures to the run's.
func (r *runResult) absorb(w *windowResult) {
	r.attempted += w.attempted
	r.failed += w.failed
	r.errs = append(r.errs, w.errs...)
}

func (r *runResult) correct() bool { return len(r.errs) == 0 && r.failed == 0 }

// endToEnd fills in the end-to-end metrics, the same five on every
// workload: the window and kind that play the read role and the write role
// differ, the definitions do not.
func (r *runResult) endToEnd(setups []float64, read *windowResult, rk opKind, write *windowResult, wk opKind, liveWords uint64) {
	r.metrics["setup_s"] = median(setups)
	r.metrics["ops_per_s"] = read.opsPerSec()
	r.metrics["read_p50_us"] = read.p50us(rk)
	r.metrics["write_p50_us"] = write.p50us(wk)
	r.metrics["live_words_end"] = float64(liveWords)
	r.samples["read"], r.samples["write"] = read.samples(rk), write.samples(wk)
}

// spec mirrors BENCHMARK.json, which is the single list of metric names,
// units, directions and bounds: the program prints what that file declares.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) workloadNames() []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// runOne runs one workload once, under the watchdog, in the regime its client
// count selects.
func runOne(name string, cfg runConfig, maxWall time.Duration) (*runResult, error) {
	defer armWatchdog(maxWall)()
	if cfg.clients == 0 {
		cfg.clients = 1
		if cfg.trace {
			cfg.clients = maxClients
		}
	}
	defer enterRegime(cfg.clients)()
	for _, wl := range kvWorkloads {
		if wl.name == name {
			if cfg.trace {
				return runKVTraced(wl, cfg), nil
			}
			return runKVEndToEnd(wl, cfg), nil
		}
	}
	switch {
	case name == "queue-reclaim" && cfg.trace:
		return runQueueTraced(cfg), nil
	case name == "queue-reclaim":
		return runQueueEndToEnd(cfg), nil
	case name == "collect-churn" && cfg.trace:
		return runCollectTraced(cfg), nil
	case name == "collect-churn":
		return runCollectEndToEnd(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// enterRegime sets the process up for a run with the given number of clients
// and returns the function that undoes it. One client is the steady regime:
// one P, and every thread of the process on one CPU, so that nothing in the
// run depends on whether the host is giving its two virtual CPUs a core each
// at the moment — on this sandbox, half of the time it is not — or on which of
// them the kernel last woke a thread on. More clients is the contended regime: one P
// per client, threads wherever the kernel puts them.
func enterRegime(clients int) (leave func()) {
	procs := runtime.GOMAXPROCS(clients)
	pinned := ""
	if clients == 1 {
		cpu, err := pinToOneCPU()
		if err != nil {
			pinned = fmt.Sprintf(", not pinned (%v)", err)
		} else {
			pinned = fmt.Sprintf(", every thread pinned to cpu %d", cpu)
		}
	}
	fmt.Printf("# regime: %d client(s), GOMAXPROCS=%d%s\n", clients, clients, pinned)
	return func() {
		unpin()
		runtime.GOMAXPROCS(procs)
	}
}

// armWatchdog makes a hung run end the process instead: after d it dumps
// every goroutine, removes the temp directories and exits 3.
func armWatchdog(d time.Duration) (disarm func()) {
	t := time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "ladder: watchdog: run exceeded -max-wall %s; goroutines:\n", d)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		removeAllTempDirs()
		os.Exit(3)
	})
	return func() { t.Stop() }
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("ladder", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "generator seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (0 = BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = per-layer metrics from a traced run")
	repeat := fs.Int("repeat", 1, "untraced sets to run on consecutive seeds; prints each metric's spread against its bound")
	clients := fs.Int("clients", 0, "closed-loop clients: 1 = steady regime, 2 = contended; 0 = 1 untraced, 2 traced")
	setups := fs.Int("setups", 10, "set-ups per untraced run at least, half before the window and half after")
	maxWall := fs.Duration("max-wall", 150*time.Second, "watchdog: dump goroutines and exit 3 if one run takes longer")
	out := fs.String("out", "bench/out", "directory for temp WAL directories and trace files")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's declaration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *clients < 0 || *clients > maxClients {
		fmt.Fprintf(os.Stderr, "ladder: -clients must be 0..%d\n", maxClients)
		return 2
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace != 0, clients: *clients, setups: max(*setups, 1), budget: setupBudget, out: *out}
	fmt.Printf("# ladder seed=%d seconds=%g trace=%d go=%s nproc=%d commit=%s\n",
		cfg.seed, *seconds, *trace, runtime.Version(), runtime.NumCPU(), commit())
	one, two := hostSpin(1), hostSpin(maxClients)
	fmt.Printf("# host: a fixed register-only spin takes %.2f ms on one thread and %.2f ms on each of %d at once (ratio %.2f; 1.0 = two threads have a core each, 2.0 = they share one)\n",
		one, two, maxClients, two/one)

	switch {
	case *repeat > 1:
		names := sp.workloadNames()
		if *workload != "all" {
			names = []string{*workload}
		}
		return runRepeat(sp, names, cfg, *repeat, *maxWall)
	case *workload == "all":
		return runAll(sp, cfg, *maxWall)
	}
	res, err := runOne(*workload, cfg, *maxWall)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		return 2
	}
	return report(sp, res, cfg.trace, true)
}

var spinSink atomic.Uint64

// hostSpin times a fixed loop that touches no memory on n goroutines at once,
// in milliseconds. It is printed, not used: on the shared sandbox the two
// vCPUs sometimes get a core each and sometimes share one, every time-based
// metric moves with that, and a reader comparing two runs needs to see which
// state each was in.
func hostSpin(n int) float64 {
	var wg sync.WaitGroup
	t0 := now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(88172645463325252)
			for i := 0; i < 1<<24; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			spinSink.Store(x)
		}()
	}
	wg.Wait()
	return float64(now()-t0) / 1e6
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// report prints one run: every metric of the mode by name with its unit and
// direction, the ladders of a traced run, any failed check, and — for the
// driver — the result object as the last line. It returns the exit code.
func report(sp *spec, res *runResult, traced, resultLine bool) int {
	declared := sp.EndToEnd
	if traced {
		declared = sp.PerLayer
	}
	metrics := map[string]map[string]any{}
	for _, d := range declared {
		v, ok := res.metrics[d.Name]
		if !ok && !traced {
			res.check(fmt.Errorf("end-to-end metric %s was not measured", d.Name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.check(fmt.Errorf("metric %s is %v", d.Name, v))
			v = 0
		}
		note := ""
		if !ok {
			note = "  (not applicable to this workload)"
		} else if n, has := res.samples[strings.SplitN(d.Name, "_", 2)[0]]; has {
			note = fmt.Sprintf("  n=%d", n)
		}
		fmt.Printf("metric %-20s %-32s %14.6g %-6s %s is better%s\n", res.workload, d.Name, v, d.Unit, d.Better, note)
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	for name := range res.metrics {
		if !declaredIn(sp, name) {
			res.check(fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name))
		}
	}
	for _, l := range res.ladders {
		l.print()
	}
	for _, e := range res.errs {
		fmt.Printf("FAILED CHECK %s: %s\n", res.workload, e)
	}
	fmt.Printf("checks %s: attempted=%d failed=%d failed_ratio=%g correct=%v\n",
		res.workload, res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)), res.correct())
	if resultLine {
		line, err := json.Marshal(struct {
			Correct   bool                      `json:"correct"`
			Attempted uint64                    `json:"attempted"`
			Failed    uint64                    `json:"failed"`
			Metrics   map[string]map[string]any `json:"metrics"`
		}{res.correct(), max(res.attempted, 1), res.failed, metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ladder:", err)
			return 2
		}
		fmt.Println(string(line))
	}
	if !res.correct() {
		return 1
	}
	return 0
}

func declaredIn(sp *spec, name string) bool {
	for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// runAll is the one command for a person: every workload untraced, then
// traced, with the where-the-time-goes ladders.
func runAll(sp *spec, cfg runConfig, maxWall time.Duration) int {
	code := 0
	for _, name := range sp.workloadNames() {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.trace = traced
			res, err := runOne(name, c, maxWall)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ladder:", err)
				return 2
			}
			code = max(code, report(sp, res, traced, false))
		}
	}
	return code
}

// runRepeat runs n untraced sets, set i on seed+i, and prints for each
// end-to-end metric on each workload its median, min, max and two spreads:
// (max-min)/median, and the distance between the quartiles over the median —
// the one BENCHMARK.json's driver compares with the bound. It exits 1 when a
// quartile spread other than setup_s's exceeds its bound, or a check failed.
func runRepeat(sp *spec, names []string, cfg runConfig, n int, maxWall time.Duration) int {
	cfg.trace = false
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	code := 0
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + uint64(i)
		for _, name := range names {
			res, err := runOne(name, c, maxWall)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ladder:", err)
				return 2
			}
			fmt.Printf("## set %d/%d seed=%d\n", i+1, n, c.seed)
			code = max(code, report(sp, res, false, false))
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, d := range sp.EndToEnd {
				values[name][d.Name] = append(values[name][d.Name], res.metrics[d.Name])
			}
		}
	}
	fmt.Printf("\n%-20s %-16s %12s %12s %12s %9s %9s %7s\n", "workload", "metric", "median", "min", "max", "range/med", "iqr/med", "bound")
	for _, name := range names {
		for _, d := range sp.EndToEnd {
			v := values[name][d.Name]
			med, lo, hi := median(v), slices.Min(v), slices.Max(v)
			iqr := quartileSpread(v)
			verdict := ""
			if iqr > d.Bound && d.Name != "setup_s" {
				verdict, code = "  EXCEEDS BOUND", max(code, 1)
			}
			fmt.Printf("%-20s %-16s %12.6g %12.6g %12.6g %8.2f%% %8.2f%% %6.0f%%%s\n",
				name, d.Name, med, lo, hi, (hi-lo)/med*100, iqr*100, d.Bound*100, verdict)
		}
	}
	return code
}

// quartileSpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(v, n=4) (its default, exclusive method).
func quartileSpread(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 { // i-th of the 4-quantile cut points
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(v)
}

// --- where the time goes -----------------------------------------------------

// ladder is one op type's descent through the layers: the top is what the
// client sees, each row a layer's self time or a lower rung's whole time.
type ladder struct {
	workload, op string
	top          float64 // µs, the client-visible p50
	samples      int
	rows         []ladderRow
}

type ladderRow struct {
	name   string
	us     float64
	summed bool // part of the sum compared with top; false = a reference rung
}

func (l *ladder) add(name string, us float64, summed bool) {
	l.rows = append(l.rows, ladderRow{name, us, summed})
}

func (l ladder) print() {
	fmt.Printf("where the time goes: %s %s, p50 %.3f us over %d samples\n", l.workload, l.op, l.top, l.samples)
	var sum float64
	for _, r := range l.rows {
		mark := " "
		if r.summed {
			mark, sum = "+", sum+r.us
		}
		fmt.Printf("  %s %-30s %10.3f us %6.1f%%\n", mark, r.name, r.us, r.us/l.top*100)
	}
	fmt.Printf("    the + rows sum to %.3f us: %+.1f%% from the p50 (medians of parts need not add up)\n", sum, (sum-l.top)/l.top*100)
}
