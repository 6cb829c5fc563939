package main

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/harness"
)

// TestSelectSweep pins how -quick, -threads and -duration pick the shared
// sweep. The four binaries this command replaced each had their own copy of
// this logic and disagreed: two of them replaced an explicit -duration with
// 100ms under -quick (so `-quick -duration 10ms` ran ten times longer than
// asked), and one ignored -threads.
func TestSelectSweep(t *testing.T) {
	const ms = time.Millisecond
	quickCounts := []int{1, 2, 4, 8, 16}
	for _, c := range []struct {
		name       string
		quick      bool
		maxThreads int
		dur        time.Duration

		wantDur      time.Duration
		wantThreads  []int
		wantFixed    int
		wantUpdaters int
		// wantFig8 is Figure 8's phase, total and bucket ms.
		wantFig8 [3]int
	}{
		{"quick keeps a shorter duration", true, 16, 10 * ms, 10 * ms, quickCounts, 8, 15, [3]int{50, 120, 10}},
		{"quick caps a longer duration", true, 16, 200 * ms, 100 * ms, quickCounts, 8, 15, [3]int{500, 1200, 100}},
		{"quick at the cap", true, 16, 100 * ms, 100 * ms, quickCounts, 8, 15, [3]int{500, 1200, 100}},
		{"full sweep honours duration", false, 16, 350 * ms, 350 * ms, harness.DefaultThreadCounts, 8, 15, [3]int{500, 3000, 100}},
		{"full sweep at the default duration", false, 16, 200 * ms, 200 * ms, harness.DefaultThreadCounts, 8, 15, [3]int{500, 3000, 100}},
		{"full sweep shortens Figure 8", false, 16, 40 * ms, 40 * ms, harness.DefaultThreadCounts, 8, 15, [3]int{200, 1200, 40}},
		{"threads caps every axis", true, 4, 10 * ms, 10 * ms, []int{1, 2, 4}, 4, 3, [3]int{50, 120, 10}},
		{"threads between axis points", false, 7, 200 * ms, 200 * ms, []int{1, 2, 4, 6}, 7, 5, [3]int{500, 3000, 100}},
		{"one thread still has an updater", true, 1, 10 * ms, 10 * ms, []int{1}, 1, 1, [3]int{50, 120, 10}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := selectSweep(c.quick, c.maxThreads, c.dur)
			if s.cfg.PointDuration != c.wantDur {
				t.Errorf("PointDuration = %v, want %v", s.cfg.PointDuration, c.wantDur)
			}
			if s.cfg.Threads != c.maxThreads {
				t.Errorf("cfg.Threads = %d, want %d", s.cfg.Threads, c.maxThreads)
			}
			if !slices.Equal(s.threads, c.wantThreads) {
				t.Errorf("threads = %v, want %v", s.threads, c.wantThreads)
			}
			if s.fixed != c.wantFixed || s.updaters != c.wantUpdaters {
				t.Errorf("fixed, updaters = %d, %d, want %d, %d", s.fixed, s.updaters, c.wantFixed, c.wantUpdaters)
			}
			// Period axes: thinned under -quick, the paper's otherwise.
			want := []int{len(harness.Fig4Periods), len(harness.Fig6Periods), len(harness.Fig7Periods)}
			if c.quick {
				want = []int{5, 3, 4}
			}
			if got := []int{len(s.periods4), len(s.periods6), len(s.periods7)}; !slices.Equal(got, want) {
				t.Errorf("period axis lengths = %v, want %v", got, want)
			}
			// Figure 8 follows the point duration: the default 200ms renders
			// the paper's 500/3000/100ms series, -quick at 100ms 500/1200/100.
			if s.fig8 != c.wantFig8 {
				t.Errorf("Figure 8 phase, total, bucket ms = %v, want %v", s.fig8, c.wantFig8)
			}
		})
	}
}

// TestExperimentSkeletons pins the shape of every figure at the smallest
// quick sweep: each table's title, X label, X values and series labels, in
// order. Only the measured numbers may differ between runs. Figure 6's step
// rows and Figure 8's bucket times depend on timing, so those two pin what
// does not: Figure 6 its title and period columns, Figure 8 its title, X label
// and series labels.
func TestExperimentSkeletons(t *testing.T) {
	s := selectSweep(true, 2, time.Millisecond)
	s.cfg.Clock = cycles.Calibrate(cycles.DefaultGHz)
	periods := "1M 50k 8k 2k 400"
	fig3 := "Array Stat Search No|Array Dyn Append Dereg (step 32)|Array Stat Append Dereg (step 32)|" +
		"List Fast Collect (step 32)|Static Baseline|Array Dyn Search Resize (step 32)|List HoH RC (step 28)|Dynamic Baseline"
	queues := "HTM|Michael-Scott|Michael-Scott ROP|Michael-Scott EBR"
	// want maps an experiment to "title ; X label ; X values ; series labels",
	// X values space-separated and labels |-separated. A field of "*" is not
	// pinned.
	want := map[string]string{
		"fig1":       "Figure 1: Queue performance [ops/us] ; threads ; 1 2 ; " + queues,
		"comparison": "Queue comparison at 2 threads: throughput, per-op overhead, quiescent memory ; queue ; ops/us ns/op ovhd% peak B quiescent B ; " + queues,
		"latency": "Section 5.1: Update latency [ns/op] ; algorithm ; ns/op ; Array Stat Search No|Array Stat Append Dereg|" +
			"Array Dyn Search Resize|Array Dyn Append Dereg|List Fast Collect|List HoH RC|Static Baseline|Dynamic Baseline",
		"fig3": "Figure 3: Collect-dominated [ops/us] ; threads ; 1 2 ; " + fig3,
		"fig4": "Figure 4: Collect-Update [ops/us] ; update period ; " + periods + " ; Array Dyn Append Dereg (adapt)|" +
			"Array Stat Append Dereg (adapt)|List Fast Collect (adapt)|Array Dyn Search Resize (adapt)|Array Stat Search No|Static Baseline",
		"fig5": "Figure 5: Adapting step size (ArrayDynAppendDereg) [ops/us] ; update period ; " + periods +
			" ; Step 32|Step 16|Step 8|Best (adapt cost)|Adaptive",
		"fig6": "Figure 6: Step size distribution (ArrayDynAppendDereg, adaptive) ; * ; 8k 2k 400 ; *",
		"fig7": "Figure 7: Collect-(De)Register [ops/us] ; deregister period ; 1M 50k 8k 1k ; Array Stat Append Dereg (step 32)|" +
			"Array Dyn Append Dereg (step 32)|List Fast Collect (step 32)|Array Dyn Search Resize (step 32)|Array Stat Search No|Static Baseline",
		"fig8": "Figure 8: Collect throughput with varying registered slots [ops/us] ; time [ms] ; * ; Array Stat Append Dereg (step 32)|" +
			"Array Dyn Append Dereg (step 32)|List Fast Collect (step 32)|Array Stat Search No|Static Baseline",
		"space": "Space: peak live heap during Figure 3 workload / queue residual after drain [bytes] ; system ; peak residual ; " +
			fig3 + "|Queue: HTM|Queue: Michael-Scott|Queue: Michael-Scott ROP|Queue: Michael-Scott EBR",
		"scaling": "Fallback scaling: contended-overflow [ops/us] ; threads ; 1 2 ; " +
			"fine-grained disjoint|global-lock disjoint|fine-grained shared|global-lock shared",
		"interference": "Hardware throughput beside persistent fallback traffic [ops/us] ; hw threads ; 1 2 ; fine-grained fallback|global-lock fallback",
	}
	for _, e := range experiments {
		w, ok := want[e.name]
		if !ok {
			t.Errorf("experiment %q has no pinned skeleton", e.name)
			continue
		}
		var got [4]string
		switch tab := e.run(s).(type) {
		case *harness.Table:
			var labels []string
			for _, ser := range tab.Series {
				labels = append(labels, ser.Label)
				if len(ser.Ys) > len(tab.Xs) {
					t.Errorf("%s: series %q has %d values for %d X values", e.name, ser.Label, len(ser.Ys), len(tab.Xs))
				}
			}
			got = [4]string{tab.Title, tab.XLabel, strings.Join(tab.Xs, " "), strings.Join(labels, "|")}
		case *harness.HistTable:
			got = [4]string{tab.Title, "", strings.Join(tab.Xs, " "), ""}
		default:
			t.Fatalf("%s renders a %T", e.name, tab)
		}
		for i, field := range strings.Split(w, " ; ") {
			if field != "*" && got[i] != field {
				t.Errorf("%s: field %d = %q, want %q", e.name, i, got[i], field)
			}
		}
	}
}

// TestSubcommandsCoverEveryExperiment keeps the registry honest: `all` is the
// paper-order run, every experiment is reachable, and -exp names are unique
// within a subcommand.
func TestSubcommandsCoverEveryExperiment(t *testing.T) {
	if got, want := names(selected("all", "all")), "fig1|latency|fig3|fig4|fig5|fig6|fig7|fig8|space"; got != want {
		t.Errorf("all runs %s, want %s", got, want)
	}
	reached := map[string]bool{}
	for _, sub := range subcommands {
		seen := map[string]bool{}
		if len(selected(sub, "all")) == 0 {
			t.Errorf("subcommand %s runs nothing", sub)
		}
		for _, e := range selected(sub, "all") {
			if seen[e.name] {
				t.Errorf("%s lists %q twice", sub, e.name)
			}
			seen[e.name], reached[e.name] = true, true
			if one := selected(sub, e.name); len(one) != 1 || one[0].name != e.name {
				t.Errorf("%s -exp %s selects %s", sub, e.name, names(one))
			}
		}
	}
	for _, e := range experiments {
		if !reached[e.name] {
			t.Errorf("experiment %q is in no subcommand", e.name)
		}
	}
	if len(selected("queue", "fig3")) != 0 || len(selected("bogus", "all")) != 0 {
		t.Error("an unknown subcommand or a foreign experiment selected something")
	}
}
