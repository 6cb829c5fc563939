package main

import (
	"slices"
	"testing"
	"time"

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
	}{
		{"quick keeps a shorter duration", true, 16, 10 * ms, 10 * ms, quickCounts, 8, 15},
		{"quick caps a longer duration", true, 16, 200 * ms, 100 * ms, quickCounts, 8, 15},
		{"quick at the cap", true, 16, 100 * ms, 100 * ms, quickCounts, 8, 15},
		{"full sweep honours duration", false, 16, 350 * ms, 350 * ms, harness.DefaultThreadCounts, 8, 15},
		{"threads caps every axis", true, 4, 10 * ms, 10 * ms, []int{1, 2, 4}, 4, 3},
		{"threads between axis points", false, 7, 200 * ms, 200 * ms, []int{1, 2, 4, 6}, 7, 5},
		{"one thread still has an updater", true, 1, 10 * ms, 10 * ms, []int{1}, 1, 1},
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
			// Period axes and the Figure 8 length: thinned under -quick, the
			// paper's otherwise.
			want := []int{len(harness.Fig4Periods), len(harness.Fig6Periods), len(harness.Fig7Periods), 3000}
			if c.quick {
				want = []int{5, 3, 4, 1200}
			}
			if got := []int{len(s.periods4), len(s.periods6), len(s.periods7), s.fig8TotalMs}; !slices.Equal(got, want) {
				t.Errorf("period axis lengths, Figure 8 ms = %v, want %v", got, want)
			}
		})
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
