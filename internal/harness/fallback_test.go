package harness

import (
	"strings"
	"testing"

	"repro/htm"
)

func TestFallbackOverflowRuns(t *testing.T) {
	for _, c := range []struct {
		name             string
		disjoint, global bool
	}{
		{"fine-grained/disjoint", true, false},
		{"fine-grained/shared", false, false},
		{"global/disjoint", true, true},
		{"global/shared", false, true},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := FallbackOverflow(quickCfg(), 3, c.disjoint, c.global)
			if r.Ops == 0 {
				t.Error("no operations completed")
			}
			// Every operation overflows the 2-entry store buffer, so every
			// completed operation ran on the fallback path.
			if r.Stats.FallbackRuns < r.Ops {
				t.Errorf("FallbackRuns = %d < Ops = %d: operations bypassed the fallback",
					r.Stats.FallbackRuns, r.Ops)
			}
			// A global-mode run is a lock-set run under the global lock.
			if r.Stats.FallbackLocks == 0 {
				t.Error("fallback acquired no line locks")
			}
		})
	}
}

func TestFallbackInterferenceRuns(t *testing.T) {
	r := FallbackInterference(quickCfg(), 2, false)
	if r.Ops == 0 {
		t.Error("no hardware operations completed beside fallback traffic")
	}
	if r.Stats.FallbackRuns == 0 {
		t.Error("the fallback looper never ran")
	}
	// The hardware path must never abort on the global fallback lock in
	// fine-grained mode.
	if n := r.Stats.Aborts[htm.AbortFallback]; n != 0 {
		t.Errorf("fine-grained run produced %d AbortFallback aborts", n)
	}
}

func TestFallbackScalingShapes(t *testing.T) {
	tb := FallbackScaling(quickCfg(), []int{1, 2})
	if len(tb.Series) != 4 {
		t.Fatalf("FallbackScaling produced %d series, want 4", len(tb.Series))
	}
	for _, s := range tb.Series {
		if len(s.Ys) != 2 {
			t.Errorf("series %q has %d points, want 2", s.Label, len(s.Ys))
		}
		for i, y := range s.Ys {
			if y <= 0 {
				t.Errorf("series %q point %d = %f, want > 0", s.Label, i, y)
			}
		}
	}
	out := tb.Render()
	if !strings.Contains(out, "fine-grained disjoint") || !strings.Contains(out, "global-lock shared") {
		t.Errorf("rendered table missing series:\n%s", out)
	}
}
