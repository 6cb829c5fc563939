package adapt

import (
	"testing"
	"testing/quick"
)

func TestNewControllerClamps(t *testing.T) {
	tests := []struct {
		name                       string
		min, max, initial          int
		wantMin, wantMax, wantInit int
	}{
		{"normal", 1, 32, 8, 1, 32, 8},
		{"initial below min", 4, 32, 1, 4, 32, 4},
		{"initial above max", 1, 16, 64, 1, 16, 16},
		{"min below one", -3, 8, 2, 1, 8, 2},
		{"max below min", 8, 2, 8, 8, 8, 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewController(tt.min, tt.max, tt.initial)
			if c.min != tt.wantMin || c.max != tt.wantMax || c.step != tt.wantInit {
				t.Errorf("got (min=%d max=%d step=%d), want (%d %d %d)",
					c.min, c.max, c.step, tt.wantMin, tt.wantMax, tt.wantInit)
			}
		})
	}
}

func TestGrowAfterSevenCommits(t *testing.T) {
	c := NewController(1, 32, 4)
	for i := 0; i < 6; i++ {
		c.RecordGood()
		if c.Step() != 4 {
			t.Fatalf("step changed to %d after only %d commits", c.Step(), i+1)
		}
	}
	c.RecordGood() // diff reaches 7 > 6
	if c.Step() != 8 {
		t.Errorf("step = %d after 7 straight commits, want 8", c.Step())
	}
	if c.Window() != 0 {
		t.Errorf("window not reset after resize: %d", c.Window())
	}
}

func TestShrinkAfterAborts(t *testing.T) {
	c := NewController(1, 32, 16)
	c.RecordBad() // diff -1
	c.RecordBad() // diff -2
	if c.Step() != 16 {
		t.Fatalf("step changed too early: %d", c.Step())
	}
	c.RecordBad() // diff -3 < -2
	if c.Step() != 8 {
		t.Errorf("step = %d after 3 straight aborts, want 8", c.Step())
	}
}

func TestStepBoundedByMax(t *testing.T) {
	c := NewController(1, 32, 32)
	for i := 0; i < 100; i++ {
		c.RecordGood()
	}
	if c.Step() != 32 {
		t.Errorf("step = %d, want capped at 32", c.Step())
	}
}

func TestStepBoundedByMin(t *testing.T) {
	c := NewController(2, 32, 2)
	for i := 0; i < 100; i++ {
		c.RecordBad()
	}
	if c.Step() != 2 {
		t.Errorf("step = %d, want floored at 2", c.Step())
	}
}

func TestMixedOutcomesHoldSteady(t *testing.T) {
	// Alternating commit/abort keeps the difference counter near zero, so
	// the step should not change.
	c := NewController(1, 32, 8)
	for i := 0; i < 50; i++ {
		c.RecordGood()
		c.RecordBad()
	}
	if c.Step() != 8 {
		t.Errorf("step drifted to %d under alternating outcomes", c.Step())
	}
}

func TestWindowAgesOut(t *testing.T) {
	// 8 commits would trigger growth at the 7th; instead interleave one
	// abort early, then commits: the abort ages out of the 8-slot window and
	// growth eventually triggers.
	c := NewController(1, 32, 4)
	c.RecordBad()
	for i := 0; i < 20 && c.Step() == 4; i++ {
		c.RecordGood()
	}
	if c.Step() != 8 {
		t.Errorf("step = %d; an early abort should age out and allow growth", c.Step())
	}
}

func TestWindowAgesAtExactlyWindowSize(t *testing.T) {
	// Fill the window with exactly windowSize outcomes: 4 commits then 4
	// aborts (diff 0). The (windowSize+1)-th outcome must age out the oldest
	// recorded outcome — a commit — so one more abort moves the difference by
	// −2 (aged-out commit plus the new abort), not −1, and the window stays
	// pinned at windowSize entries.
	c := NewController(1, 32, 8)
	for i := 0; i < windowSize/2; i++ {
		c.RecordGood()
	}
	for i := 0; i < windowSize/2; i++ {
		c.RecordBad()
	}
	if c.Window() != windowSize || c.Diff() != 0 {
		t.Fatalf("after %d mixed outcomes: window=%d diff=%d, want %d and 0",
			windowSize, c.Window(), c.Diff(), windowSize)
	}
	c.RecordBad()
	if c.Window() != windowSize {
		t.Errorf("window = %d after aging, want pinned at %d", c.Window(), windowSize)
	}
	if c.Diff() != -2 {
		t.Errorf("diff = %d after aging out a commit, want -2", c.Diff())
	}
	if c.Step() != 8 {
		t.Errorf("step = %d, want unchanged 8 (diff -2 is not < -2)", c.Step())
	}
}

func TestResetOnResize(t *testing.T) {
	// Both resize directions must clear the window: only attempts since the
	// last resize are relevant (§3.4).
	grow := NewController(1, 32, 4)
	for grow.Step() == 4 {
		grow.RecordGood()
	}
	if grow.Window() != 0 || grow.Diff() != 0 {
		t.Errorf("grow resize kept window=%d diff=%d, want 0,0", grow.Window(), grow.Diff())
	}
	shrink := NewController(1, 32, 16)
	for shrink.Step() == 16 {
		shrink.RecordBad()
	}
	if shrink.Window() != 0 || shrink.Diff() != 0 {
		t.Errorf("shrink resize kept window=%d diff=%d, want 0,0", shrink.Window(), shrink.Diff())
	}
}

func TestDiffTracksWindow(t *testing.T) {
	c := NewController(1, 64, 16)
	c.RecordGood()
	c.RecordGood()
	c.RecordBad()
	if c.Diff() != 1 {
		t.Errorf("diff = %d, want 1", c.Diff())
	}
	if c.Window() != 3 {
		t.Errorf("window = %d, want 3", c.Window())
	}
}

func TestQuickStepAlwaysInBounds(t *testing.T) {
	f := func(outcomes []bool) bool {
		c := NewController(1, 32, 8)
		for _, commit := range outcomes {
			if commit {
				c.RecordGood()
			} else {
				c.RecordBad()
			}
			if c.Step() < 1 || c.Step() > 32 {
				return false
			}
			if c.Diff() < -windowSize || c.Diff() > windowSize {
				return false
			}
			if c.Window() > windowSize {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStepIsPowerOfTwoTimesInitial(t *testing.T) {
	// Starting from a power of two with power-of-two bounds, the step stays
	// a power of two.
	f := func(outcomes []bool) bool {
		c := NewController(1, 32, 8)
		for _, commit := range outcomes {
			if commit {
				c.RecordGood()
			} else {
				c.RecordBad()
			}
			s := c.Step()
			if s&(s-1) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
