package adapt

import (
	"testing"
	"testing/quick"
)

// The Controller over a range far wider than the paper's [1, 32] step: the
// window's thresholds, its aging and the power-of-two bounds must not depend
// on the range. The test names are from the Knob type these tests first
// checked, a wide-range client the Controller no longer has.

const wideMin, wideMax = 1, 4096

func TestNewKnobClamps(t *testing.T) {
	tests := []struct {
		name                       string
		min, max, initial          int
		wantMin, wantMax, wantInit int
	}{
		{"normal", wideMin, wideMax, 64, 1, 4096, 64},
		// An initial 0 clamps up to the floor.
		{"initial below min", wideMin, wideMax, 0, 1, 4096, 1},
		{"initial above max", wideMin, wideMax, 10000, 1, 4096, 4096},
		{"min below one", -3, wideMax, 2, 1, 4096, 2},
		{"max below min", 8, 2, 8, 8, 8, 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewController(tt.min, tt.max, tt.initial)
			if c.min != tt.wantMin || c.max != tt.wantMax || c.Step() != tt.wantInit {
				t.Errorf("got (min=%d max=%d step=%d), want (%d %d %d)",
					c.min, c.max, c.Step(), tt.wantMin, tt.wantMax, tt.wantInit)
			}
		})
	}
}

func TestKnobGrowAfterSevenUps(t *testing.T) {
	c := NewController(wideMin, wideMax, 4)
	for i := 0; i < 6; i++ {
		c.RecordGood()
		if c.Step() != 4 {
			t.Fatalf("step changed to %d after only %d up-votes", c.Step(), i+1)
		}
	}
	c.RecordGood() // diff reaches 7 > 6
	if c.Step() != 8 {
		t.Errorf("step = %d after 7 straight up-votes, want 8", c.Step())
	}
	if c.Window() != 0 {
		t.Errorf("window not reset after resize: %d", c.Window())
	}
}

func TestKnobShrinkAfterDowns(t *testing.T) {
	c := NewController(wideMin, wideMax, 16)
	c.RecordBad() // diff -1
	c.RecordBad() // diff -2
	if c.Step() != 16 {
		t.Fatalf("step changed too early: %d", c.Step())
	}
	c.RecordBad() // diff -3 < -2
	if c.Step() != 8 {
		t.Errorf("step = %d after 3 straight down-votes, want 8", c.Step())
	}
}

func TestKnobBoundedByMinMax(t *testing.T) {
	c := NewController(wideMin, wideMax, wideMax)
	for i := 0; i < 100; i++ {
		c.RecordGood()
	}
	if c.Step() != wideMax {
		t.Errorf("step = %d, want capped at %d", c.Step(), wideMax)
	}
	for i := 0; i < 100; i++ {
		c.RecordBad()
	}
	if c.Step() != wideMin {
		t.Errorf("step = %d, want floored at %d", c.Step(), wideMin)
	}
}

func TestKnobWindowAgesAtExactlyWindowSize(t *testing.T) {
	// The (windowSize+1)-th vote ages out the oldest vote, so a down-vote
	// after a balanced full window moves the difference by −2 and the window
	// stays pinned at windowSize.
	c := NewController(wideMin, wideMax, 8)
	for i := 0; i < windowSize/2; i++ {
		c.RecordGood()
	}
	for i := 0; i < windowSize/2; i++ {
		c.RecordBad()
	}
	if c.Window() != windowSize || c.Diff() != 0 {
		t.Fatalf("after %d mixed votes: window=%d diff=%d, want %d and 0",
			windowSize, c.Window(), c.Diff(), windowSize)
	}
	c.RecordBad()
	if c.Window() != windowSize {
		t.Errorf("window = %d after aging, want pinned at %d", c.Window(), windowSize)
	}
	if c.Diff() != -2 {
		t.Errorf("diff = %d after aging out an up-vote, want -2", c.Diff())
	}
	if c.Step() != 8 {
		t.Errorf("step = %d, want unchanged 8 (diff -2 is not < -2)", c.Step())
	}
}

func TestKnobResetOnResize(t *testing.T) {
	grow := NewController(wideMin, wideMax, 4)
	for grow.Step() == 4 {
		grow.RecordGood()
	}
	if grow.Window() != 0 || grow.Diff() != 0 {
		t.Errorf("grow resize kept window=%d diff=%d, want 0,0", grow.Window(), grow.Diff())
	}
	shrink := NewController(wideMin, wideMax, 16)
	for shrink.Step() == 16 {
		shrink.RecordBad()
	}
	if shrink.Window() != 0 || shrink.Diff() != 0 {
		t.Errorf("shrink resize kept window=%d diff=%d, want 0,0", shrink.Window(), shrink.Diff())
	}
}

func TestQuickKnobAlwaysInBounds(t *testing.T) {
	f := func(votes []bool) bool {
		c := NewController(wideMin, wideMax, 8)
		for _, up := range votes {
			if up {
				c.RecordGood()
			} else {
				c.RecordBad()
			}
			v := c.Step()
			if v < wideMin || v > wideMax || v&(v-1) != 0 {
				return false
			}
			if c.Diff() < -windowSize || c.Diff() > windowSize || c.Window() > windowSize {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
