package adapt

import (
	"testing"
	"testing/quick"
)

// The Tuner's FallbackSpins budget, once the Knob type, is a Controller over
// [spinMin, spinMax] fed one vote per busy epoch: RecordGood while retries
// stay high, RecordBad while they stay low. These tests keep the Knob suite's
// names and check the window in that role.

const spinMin, spinMax = 1, 4096 // htm.NewTuner's bounds

func TestNewKnobClamps(t *testing.T) {
	tests := []struct {
		name                       string
		min, max, initial          int
		wantMin, wantMax, wantInit int
	}{
		{"normal", spinMin, spinMax, 64, 1, 4096, 64},
		// FallbackSpins 0: NewTuner relies on this clamp to start at 1.
		{"initial below min", spinMin, spinMax, 0, 1, 4096, 1},
		{"initial above max", spinMin, spinMax, 10000, 1, 4096, 4096},
		{"min below one", -3, spinMax, 2, 1, 4096, 2},
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
	c := NewController(spinMin, spinMax, 4)
	for i := 0; i < 6; i++ {
		c.RecordGood()
		if c.Step() != 4 {
			t.Fatalf("budget changed to %d after only %d up-votes", c.Step(), i+1)
		}
	}
	c.RecordGood() // diff reaches 7 > 6
	if c.Step() != 8 {
		t.Errorf("budget = %d after 7 straight up-votes, want 8", c.Step())
	}
	if c.Window() != 0 {
		t.Errorf("window not reset after resize: %d", c.Window())
	}
}

func TestKnobShrinkAfterDowns(t *testing.T) {
	c := NewController(spinMin, spinMax, 16)
	c.RecordBad() // diff -1
	c.RecordBad() // diff -2
	if c.Step() != 16 {
		t.Fatalf("budget changed too early: %d", c.Step())
	}
	c.RecordBad() // diff -3 < -2
	if c.Step() != 8 {
		t.Errorf("budget = %d after 3 straight down-votes, want 8", c.Step())
	}
}

func TestKnobBoundedByMinMax(t *testing.T) {
	c := NewController(spinMin, spinMax, spinMax)
	for i := 0; i < 100; i++ {
		c.RecordGood()
	}
	if c.Step() != spinMax {
		t.Errorf("budget = %d, want capped at %d", c.Step(), spinMax)
	}
	for i := 0; i < 100; i++ {
		c.RecordBad()
	}
	if c.Step() != spinMin {
		t.Errorf("budget = %d, want floored at %d", c.Step(), spinMin)
	}
}

func TestKnobWindowAgesAtExactlyWindowSize(t *testing.T) {
	// The (windowSize+1)-th vote ages out the oldest vote, so a down-vote
	// after a balanced full window moves the difference by −2 and the window
	// stays pinned at windowSize.
	c := NewController(spinMin, spinMax, 8)
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
		t.Errorf("budget = %d, want unchanged 8 (diff -2 is not < -2)", c.Step())
	}
}

func TestKnobResetOnResize(t *testing.T) {
	grow := NewController(spinMin, spinMax, 4)
	for grow.Step() == 4 {
		grow.RecordGood()
	}
	if grow.Window() != 0 || grow.Diff() != 0 {
		t.Errorf("grow resize kept window=%d diff=%d, want 0,0", grow.Window(), grow.Diff())
	}
	shrink := NewController(spinMin, spinMax, 16)
	for shrink.Step() == 16 {
		shrink.RecordBad()
	}
	if shrink.Window() != 0 || shrink.Diff() != 0 {
		t.Errorf("shrink resize kept window=%d diff=%d, want 0,0", shrink.Window(), shrink.Diff())
	}
}

func TestQuickKnobAlwaysInBounds(t *testing.T) {
	f := func(votes []bool) bool {
		c := NewController(spinMin, spinMax, 8)
		for _, up := range votes {
			if up {
				c.RecordGood()
			} else {
				c.RecordBad()
			}
			v := c.Step()
			if v < spinMin || v > spinMax || v&(v-1) != 0 {
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
