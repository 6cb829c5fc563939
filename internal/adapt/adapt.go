// Package adapt implements the paper's adaptive telescoping step-size
// mechanism (§3.4).
//
// Telescoping executes several traversal steps of a Collect inside one
// hardware transaction, amortizing the fixed cost of starting and committing
// a transaction. Larger steps amortize better but abort more under
// contention. The controller tracks the outcome of the most recent 8
// transaction attempts in a bit vector and maintains the difference between
// commits and aborts among them: if the difference exceeds +6 after a commit
// the step size doubles; if it drops below −2 after an abort the step size
// halves. To avoid excessive resizing, only attempts since the last resize
// are considered (the window is cleared whenever the step changes).
package adapt

// Paper-determined thresholds and window size (§3.4).
const (
	windowSize     = 8
	growThreshold  = 6  // double the step when counter exceeds this after a commit
	shrinkThresold = -2 // halve the step when counter drops below this after an abort
)

// Controller adapts a power-of-two-stepped size to good (commit) and bad
// (abort) outcomes. It is not safe for concurrent use; each collecting thread
// owns one.
type Controller struct {
	step int
	min  int
	max  int

	window uint8 // bit i set = i-th most recent attempt was good
	filled int   // number of valid bits in window (≤ 8)
	diff   int   // good − bad over the window
}

// NewController returns a controller constrained to [min, max] starting at
// initial. Arguments are clamped into a sane order; the paper uses min 1 and
// max 32 (Rock's store buffer size).
func NewController(min, max, initial int) *Controller {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if initial < min {
		initial = min
	}
	if initial > max {
		initial = max
	}
	return &Controller{step: initial, min: min, max: max}
}

// Step returns the step size to use for the next transaction attempt.
func (c *Controller) Step() int { return c.step }

// RecordGood feeds a good outcome (a committed attempt) into the controller,
// possibly doubling the step size.
func (c *Controller) RecordGood() {
	c.record(true)
	if c.diff > growThreshold && c.step < c.max {
		c.step = min(c.step*2, c.max)
		c.reset()
	}
}

// RecordBad feeds a bad outcome (an aborted attempt) into the controller,
// possibly halving the step size.
func (c *Controller) RecordBad() {
	c.record(false)
	if c.diff < shrinkThresold && c.step > c.min {
		c.step = max(c.step/2, c.min)
		c.reset()
	}
}

// record pushes an outcome into the window and updates the difference, aging
// out the oldest outcome when full.
func (c *Controller) record(good bool) {
	if c.filled == windowSize {
		if c.window&(1<<(windowSize-1)) != 0 {
			c.diff--
		} else {
			c.diff++
		}
	} else {
		c.filled++
	}
	c.window <<= 1
	if good {
		c.window |= 1
		c.diff++
	} else {
		c.diff--
	}
}

// reset clears the window, as required after each resize ("only transaction
// attempts since the last resize are relevant").
func (c *Controller) reset() { c.window, c.filled, c.diff = 0, 0, 0 }

// Diff exposes the current good−bad difference for tests and diagnostics.
func (c *Controller) Diff() int { return c.diff }

// Window exposes how many outcomes are currently considered.
func (c *Controller) Window() int { return c.filled }
