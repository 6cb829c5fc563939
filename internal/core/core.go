// Package core implements the Dynamic Collect problem (paper §2) and the
// paper's HTM-based and baseline algorithms for it.
//
// A Collect object binds values to dynamically registered handles:
//
//	h := c.Register(ctx, v)   // bind v to a fresh handle h
//	c.Update(ctx, h, v2)      // rebind h to v2
//	c.Deregister(ctx, h)      // release h
//	vals := c.Collect(ctx, nil)
//
// Collect returns a value for every handle whose registration completed
// before the Collect began and which is not deregistered; handle/value pairs
// being registered, updated or deregistered concurrently may "flicker" (be
// returned or not), and the same handle may contribute more than one value.
// Following the specification's noted variation, Collect returns a multiset
// of values rather than (handle, value) pairs, as the paper's own
// implementations do (Figure 2 records only array[i].val).
//
// Values are single machine words. The zero value is reserved as "null" by
// the two non-HTM baselines (as in the paper's Static baseline, whose Collect
// returns the non-null values seen); the HTM algorithms have no such
// restriction but workloads use non-zero values throughout for comparability.
//
// Implementations:
//
//	HOHRC                 §3.1.1  list, hand-over-hand reference counts
//	FastCollect           §3.1.2  list, deregister counter, restart on change
//	ArrayStatSearchNo     §3.2    static array, search, no compaction
//	ArrayStatAppendDereg  §3.2    static array, append, compact on Deregister
//	ArrayDynSearchResize  §3.2    dynamic array, search, compact on resize
//	ArrayDynAppendDereg   §4      dynamic array, append, compact on Deregister
//	StaticBaseline        §3.3    non-HTM fixed array (not a Dynamic Collect)
//	DynamicBaseline       §3.3    non-HTM reference-counted list ([11] Alg. 2)
//
// plus extensions the paper describes but did not implement (see their files).
//
// All algorithms operate on a shared simulated heap (package htm), so HTM
// and non-HTM algorithms compete on the same memory substrate, and memory
// reclamation is real: freed blocks are reusable immediately, and racing
// transactions abort via sandboxing rather than observing reuse.
package core

import (
	"math"

	"repro/htm"
	"repro/internal/adapt"
)

// Value is the word-sized value bound to a handle.
type Value = uint64

// Handle identifies a registered binding. Its interpretation is
// algorithm-specific (a slot-reference address, a list-node address, or a
// slot address); clients must treat it as opaque.
type Handle uint64

// Collector is a Dynamic Collect object. Methods take a per-thread Ctx
// created by NewCtx; a Ctx must be used by a single goroutine. Handles may
// be updated or deregistered only by the thread that registered them and only
// while registered (the specification's well-formedness conditions); Collect
// may be invoked by any thread at any time outside its other operations.
type Collector interface {
	// Name returns the algorithm's name as used in the paper's figures.
	Name() string
	// NewCtx creates the per-thread execution context.
	NewCtx(th *htm.Thread) *Ctx
	// Register binds v to a fresh handle.
	Register(c *Ctx, v Value) Handle
	// Update rebinds h to v.
	Update(c *Ctx, h Handle, v Value)
	// Deregister releases h.
	Deregister(c *Ctx, h Handle)
	// Collect appends a value for each registered handle to out and returns
	// the extended slice.
	Collect(c *Ctx, out []Value) []Value
}

// Options configure telescoping (paper §3.4) for the HTM algorithms.
type Options struct {
	// Step is the telescoping step size: the number of elements a Collect
	// copies per hardware transaction. Values below 1 default to 1. When
	// Adaptive is set, Step is the initial step.
	Step int
	// Adaptive enables the paper's adaptive step-size mechanism.
	Adaptive bool
	// TrackOutcomes records transaction outcomes into the adaptation
	// machinery without acting on them, reproducing the "Best (adapt cost)"
	// configuration of Figure 5, which charges the bookkeeping overhead of
	// adaptation while pinning the step size.
	TrackOutcomes bool
	// MinStep and MaxStep bound the adaptive step. MaxStep defaults to the
	// heap's store buffer size (32 on Rock); MinStep defaults to 1.
	MinStep, MaxStep int
}

func (o Options) normalize(h *htm.Heap) Options {
	if o.MinStep < 1 {
		o.MinStep = 1
	}
	// Every collected element costs one store-buffer entry, so a step above a
	// bounded store buffer can only ever abort AbortOverflow — and a fixed step
	// never shrinks, so its Collect would retry forever.
	sb := h.Config().StoreBufferSize
	if o.MaxStep <= 0 {
		o.MaxStep = sb
		if o.MaxStep <= 0 {
			o.MaxStep = htm.RockStoreBufferSize
		}
	} else if sb > 0 && o.MaxStep > sb {
		o.MaxStep = sb
	}
	o.MinStep = min(o.MinStep, o.MaxStep) // MaxStep sizes the Ctx's per-step buffers
	if o.Step < o.MinStep {
		o.Step = o.MinStep
	}
	if o.Step > o.MaxStep {
		o.Step = o.MaxStep
	}
	return o
}

// Ctx is the per-thread execution context for a Collector. It carries the
// htm thread, the telescoping controller, the Go slice Collect results are
// staged in, and algorithm-private state. It holds no heap block.
//
// A Collect step GATHERS its values with transactional loads straight into
// the staging slice, then STAGES them with one store-buffer charge (see
// stage): exactly as on Rock, every element copied by a step consumes a
// store-buffer entry, which is what limits step sizes to 32 (paper §3.4). The
// entries stand for stores to thread-private memory, so they publish nothing
// and cost no shared write at commit.
type Ctx struct {
	th   *htm.Thread
	opts Options
	ctrl *adapt.Controller
	// vals stages the Collect in flight: vals[:staged] holds what committed
	// steps collected, and buf is the step in flight's gather window right
	// after it.
	vals, buf []Value
	// staged counts the values committed steps of the Collect in flight left
	// in vals; got counts those the step in flight staged.
	staged, got int
	// stepHist[s] counts the elements collected at step size s, for Figure 6.
	stepHist []stepCount
	// inner is a wrapping collector's context for the collector it wraps.
	inner *Ctx
	priv  any
}

// stepCount is one step size's histogram cell. used distinguishes a step
// that committed without collecting anything from one never taken.
type stepCount struct {
	elems uint64
	used  bool
}

func newCtx(th *htm.Thread, opts Options) *Ctx {
	c := &Ctx{th: th, opts: opts}
	if opts.Adaptive || opts.TrackOutcomes {
		c.ctrl = adapt.NewController(opts.MinStep, opts.MaxStep, opts.Step)
		c.stepHist = make([]stepCount, opts.MaxStep+1)
	}
	return c
}

// Thread returns the underlying htm thread.
func (c *Ctx) Thread() *htm.Thread { return c.th }

// step returns the step size for the next Collect transaction.
func (c *Ctx) step() int {
	if c.ctrl != nil && c.opts.Adaptive {
		return c.ctrl.Step()
	}
	return c.opts.Step
}

// feed reports a Collect transaction outcome to the adaptation machinery;
// collected is the number of elements the attempt copied (0 on abort).
func (c *Ctx) feed(step int, committed bool, collected int) {
	if c.ctrl == nil {
		return
	}
	if committed {
		c.ctrl.RecordGood()
		sc := &c.stepHist[step]
		sc.elems += uint64(collected)
		sc.used = true
	} else {
		c.ctrl.RecordBad()
	}
}

// walkEnd is where a Collect step left its walk.
type walkEnd uint8

const (
	walkOn    walkEnd = iota // elements may lie beyond the returned cursor
	walkDone                 // the walk reached the end of the structure
	walkStale                // the structure changed under the walk
)

// unbounded is a list walk's bound: it may stage a full step every time.
const unbounded = math.MaxInt

// telescope is the telescoped Collect (§3.4) of all seven HTM collectors. Each
// step runs walk in one hardware transaction: walk gathers up to step values
// into c.buf from cursor at with transactional loads, hands them to c.stage
// once, and returns the cursor it reached. It writes c.vals only through
// c.buf and keeps nothing that outlives the attempt: the driver commits the
// cursor and the staged values only when the transaction commits. After an
// aborted step, or one whose walk found its structure stale, resync (nil:
// nothing to repair) reports whether to discard what is staged and walk again
// from from. bound is the most values the walk can stage in all, which caps
// each step's window; a bound of 0 takes no step.
func (c *Ctx) telescope(out []Value, from uint64, bound int,
	walk func(t *htm.Txn, step int, at uint64) (uint64, walkEnd),
	resync func(err error) bool) []Value {
	at := from
	c.staged = 0
	for more := bound > 0; more; {
		step := c.step()
		c.window(min(c.staged+step, bound))
		c.got = 0
		var next uint64
		var end walkEnd
		err := c.th.TryAtomic(func(t *htm.Txn) { next, end = walk(t, step, at) })
		c.feed(step, err == nil, c.got)
		switch {
		case err == nil && end != walkStale:
			at, more = next, end == walkOn
			c.staged += c.got
		case resync != nil && resync(err):
			at, c.staged = from, 0
		}
	}
	return append(out, c.vals[:c.staged]...)
}

// StepHistogram returns a copy of this context's elements-collected-per-step
// histogram (Figure 6). It returns nil when adaptation is disabled.
func (c *Ctx) StepHistogram() map[int]uint64 {
	if c.stepHist == nil {
		return nil
	}
	out := make(map[int]uint64)
	for step, sc := range c.stepHist {
		if sc.used {
			out[step] = sc.elems
		}
	}
	return out
}

// window points c.buf at vals[staged:n], the step in flight's gather window,
// first growing vals — outside any transaction, keeping the staged prefix —
// when it is shorter than n, as a list collector's does mid-Collect.
func (c *Ctx) window(n int) {
	if n > len(c.vals) {
		vals := make([]Value, max(n, 64, 2*len(c.vals)))
		copy(vals, c.vals[:c.staged])
		c.vals = vals
	}
	c.buf = c.vals[c.staged:n]
}

// stage charges one store-buffer entry per value the step gathered into
// c.buf, exactly as if each had been stored right after its load; the values
// are already where the drain reads them.
func (c *Ctx) stage(t *htm.Txn, got int) {
	t.ChargeStores(got)
	c.got = got
}

// Close closes a wrapping collector's inner context. A Ctx itself holds no
// heap block — Collect stages into Go memory — so contexts need not be closed.
func (c *Ctx) Close() {
	if c.inner != nil {
		c.inner.Close()
	}
}
