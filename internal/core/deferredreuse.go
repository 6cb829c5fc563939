package core

import (
	"repro/htm"
)

// NullValue is the reserved value a DeferredReuse wrapper binds to parked
// handles. Clients of a wrapped collector must not register or update the
// null value.
const NullValue Value = 0

// DeferredReuse implements the §5.4 suggestion: "For applications that
// perform frequent Register and DeRegister operations, it may make sense to
// defer deregistering handles, allowing them to be reused by subsequent
// Register operations."
//
// It wraps any Collector. Deregister rebinds the handle to NullValue and
// parks it on the thread's local reuse pool instead of deregistering;
// Register drafts a parked handle with a single Update when one is available.
// Collect filters NullValue out. Parked handles beyond the per-thread pool
// cap are truly deregistered, bounding the hidden registrations.
//
// The payoff is workload-dependent: Register/Deregister churn turns into
// Updates, which for FastCollect in particular means far fewer deregister-
// counter bumps and therefore far fewer Collect restarts (§5.4's point).
// The cost is that parked handles still occupy collect-object slots, so
// Collects traverse up to pool-cap extra elements per thread.
type DeferredReuse struct {
	inner   Collector
	poolCap int
}

var _ Collector = (*DeferredReuse)(nil)

type reusePriv struct {
	pool []Handle
}

// NewDeferredReuse wraps inner with per-thread reuse pools of at most
// poolCap parked handles (≤0 selects 8).
func NewDeferredReuse(inner Collector, poolCap int) *DeferredReuse {
	if poolCap <= 0 {
		poolCap = 8
	}
	return &DeferredReuse{inner: inner, poolCap: poolCap}
}

// Name implements Collector.
func (d *DeferredReuse) Name() string { return d.inner.Name() + " (deferred dereg)" }

// NewCtx implements Collector. Closing the context closes the inner one.
func (d *DeferredReuse) NewCtx(th *htm.Thread) *Ctx {
	return &Ctx{th: th, inner: d.inner.NewCtx(th), priv: &reusePriv{}}
}

// Register implements Collector, drafting a parked handle when possible.
func (d *DeferredReuse) Register(c *Ctx, v Value) Handle {
	p := c.priv.(*reusePriv)
	if n := len(p.pool); n > 0 {
		h := p.pool[n-1]
		p.pool = p.pool[:n-1]
		d.inner.Update(c.inner, h, v)
		return h
	}
	return d.inner.Register(c.inner, v)
}

// Update implements Collector.
func (d *DeferredReuse) Update(c *Ctx, h Handle, v Value) {
	d.inner.Update(c.inner, h, v)
}

// Deregister implements Collector, parking the handle unless the pool is
// full.
func (d *DeferredReuse) Deregister(c *Ctx, h Handle) {
	p := c.priv.(*reusePriv)
	if len(p.pool) < d.poolCap {
		d.inner.Update(c.inner, h, NullValue)
		p.pool = append(p.pool, h)
		return
	}
	d.inner.Deregister(c.inner, h)
}

// Collect implements Collector, filtering parked (null) bindings.
func (d *DeferredReuse) Collect(c *Ctx, out []Value) []Value {
	raw := d.inner.Collect(c.inner, nil)
	for _, v := range raw {
		if v != NullValue {
			out = append(out, v)
		}
	}
	return out
}

// Drain truly deregisters every parked handle of this context (teardown).
func (d *DeferredReuse) Drain(c *Ctx) {
	p := c.priv.(*reusePriv)
	for _, h := range p.pool {
		d.inner.Deregister(c.inner, h)
	}
	p.pool = nil
}
