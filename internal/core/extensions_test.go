package core

import (
	"testing"

	"repro/htm"
)

// forEachExtension runs f on the matrix's extension rows alone. The three
// tests below are focused entry points into matrix bodies (go test -run
// Extension), not separate checks: the full matrix runs the same bodies.
func forEachExtension(t *testing.T, f func(t *testing.T, im impl, col Collector, h *htm.Heap)) {
	t.Helper()
	for _, im := range implementations() {
		if !im.extension {
			continue
		}
		t.Run(im.name, func(t *testing.T) {
			h := htm.NewHeap(htm.Config{Words: 1 << 18})
			f(t, im, im.mk(h), h)
		})
	}
}

func TestExtensionBasicSemantics(t *testing.T) { forEachExtension(t, registerCollectDeregister) }

func TestExtensionModelCheck(t *testing.T) { forEachExtension(t, modelCheck) }

func TestExtensionStableHandlesUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	forEachExtension(t, stableHandlesAlwaysCollected)
}

// TestFastCollectDeferredFreeReclaimsAtQuiescence: the to-be-freed backlog
// drains once no Collect is active, restoring live memory.
func TestFastCollectDeferredFreeReclaims(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	l := NewFastCollectDeferredFree(h, Options{Step: 4})
	c := l.NewCtx(h.NewThread())
	base := h.Stats().LiveWords
	var handles []Handle
	for i := 0; i < 100; i++ {
		handles = append(handles, l.Register(c, Value(i+1)))
	}
	for _, hd := range handles {
		l.Deregister(c, hd)
	}
	if l.PendingFree() != 100 {
		t.Fatalf("pending = %d, want 100 before any collect", l.PendingFree())
	}
	l.Collect(c, nil) // quiescent collect triggers the drain
	if l.PendingFree() != 0 {
		t.Errorf("pending = %d after quiescent collect", l.PendingFree())
	}
	c.Close()
	if live := h.Stats().LiveWords; live > base {
		t.Errorf("live = %d, want <= %d", live, base)
	}
}

// TestDeferredReuseAvoidsInnerDeregister: churn within the pool cap must not
// shrink the inner object's registered count (handles are parked, not
// deregistered) and must reuse the same handles.
func TestDeferredReuseParksHandles(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	inner := NewArrayDynAppendDereg(h, 0, Options{Step: 8})
	d := NewDeferredReuse(inner, 4)
	c := d.NewCtx(h.NewThread())
	h1 := d.Register(c, 1)
	d.Deregister(c, h1)
	if got := inner.Registered(); got != 1 {
		t.Fatalf("inner registered = %d, want 1 (parked)", got)
	}
	h2 := d.Register(c, 2)
	if h2 != h1 {
		t.Errorf("expected handle reuse, got %v then %v", h1, h2)
	}
	if got := d.Collect(c, nil); len(got) != 1 || got[0] != 2 {
		t.Errorf("collect = %v, want [2]", got)
	}
	d.Deregister(c, h2)
	d.Drain(c)
	if got := inner.Registered(); got != 0 {
		t.Errorf("inner registered = %d after drain", got)
	}

	// Closing the wrapper's context closes the inner one: a full cycle leaves
	// the heap as NewCtx found it.
	for _, inner := range []func(h *htm.Heap) Collector{
		func(h *htm.Heap) Collector { return NewArrayDynAppendDereg(h, 0, Options{Step: 8}) },
		func(h *htm.Heap) Collector { return NewFastCollect(h, Options{Step: 8}) },
	} {
		h := htm.NewHeap(htm.Config{Words: 1 << 18})
		d := NewDeferredReuse(inner(h), 4)
		base := h.Stats().LiveWords
		c := d.NewCtx(h.NewThread())
		var handles []Handle
		for i := 0; i < 10; i++ {
			handles = append(handles, d.Register(c, Value(i+1)))
		}
		d.Collect(c, nil)
		for _, hd := range handles {
			d.Deregister(c, hd)
		}
		d.Drain(c)
		c.Close()
		if live := h.Stats().LiveWords; live != base {
			t.Errorf("%s: %d live words after Close, %d before NewCtx", d.Name(), live, base)
		}
	}
}

// TestDeferredReusePoolCapBounds: beyond the cap, handles are truly
// deregistered.
func TestDeferredReusePoolCapBounds(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	inner := NewArrayDynAppendDereg(h, 0, Options{Step: 8})
	d := NewDeferredReuse(inner, 2)
	c := d.NewCtx(h.NewThread())
	var handles []Handle
	for i := 0; i < 6; i++ {
		handles = append(handles, d.Register(c, Value(i+1)))
	}
	for _, hd := range handles {
		d.Deregister(c, hd)
	}
	if got := inner.Registered(); got != 2 {
		t.Errorf("inner registered = %d, want pool cap 2", got)
	}
}

// TestUpdOptNakedUpdateLatencyClass: the variant's Update must avoid
// transactions entirely — checked structurally via heap commit counts.
func TestUpdOptUpdateUsesNoTransactions(t *testing.T) {
	h := htm.NewHeap(htm.Config{Words: 1 << 18})
	a := NewArrayDynAppendDeregUpdOpt(h, 0, Options{Step: 8})
	c := a.NewCtx(h.NewThread())
	hd := a.Register(c, 1)
	before := h.Stats().Starts
	for i := 0; i < 100; i++ {
		a.Update(c, hd, uint64(i+1))
	}
	if after := h.Stats().Starts; after != before {
		t.Errorf("UpdOpt Update started %d transactions", after-before)
	}
	if got := a.Collect(c, nil); len(got) != 1 || got[0] != 100 {
		t.Errorf("collect = %v, want [100]", got)
	}
}
