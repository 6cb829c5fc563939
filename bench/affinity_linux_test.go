//go:build linux

package main

import (
	"math/bits"
	"runtime"
	"testing"
)

func TestSteadyRegimePinsAndRestores(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	procs := runtime.GOMAXPROCS(0)
	leave := enterRegime(1)
	n := 0
	for _, w := range getAffinity() {
		n += bits.OnesCount64(w)
	}
	if n != 1 || runtime.GOMAXPROCS(0) != 1 {
		t.Errorf("steady regime: this thread may run on %d CPUs with GOMAXPROCS %d, want 1 and 1", n, runtime.GOMAXPROCS(0))
	}
	leave()
	if getAffinity() != startMask || runtime.GOMAXPROCS(0) != procs {
		t.Errorf("after leaving: mask %v GOMAXPROCS %d, want %v and %d", getAffinity(), runtime.GOMAXPROCS(0), startMask, procs)
	}
}
