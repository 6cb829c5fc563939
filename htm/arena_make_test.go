//go:build !linux || race

package htm

import (
	"sync/atomic"
	"testing"
)

// mapsArena reports whether this build maps its arenas: this one makes them
// (arena_make.go), so residency is not observable.
const mapsArena = false

func resident(t *testing.T, _ []atomic.Uint64) []int {
	t.Helper()
	t.Fatal("resident: this build makes its arenas")
	return nil
}
