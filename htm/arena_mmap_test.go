//go:build linux && !race

package htm

import (
	"sync/atomic"
	"syscall"
	"testing"
	"unsafe"
)

// mapsArena reports whether this build maps its arenas (arena_mmap.go).
const mapsArena = true

// resident returns the index in ws of the first word of every page of ws that
// is resident, as mincore reports it; ws must start a page, as the arena and
// the metadata do.
func resident(t *testing.T, ws []atomic.Uint64) []int {
	t.Helper()
	pageWords := syscall.Getpagesize() / 8
	vec := make([]byte, (len(ws)+pageWords-1)/pageWords)
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&ws[0])),
		uintptr(len(ws)*8), uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	var pages []int
	for i, v := range vec {
		if v&1 != 0 {
			pages = append(pages, i*pageWords)
		}
	}
	return pages
}
