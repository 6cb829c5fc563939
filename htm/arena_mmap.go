//go:build linux && !race

package htm

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The arena on Linux is one anonymous private mapping, the line metadata
// padded to whole pages and then the words. It is reserved, not committed
// (MAP_NORESERVE), and the kernel backs each page with zeros on its first
// touch, so a heap costs the pages it touches, not its budget. The mapping is
// memory the collector does not see: a cleanup unmaps it once the Heap is
// unreachable, so every access to it must be made through a live Heap, or a
// Thread or Txn that points to one (DESIGN.md "Arena: address space and
// backing"). Race builds use arena_make.go instead: the race detector watches
// only Go's own memory.

// mappedBytes is the size of the mappings of the heaps not yet cleaned up.
var mappedBytes atomic.Int64

// mapArena maps the arena and the metadata of h, whose cleanup unmaps them.
func mapArena(h *Heap, words, lines int) (arena, meta []atomic.Uint64) {
	pageWords := syscall.Getpagesize() / 8
	metaWords := (lines + pageWords - 1) / pageWords * pageWords
	mem, err := syscall.Mmap(-1, 0, (metaWords+words)*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("htm: mapping a %d-word arena: %v", words, err))
	}
	mappedBytes.Add(int64(len(mem)))
	runtime.AddCleanup(h, unmapArena, mem)
	all := unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(unsafe.SliceData(mem))), len(mem)/8)
	return all[metaWords:], all[:lines:lines]
}

func unmapArena(mem []byte) {
	if err := syscall.Munmap(mem); err != nil {
		panic(fmt.Sprintf("htm: unmapping an arena: %v", err))
	}
	mappedBytes.Add(-int64(len(mem)))
}

// madvPopulateWrite is MADV_POPULATE_WRITE (Linux 5.14): back the range now,
// as writes to it would.
const madvPopulateWrite = 23

// prefault asks the kernel to back the pages under ws. It is a hint: an
// older kernel refuses the advice (EINVAL), and the pages fault on first
// touch as they would have.
func prefault(ws []atomic.Uint64) {
	page := uintptr(syscall.Getpagesize())
	lo := uintptr(unsafe.Pointer(&ws[0])) &^ (page - 1)
	hi := uintptr(unsafe.Pointer(&ws[len(ws)-1])) + 8
	syscall.Syscall(syscall.SYS_MADVISE, lo, hi-lo, madvPopulateWrite)
}
