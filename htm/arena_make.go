//go:build !linux || race

package htm

import "sync/atomic"

// The arena off Linux, and in race builds (whose detector watches only Go's
// own memory): the words and the metadata are made zeroed up front, and are
// indexed exactly as arena_mmap.go's mapping is.

// mappedBytes stays 0: nothing is mapped.
var mappedBytes atomic.Int64

func mapArena(_ *Heap, words, lines int) (arena, meta []atomic.Uint64) {
	return make([]atomic.Uint64, words), make([]atomic.Uint64, lines)
}

func prefault([]atomic.Uint64) {}
