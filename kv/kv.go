// Package kv is a transactional key-value engine whose storage is the
// simulated HTM heap (package htm). It is the repository's answer to the
// paper's central claim at system scale: if HTM makes concurrent memory
// management simple, a network-facing store should be buildable as plain
// sequential code inside transactions — and it is.
//
// The engine is an open-addressing (linear-probe) hash index mapping keys to
// heap blocks. Each slot of the index is ONE heap word holding the entry
// block's address (0 = empty, 1 = tombstone); each entry block packs the key
// hash, key/value lengths, an expiry deadline and the key and value bytes
// into consecutive heap words. Every operation — Get, Put, Delete, Scan —
// runs as a single heap transaction via Thread.Atomic with TLE enabled, so:
//
//   - The sequential code path IS the concurrent code path: probing is a loop
//     over Txn.Load; key comparison, value copy and Scan's slot runs and entry
//     bodies are Txn.LoadWords, one call per run of adjacent words.
//   - A Put that replaces or a Delete frees the displaced entry block with
//     Txn.FreeOnCommit — memory is returned the instant the operation
//     commits, and any racing reader of the old entry aborts (sandboxing)
//     instead of observing reuse, exactly like the paper's HTM queue.
//   - Operations whose footprint exceeds the simulated store buffer or read
//     set (large scans) complete on the fine-grained TLE fallback, locking
//     only the words they touch.
//
// Background maintenance (expiry of TTL'd entries, compaction of tombstones)
// flows through an async job pipeline (see jobs.go) built on the package
// queue implementations, and the HTTP layer (server.go, middleware.go) adds
// logging/recovery/metrics middleware plus context-driven graceful shutdown.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/htm"
	"repro/kv/wal"
)

// Tuning limits. Key and value sizes are bounded so a single operation's
// transactional footprint stays far below the heap's read-set capacity.
const (
	// DefaultSlots is the default hash-index capacity (slots, rounded up to a
	// power of two).
	DefaultSlots = 1 << 14
	// DefaultMaxKeyBytes and DefaultMaxValueBytes bound entry sizes.
	DefaultMaxKeyBytes   = 256
	DefaultMaxValueBytes = 4096
)

// Errors returned by Store operations.
var (
	// ErrFull is returned by Put when the index has reached its load-factor
	// ceiling and no slot can be claimed for a new key.
	ErrFull = errors.New("kv: index full")
	// ErrKeyTooLarge and ErrValueTooLarge report an oversized key or value.
	ErrKeyTooLarge   = errors.New("kv: key exceeds maximum size")
	ErrValueTooLarge = errors.New("kv: value exceeds maximum size")
	// ErrEmptyKey reports a zero-length key (reserved: an empty key cannot be
	// distinguished from a missing path segment at the HTTP layer).
	ErrEmptyKey = errors.New("kv: empty key")
	// ErrDeadline reports that an operation was abandoned because its context
	// was cancelled or its deadline passed — while waiting for a pooled
	// execution context, or between transaction retry attempts. An operation
	// that returns ErrDeadline definitely did not take effect.
	ErrDeadline = errors.New("kv: operation abandoned at deadline")
	// ErrDurability reports that a mutation committed to the in-memory heap
	// but could NOT be made durable (the commit log failed). The caller must
	// treat the operation as failed: it may or may not survive a crash.
	ErrDurability = errors.New("kv: durability write failed")
)

// Config parameterizes a Store. The zero value selects the defaults above on
// a private heap sized to hold the index plus a comfortable data budget.
type Config struct {
	// Slots is the hash-index capacity; rounded up to a power of two.
	// Defaults to DefaultSlots. The index holds at most 3/4·Slots entries
	// (including tombstones awaiting compaction) before Put returns ErrFull.
	Slots int

	// HeapWords is the backing heap's address-space budget (htm.Config.Words):
	// a page of the heap's words or line metadata costs memory only once it
	// is touched, so a store costs about what it holds.
	// Defaults to a budget derived from Slots and MaxValueBytes that
	// comfortably holds a full index of mid-sized entries; size it explicitly
	// for large-value workloads.
	HeapWords int

	// MaxKeyBytes / MaxValueBytes bound entry sizes (defaults above).
	MaxKeyBytes   int
	MaxValueBytes int

	// PoolThreads is the number of htm execution contexts the store keeps for
	// serving operations — the store's concurrency ceiling. Defaults to
	// 4·GOMAXPROCS (HTTP handlers block on I/O, so more contexts than cores
	// keeps the engine busy).
	PoolThreads int

	// GlobalFallback selects the paper's global TLE fallback lock instead of
	// the default fine-grained per-line lock-set, for the store's lifetime
	// (htm.Config.GlobalFallback).
	GlobalFallback bool

	// MaxRetries overrides the engine's retry budget before an operation
	// completes on the TLE fallback (0 = htm default). Chaos experiments
	// raise it to keep operations on the killable hardware path longer.
	MaxRetries int

	// Faults attaches a seeded fault-injection plan to the backing heap (see
	// htm.FaultPlan) — the chaos harness's adversity dial. nil injects
	// nothing.
	Faults *htm.FaultPlan

	// Durability, when non-nil, attaches a write-ahead commit log and
	// snapshotting to the store: every acknowledged PUT/DELETE is CRC-framed
	// into the log (group-commit fsync) before the call returns, and
	// startup replays snapshot-then-log. A store with Durability set must be
	// built with Open (recovery can fail); NewStore panics on it.
	Durability *Durability

	// Now overrides the expiry clock (tests). Defaults to time.Now-based
	// unix nanoseconds.
	Now func() int64
}

// Durability parameterizes the WAL + snapshot subsystem (package kv/wal).
type Durability struct {
	// Dir is the log directory (segments, snapshots, clean marker).
	Dir string
	// FS overrides the filesystem (tests inject wal.MemFS/wal.FaultFS);
	// nil selects the real one.
	FS wal.FS
	// SegmentBytes is the log rotation threshold (default 4 MiB).
	SegmentBytes int
	// NoSync skips per-batch fsync: throughput mode, durability off.
	NoSync bool
	// SnapshotEvery triggers an automatic snapshot (and old-segment
	// truncation) after that many acknowledged mutations; 0 disables
	// automatic snapshots (Store.Snapshot still works).
	SnapshotEvery int
}

func (d *Durability) withDefaults() *Durability {
	out := *d
	if out.FS == nil {
		out.FS = wal.OSFS{}
	}
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = 4 << 20
	}
	return &out
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = DefaultSlots
	}
	n := 1
	for n < c.Slots {
		n <<= 1
	}
	c.Slots = n
	if c.MaxKeyBytes <= 0 {
		c.MaxKeyBytes = DefaultMaxKeyBytes
	}
	if c.MaxValueBytes <= 0 {
		c.MaxValueBytes = DefaultMaxValueBytes
	}
	if c.PoolThreads <= 0 {
		c.PoolThreads = 4 * runtime.GOMAXPROCS(0)
		if c.PoolThreads < 8 {
			c.PoolThreads = 8
		}
	}
	if c.HeapWords <= 0 {
		// Index + headers + a data budget assuming entries average a quarter
		// of the maximum value size, with 2x slack for allocator caching,
		// queue nodes and fragmentation.
		avgEntry := entryHdrWords + wordsFor(c.MaxKeyBytes)/2 + wordsFor(c.MaxValueBytes)/4 + 1
		c.HeapWords = 2 * (c.Slots + maxEntries(c.Slots)*avgEntry)
		if c.HeapWords < 1<<16 {
			c.HeapWords = 1 << 16
		}
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
	return c
}

// maxEntries is the load-factor ceiling: the index accepts at most 3/4 of its
// slots as live entries plus uncompacted tombstones, keeping linear-probe
// clusters short.
func maxEntries(slots int) int { return slots / 4 * 3 }

// wordsFor returns the number of 64-bit heap words needed for n bytes.
func wordsFor(n int) int { return (n + 7) / 8 }

// validateSizes checks key/value bounds shared by Put and the read paths.
func (s *Store) validateKey(key []byte) error {
	switch {
	case len(key) == 0:
		return ErrEmptyKey
	case len(key) > s.cfg.MaxKeyBytes:
		return fmt.Errorf("%w (%d > %d bytes)", ErrKeyTooLarge, len(key), s.cfg.MaxKeyBytes)
	}
	return nil
}

// hashKey is FNV-1a 64, computed outside transactions (the hash of a key is
// immutable, so hashing inside the retry loop would be wasted work).
func hashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	// Never return the reserved slot markers; fold them away so entry hash
	// words are always distinguishable from empty/tombstone slots when read
	// back by diagnostics (the index itself stores addresses, not hashes).
	if h == 0 {
		h = offset64
	}
	return h
}

// The entry codec: bytes travel to and from the heap as little-endian words
// with a zero-padded tail word, and this pair is the only code that knows it.
// Every writer (fillEntry, packKey) and every reader (get, pageReader.pair)
// goes through it, so a stored key and a packed probe key of equal length are
// equal word for word; lengths are compared first, so padding can never alias a
// longer key.

// packBytes packs b into out, which must be wordsFor(len(b)) words long.
func packBytes(out []uint64, b []byte) {
	full := len(b) / 8
	for i := range out[:full] {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	if full < len(out) {
		var tail [8]byte
		copy(tail[:], b[8*full:])
		out[full] = binary.LittleEndian.Uint64(tail[:])
	}
}

// unpackBytes is packBytes' inverse: it fills dst from the first
// wordsFor(len(dst)) words.
func unpackBytes(dst []byte, words []uint64) {
	full := len(dst) / 8
	for i, w := range words[:full] {
		binary.LittleEndian.PutUint64(dst[8*i:], w)
	}
	if rest := dst[8*full:]; len(rest) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], words[full])
		copy(rest, tail[:])
	}
}

// entry block layout (payload words of one allocated block):
//
//	word 0: key hash (FNV-1a 64)
//	word 1: key length in bytes << 32 | value length in bytes
//	word 2: expiry deadline, unix nanoseconds (0 = never expires)
//	word 3: durability sequence number (0 when the store has no WAL)
//	word 4 ... : key bytes packed LE, then value bytes packed LE
//
// The sequence number is the store-wide mutation order: ticked inside the
// publishing transaction, logged with the entry's WAL record, and snapshotted
// with the entry, it is what lets recovery merge a snapshot taken during
// writes with the log records around it (see DESIGN.md "Durability &
// recovery" for the replay rule).
const (
	entryHash = iota
	entryLens
	entryExpiry
	entrySeq
	entryHdrWords
)

// entryWords returns the payload size of an entry block for klen/vlen bytes.
func entryWords(klen, vlen int) int {
	return entryHdrWords + wordsFor(klen) + wordsFor(vlen)
}
