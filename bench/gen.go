package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
)

// Everything the program under test receives is generated here from -seed,
// before any measured window opens: keys, per-client operation rings and the
// bytes of every value. The timed path only indexes into what this file made.

const (
	maxClients = 2       // closed-loop clients: 1 in a steady run, 2 in a contended one (see README: load shape)
	valueBytes = 128     // every value, self-describing
	ringLen    = 1 << 16 // pre-generated ops per client, replayed cyclically
	sampleMask = 15      // in-process workloads time 1 op in 16
)

// opKind names one operation type across all workloads.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	opScan
	opEnqueue
	opDequeue
	opCollect
	opChurn
	nKinds
)

var kindNames = [nKinds]string{"get", "put", "delete", "scan", "enqueue", "dequeue", "collect", "churn"}

// kvOp is one pre-generated key-value operation.
type kvOp struct {
	kind   opKind
	key    uint32 // index into the key table
	cursor uint32 // scan start slot
}

// kvMix is an operation mix in percent (sums to 100) plus the key
// distribution it draws from.
type kvMix struct {
	get, put, del, scan int
	keys                int
	zipfS               float64 // 0 = uniform
	slots               int     // scan cursors range over [0, slots)
}

// clientRand returns client c's generator stream for seed. math/rand's seeded
// source is frozen by the Go 1 compatibility promise, so a seed names one
// input set on every toolchain.
func clientRand(seed uint64, c int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed*1000003 + uint64(c)*7919 + 1)))
}

// genKVOps builds the ring of client c of n. A client mutates only keys whose
// index is congruent to c (mod n): every key then has one writer, so the last
// acknowledged state of each key is known exactly — what the read-your-writes
// and crash-recovery checks compare against. Reads draw from all keys.
func genKVOps(seed uint64, c, n int, m kvMix) []kvOp {
	r := clientRand(seed, c)
	var zipf *rand.Zipf
	if m.zipfS > 0 {
		zipf = rand.NewZipf(r, m.zipfS, 1, uint64(m.keys-1))
	}
	ops := make([]kvOp, ringLen)
	for i := range ops {
		var k uint32
		if zipf != nil {
			k = uint32(zipf.Uint64())
		} else {
			k = uint32(r.Intn(m.keys))
		}
		o := kvOp{key: k}
		switch p := r.Intn(100); {
		case p < m.get:
			o.kind = opGet
		case p < m.get+m.put:
			o.kind = opPut
		case p < m.get+m.put+m.del:
			o.kind = opDelete
		default:
			o.kind = opScan
			o.cursor = uint32(r.Intn(m.slots))
		}
		if o.kind == opPut || o.kind == opDelete {
			o.key = k - k%uint32(n) + uint32(c)
		}
		ops[i] = o
	}
	return ops
}

// genKeys returns n distinct fixed-length keys for seed.
func genKeys(seed uint64, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%04x-%016x", i, mix64(seed^uint64(i)*0x9E3779B97F4A7C15)))
	}
	return keys
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Value layout (valueBytes bytes, little-endian):
//
//	[0:4)     key index      [4:8)   version
//	[8:16)    seed           [16:120) filler derived from the three
//	[120:128) FNV-1a 64 of bytes [0:120)
const valueSumOff = valueBytes - 8

// encodeValue fills dst[:valueBytes] with the value (seed, key, ver) names.
func encodeValue(dst []byte, seed uint64, key, ver uint32) {
	binary.LittleEndian.PutUint32(dst[0:], key)
	binary.LittleEndian.PutUint32(dst[4:], ver)
	binary.LittleEndian.PutUint64(dst[8:], seed)
	x := seed ^ uint64(key)<<32 ^ uint64(ver)
	for off := 16; off < valueSumOff; off += 8 {
		x = mix64(x)
		binary.LittleEndian.PutUint64(dst[off:], x)
	}
	binary.LittleEndian.PutUint64(dst[valueSumOff:], fnv64(dst[:valueSumOff]))
}

var errBadValue = errors.New("value fails verification")

// verifyValue checks that val is a value this seed wrote for key and returns
// its version.
func verifyValue(val []byte, seed uint64, key uint32) (uint32, error) {
	switch {
	case len(val) != valueBytes:
		return 0, fmt.Errorf("%w: %d bytes", errBadValue, len(val))
	case binary.LittleEndian.Uint64(val[valueSumOff:]) != fnv64(val[:valueSumOff]):
		return 0, fmt.Errorf("%w: checksum", errBadValue)
	case binary.LittleEndian.Uint32(val[0:]) != key:
		return 0, fmt.Errorf("%w: holds key %d, want %d", errBadValue, binary.LittleEndian.Uint32(val[0:]), key)
	case binary.LittleEndian.Uint64(val[8:]) != seed:
		return 0, fmt.Errorf("%w: written under another seed", errBadValue)
	}
	return binary.LittleEndian.Uint32(val[4:]), nil
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// genCoinRing returns a ring of ringLen enqueue(true)/dequeue(false) choices
// holding exactly as many of each, shuffled. A balanced ring brings the queue
// back to its starting length on every lap, so replaying it for any window
// length never drains the queue and never grows it without bound.
func genCoinRing(seed uint64, c int) []bool {
	r := clientRand(seed, c)
	ring := make([]bool, ringLen)
	for i := 0; i < ringLen/2; i++ {
		ring[i] = true
	}
	r.Shuffle(ringLen, func(i, j int) { ring[i], ring[j] = ring[j], ring[i] })
	return ring
}
