package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Tests and the benchmark for the entry data path: the word codec, the
// buffers Get and Scan hand out, and how many of them an operation allocates.

// TestCodecRoundTrip stores and reads back keys of every length 1..MaxKeyBytes
// and values of every length 0..MaxValueBytes residue mod 8 (plus the bounds),
// through Put/Get/Scan — i.e. through packBytes, AllocInit, LoadWords and
// unpackBytes — with byte patterns that make a dropped, shifted or padded byte
// visible.
func TestCodecRoundTrip(t *testing.T) {
	s := NewStore(Config{Slots: 1024})
	maxK, maxV := s.cfg.MaxKeyBytes, s.cfg.MaxValueBytes
	pattern := func(n, salt int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*31 + salt + 1) // never all zeros: padding must not pass for data
		}
		return b
	}
	vlens := []int{maxV - 1, maxV}
	for v := 0; v <= 17; v++ {
		vlens = append(vlens, v)
	}
	for klen := 1; klen <= maxK; klen++ {
		key := pattern(klen, klen)
		val := pattern(vlens[klen%len(vlens)], klen)
		if err := s.Put(bg, key, val, 0); err != nil {
			t.Fatalf("put klen=%d vlen=%d: %v", klen, len(val), err)
		}
		got, ok, err := s.Get(bg, key)
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("klen=%d vlen=%d: get = %x ok=%v err=%v, want %x", klen, len(val), got, ok, err, val)
		}
	}
	// Every value length under one key, replace after replace.
	key := []byte("value-lengths")
	for _, vlen := range append(vlens, 63, 64, 65, 511, 512, 513) {
		val := pattern(vlen, vlen)
		if err := s.Put(bg, key, val, 0); err != nil {
			t.Fatalf("put vlen=%d: %v", vlen, err)
		}
		if got, ok, _ := s.Get(bg, key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("vlen=%d: get = %x ok=%v", vlen, got, ok)
		}
	}
	// Scan returns the same bytes the per-key reads did.
	seen := 0
	for cursor := uint64(0); cursor < s.Slots(); {
		pairs, next, err := s.Scan(bg, cursor, 50)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if got, ok, _ := s.Get(bg, p.Key); !ok || !bytes.Equal(got, p.Value) {
				t.Fatalf("scan pair %x: value %x, get says %x ok=%v", p.Key, p.Value, got, ok)
			}
			seen++
		}
		cursor = next
	}
	if seen != s.Len() {
		t.Fatalf("scan saw %d entries, store holds %d", seen, s.Len())
	}
}

// TestZeroExtendedKeysDiffer: a key and the same key followed by zero bytes
// pack to identical words whenever both end in the same word, so only the
// length check tells them apart. They must be distinct keys.
func TestZeroExtendedKeysDiffer(t *testing.T) {
	s := NewStore(Config{Slots: 64})
	for _, base := range []string{"k", "seven77", "eight888", "exactly-sixteen!!"} {
		short := []byte(base)
		long := append([]byte(base), 0)
		longer := append([]byte(base), 0, 0, 0, 0, 0, 0, 0, 0, 0)
		mustPut(t, s, string(short), "short")
		for _, k := range [][]byte{long, longer} {
			if _, ok, _ := s.Get(bg, k); ok {
				t.Fatalf("%q found under its zero-extension %q", short, k)
			}
		}
		mustPut(t, s, string(long), "long")
		mustPut(t, s, string(longer), "longer")
		checkGet(t, s, string(short), "short", true)
		checkGet(t, s, string(long), "long", true)
		checkGet(t, s, string(longer), "longer", true)
		if ok, _ := s.Delete(bg, long); !ok {
			t.Fatalf("delete %q missed", long)
		}
		checkGet(t, s, string(short), "short", true)
		checkGet(t, s, string(longer), "longer", true)
	}
}

// TestScanPairsDoNotAlias: a pair's Key and Value share one buffer; growing or
// rewriting one must not reach the other, nor another pair.
func TestScanPairsDoNotAlias(t *testing.T) {
	s := NewStore(Config{Slots: 64})
	want := map[string]string{}
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d-%s", i, "x")
		mustPut(t, s, k, v)
		want[k] = v
	}
	pairs, _, err := s.Scan(bg, 0, 100)
	if err != nil || len(pairs) != len(want) {
		t.Fatalf("scan: %d pairs, err %v", len(pairs), err)
	}
	keys := make([]string, len(pairs))
	for i := range pairs {
		keys[i] = string(pairs[i].Key)
		if cap(pairs[i].Key) != len(pairs[i].Key) {
			t.Errorf("pair %d: key capacity %d runs past its length %d", i, cap(pairs[i].Key), len(pairs[i].Key))
		}
		_ = append(pairs[i].Key, "-clobber-clobber-clobber"...)
		_ = append(pairs[i].Value, "-clobber"...)
	}
	for i, p := range pairs {
		if string(p.Key) != keys[i] || string(p.Value) != want[keys[i]] {
			t.Errorf("pair %d after appends: %q=%q, want %q=%q", i, p.Key, p.Value, keys[i], want[keys[i]])
		}
	}
}

// storeMix is the benchmark's `store-mixed` shape: 22-byte keys, 128-byte
// values, 8192 keys all seeded, ops drawn 60/25/10/5 Get/Put/Delete/Scan with
// Zipf(1.1) keys and uniform scan cursors.
type storeMix struct {
	s    *Store
	keys [][]byte
	val  []byte
}

func newStoreMix(tb testing.TB) *storeMix {
	m := &storeMix{s: NewStore(Config{}), keys: make([][]byte, 8192), val: bytes.Repeat([]byte{0xa5}, 128)}
	for i := range m.keys {
		m.keys[i] = []byte(fmt.Sprintf("k%04x-%016x", i, uint64(i)*0x9E3779B97F4A7C15))
		if err := m.s.Put(bg, m.keys[i], m.val, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// TestDataPathAllocs pins the heap allocations of each operation on a warm
// in-memory store: Get makes the value buffer and nothing else, a replacing
// Put and a Delete make none (key image, entry image and closures stay on the
// stack), a 32-pair Scan makes the page and one buffer per pair.
func TestDataPathAllocs(t *testing.T) {
	m := newStoreMix(t)
	key := m.keys[77]
	check := func(op string, limit float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, f); got > limit {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", op, got, limit)
		}
	}
	check("Get", 1, func() {
		if _, ok, err := m.s.Get(bg, key); !ok || err != nil {
			t.Fatal("get missed")
		}
	})
	check("Put (replace)", 0, func() {
		if err := m.s.Put(bg, key, m.val, 0); err != nil {
			t.Fatal(err)
		}
	})
	check("Scan(32)", 34, func() {
		if pairs, _, err := m.s.Scan(bg, 100, 32); err != nil || len(pairs) != 32 {
			t.Fatalf("scan: %d pairs, err %v", len(pairs), err)
		}
	})
	check("Delete", 0, func() { // hit once, then misses: neither allocates
		if _, err := m.s.Delete(bg, key); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkStoreMix is one command for the next profile of the direct-store
// data path:
//
//	go test -run '^$' -bench StoreMix -cpuprofile /tmp/cpu.out ./kv
func BenchmarkStoreMix(b *testing.B) {
	m := newStoreMix(b)
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(m.keys)-1))
	type op struct{ kind, key, cursor int }
	ops := make([]op, 1<<14)
	for i := range ops {
		ops[i] = op{kind: r.Intn(100), key: int(zipf.Uint64()), cursor: r.Intn(int(m.s.Slots()))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := ops[i%len(ops)]
		var err error
		switch {
		case o.kind < 60:
			_, _, err = m.s.Get(bg, m.keys[o.key])
		case o.kind < 85:
			err = m.s.Put(bg, m.keys[o.key], m.val, 0)
		case o.kind < 95:
			_, err = m.s.Delete(bg, m.keys[o.key])
		default:
			_, _, err = m.s.Scan(bg, uint64(o.cursor), 32)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
