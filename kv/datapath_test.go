package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/htm"
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
// Put and a Delete make none (key image, entry image, reader and closures stay
// on the stack), a 32-pair Scan makes the page and the arena its pairs are
// carved from.
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
	check("Scan(32)", 3, func() {
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

// The executable definition Scan and Get are held to: the per-slot Scan body
// and the per-word Get body, every word through Txn.Load. The production
// bodies must return the same bytes and cursor and leave the same distinct
// read set; only the order and the batching of the loads may differ.

func refExpired(deadline uint64, now int64) bool { return deadline != 0 && int64(deadline) <= now }

func refLoadBytes(t *htm.Txn, a htm.Addr, dst []byte) {
	for ; len(dst) > 0; a++ {
		w := [1]uint64{t.Load(a)}
		n := min(len(dst), 8)
		unpackBytes(dst[:n], w[:])
		dst = dst[n:]
	}
}

func refScanPage(s *Store, t *htm.Txn, cursor, end uint64, limit int, now int64) (pairs []Pair, next uint64) {
	next = end
	for i := cursor; i < end; i++ {
		if len(pairs) >= limit {
			return pairs, i
		}
		w := t.Load(s.table + htm.Addr(i))
		if w == slotEmpty || w == slotTombstone {
			continue
		}
		e := htm.Addr(w)
		if refExpired(t.Load(e+entryExpiry), now) {
			continue
		}
		klen, vlen := splitLens(t.Load(e + entryLens))
		buf := make([]byte, klen+vlen)
		refLoadBytes(t, e+entryHdrWords, buf[:klen])
		refLoadBytes(t, e+htm.Addr(entryHdrWords+wordsFor(klen)), buf[klen:])
		pairs = append(pairs, Pair{Key: buf[:klen], Value: buf[klen:]})
	}
	return pairs, next
}

func refGet(s *Store, t *htm.Txn, k packedKey, now int64) ([]byte, bool) {
	i := k.hash & s.mask
	for n := uint64(0); n <= s.mask; n, i = n+1, (i+1)&s.mask {
		w := t.Load(s.table + htm.Addr(i))
		if w == slotEmpty {
			return nil, false
		}
		if w == slotTombstone {
			continue
		}
		e := htm.Addr(w)
		if t.Load(e+entryHash) != k.hash {
			continue
		}
		if klen, _ := splitLens(t.Load(e + entryLens)); klen != k.n {
			continue
		}
		match := true
		for j, want := range k.words { // the key is loaded whole, match or not
			match = t.Load(e+htm.Addr(entryHdrWords+j)) == want && match
		}
		if !match {
			continue
		}
		if refExpired(t.Load(e+entryExpiry), now) {
			return nil, false
		}
		klen, vlen := splitLens(t.Load(e + entryLens))
		val := make([]byte, vlen)
		refLoadBytes(t, e+htm.Addr(entryHdrWords+wordsFor(klen)), val)
		return val, true
	}
	return nil, false
}

// TestScanGetMatchReference runs the production and the reference bodies over
// seeded random stores — tombstones, live and lapsed TTLs, keys and values on
// both sides of scratchWords words, empty values — four seeded stores, with
// and without a fault plan (under which LoadWords is the Load loop), and
// requires identical pairs, cursors, values and distinct read sets. A row's
// stripe and shards fields only salt its store's seed: the rows' names are
// their test IDs, kept from when rows also varied a metadata stripe width and
// the clock's shard count; the store always runs TLE.
func TestScanGetMatchReference(t *testing.T) {
	const slots = 4096
	for _, g := range []struct{ stripe, shards int }{{0, 1}, {0, 4}, {2, 1}, {2, 4}} {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("stripe=%d/shards=%d/faults=%v", g.stripe, g.shards, faulty), func(t *testing.T) {
				var now atomic.Int64
				now.Store(1_000)
				cfg := Config{Slots: slots, MaxKeyBytes: 8 * (scratchWords + 8), MaxValueBytes: 8 * (scratchWords + 40),
					HeapWords: 1 << 18, Now: now.Load}
				if faulty {
					// Capped per operation, so every body still commits on the
					// hardware path, where it has a read set to compare.
					cfg.Faults = &htm.FaultPlan{Seed: 7, AccessProb: 0.001, MaxPerOp: 2}
				}
				s := NewStore(cfg)
				rng := rand.New(rand.NewSource(int64(11 + g.stripe + 10*g.shards)))
				blob := func(n int) []byte {
					b := make([]byte, n)
					rng.Read(b)
					return b
				}
				size := func(small, big int) int { // mostly small, sometimes past the scratch
					if rng.Intn(40) == 0 {
						return 8*scratchWords - 4 + rng.Intn(big-8*scratchWords+5)
					}
					return rng.Intn(small)
				}
				var keys [][]byte
				for i := 0; i < 2400; i++ {
					key := append(blob(1+size(40, cfg.MaxKeyBytes-3)), byte(i), byte(i>>8)) // distinct
					put := func(ttl time.Duration) {
						if err := s.Put(bg, key, blob(size(120, cfg.MaxValueBytes)), ttl); err != nil {
							t.Fatal(err)
						}
					}
					put(0)
					switch rng.Intn(5) { // a replace frees a block whose words later entries reuse
					case 0:
						put(time.Duration(1 + rng.Intn(500))) // lapses below
					case 1:
						put(1 << 40)
					}
					keys = append(keys, key)
				}
				for i := 0; i < len(keys); i += 7 {
					if _, err := s.Delete(bg, keys[i]); err != nil {
						t.Fatal(err)
					}
				}
				now.Store(1_600) // every short TTL has lapsed; nothing swept

				inTxn := func(body func(t *htm.Txn)) (readSet int) {
					s.withThread(func(th *htm.Thread) {
						th.Atomic(func(tx *htm.Txn) {
							body(tx)
							if tx.InFallback() {
								t.Fatal("body ran on the fallback: no read set to compare")
							}
							readSet = tx.ReadSetSize()
						})
					})
					return readSet
				}

				hits := 0
				for _, key := range append(keys, []byte("absent"), blob(cfg.MaxKeyBytes)) {
					k := packKey(key, nil)
					var want, got []byte
					var wantOK, gotOK bool
					wantRS := inTxn(func(tx *htm.Txn) { want, wantOK = refGet(s, tx, k, now.Load()) })
					gotRS := inTxn(func(tx *htm.Txn) { got, gotOK = s.get(tx, k, &expiryClock{now: now.Load}) })
					if gotOK != wantOK || !bytes.Equal(got, want) || gotRS != wantRS {
						t.Fatalf("get %x: ok=%v %d bytes read set %d, reference ok=%v %d bytes read set %d",
							key, gotOK, len(got), gotRS, wantOK, len(want), wantRS)
					}
					if gotOK {
						hits++
					}
				}
				if hits < len(keys)/2 || hits == len(keys) {
					t.Fatalf("%d of %d gets hit: the store is not the mix this test means to cover", hits, len(keys))
				}

				for _, cursor := range []uint64{0, 1, slots/2 - 3, slots - scanSlotWindow, slots - 70, slots - 1} {
					for _, limit := range []int{1, 2, 31, 32, 33, 63, 64, 65, scanSlotWindow, scanSlotWindow + 1, 1 << 40} {
						end := min(cursor+scanSlotWindow, slots)
						var want, got []Pair
						var wantNext, gotNext uint64
						wantRS := inTxn(func(tx *htm.Txn) { want, wantNext = refScanPage(s, tx, cursor, end, limit, now.Load()) })
						var r pageReader
						clamped := int(min(uint64(limit), end-cursor)) // as Scan clamps it
						gotRS := inTxn(func(tx *htm.Txn) {
							got, gotNext = s.scanPage(tx, &r, got, cursor, end, clamped, &expiryClock{now: now.Load})
						})
						if gotNext != wantNext || gotRS != wantRS || len(got) != len(want) {
							t.Fatalf("scan cursor=%d limit=%d: %d pairs next=%d read set %d, reference %d pairs next=%d read set %d",
								cursor, limit, len(got), gotNext, gotRS, len(want), wantNext, wantRS)
						}
						for i := range want {
							if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
								t.Fatalf("scan cursor=%d limit=%d pair %d: %x=%x, reference %x=%x",
									cursor, limit, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
							}
						}
						// The public call agrees with its body.
						pub, pubNext, err := s.Scan(bg, cursor, limit)
						if err != nil || pubNext != wantNext || len(pub) != len(want) {
							t.Fatalf("Scan(%d, %d) = %d pairs next=%d err=%v, reference %d pairs next=%d",
								cursor, limit, len(pub), pubNext, err, len(want), wantNext)
						}
					}
				}
			})
		}
	}
}

// TestLazyExpiryClock: the expiry clock is read only by an operation that has
// met an entry with a deadline, and then once.
func TestLazyExpiryClock(t *testing.T) {
	var calls atomic.Int64
	s := NewStore(Config{Slots: 256, Now: func() int64 { calls.Add(1); return 1_000 }})
	for i := 0; i < 40; i++ {
		mustPut(t, s, fmt.Sprintf("plain-%02d", i), "v")
	}
	ops := map[string]func(){
		"Get hit":     func() { checkGet(t, s, "plain-07", "v", true) },
		"Get miss":    func() { checkGet(t, s, "nobody", "", false) },
		"Delete hit":  func() { s.Delete(bg, []byte("plain-01")) },
		"Delete miss": func() { s.Delete(bg, []byte("nobody")) },
		"Scan":        func() { s.Scan(bg, 0, 1000) },
		"ExpireRange": func() { s.ExpireRange(0, s.Slots()) },
	}
	for name, op := range ops {
		calls.Store(0)
		if op(); calls.Load() != 0 {
			t.Errorf("%s read the clock %d times on a store with no deadlines, want 0", name, calls.Load())
		}
	}
	for i := 0; i < 5; i++ { // several deadlines per scan: still one reading
		if err := s.Put(bg, []byte(fmt.Sprintf("ttl-%d", i)), []byte("v"), 1<<40); err != nil {
			t.Fatal(err)
		}
	}
	ops["Get hit"] = func() { checkGet(t, s, "ttl-3", "v", true) }
	ops["Delete hit"] = func() { s.Delete(bg, []byte("ttl-4")) }
	for name, op := range ops {
		calls.Store(0)
		if op(); calls.Load() > 1 {
			t.Errorf("%s read the clock %d times, want at most 1", name, calls.Load())
		}
	}
	for _, name := range []string{"Get hit", "Scan", "ExpireRange"} {
		calls.Store(0)
		if ops[name](); calls.Load() != 1 {
			t.Errorf("%s met a deadline and read the clock %d times, want 1", name, calls.Load())
		}
	}
}

// FuzzEntryCodec: any key and value fillEntry stages read back, through the
// header and body loads Scan and Snapshot use, as the same bytes with the same
// lengths, and the words they were packed into are zero past the last byte.
func FuzzEntryCodec(f *testing.F) {
	s := NewStore(Config{Slots: 64, MaxKeyBytes: 8 * (scratchWords + 8), MaxValueBytes: 8 * (scratchWords + 8)})
	f.Fuzz(func(t *testing.T, key, val []byte) {
		if s.validateKey(key) != nil || len(val) > s.cfg.MaxValueBytes {
			t.Skip()
		}
		const deadline, seq = 0x1122334455667788, 0x99aabbccddeeff00
		k := packKey(key, nil)
		s.withThread(func(th *htm.Thread) {
			e := fillEntry(th, k, val, deadline, seq)
			defer th.Free(e)
			th.Atomic(func(tx *htm.Txn) {
				var r pageReader
				var hdr [hdrSeq + 1]uint64
				tx.LoadWords(e+entryLens, hdr[:])
				klen, vlen := splitLens(hdr[hdrLens])
				if klen != len(key) || vlen != len(val) || hdr[hdrExpiry] != deadline || hdr[hdrSeq] != seq {
					t.Fatalf("header reads klen=%d vlen=%d expiry=%x seq=%x, staged %d/%d/%x/%x",
						klen, vlen, hdr[hdrExpiry], hdr[hdrSeq], len(key), len(val), uint64(deadline), uint64(seq))
				}
				gotK, gotV := r.pair(tx, e, hdr[hdrLens], 1)
				if !bytes.Equal(gotK, key) || !bytes.Equal(gotV, val) {
					t.Fatalf("read back %x=%x, staged %x=%x", gotK, gotV, key, val)
				}
				if lens, expiry, eq := loadKeyEq(tx, e, k, true); !eq || lens != hdr[hdrLens] || expiry != deadline {
					t.Fatalf("the staged entry does not compare equal to its own key %x", key)
				}
				// Padding: re-encoding the decoded bytes gives the stored words.
				kw, vw := wordsFor(klen), wordsFor(vlen)
				stored, want := make([]uint64, kw+vw), make([]uint64, kw+vw)
				tx.LoadWords(e+entryHdrWords, stored)
				packBytes(want[:kw], key)
				packBytes(want[kw:], val)
				for i := range stored {
					if stored[i] != want[i] {
						t.Fatalf("body word %d of %d+%d holds %016x, want %016x (padding must be zero)", i, kw, vw, stored[i], want[i])
					}
				}
				for _, tail := range []struct{ n, w int }{{klen, kw - 1}, {vlen, kw + vw - 1}} {
					if rem := tail.n % 8; rem != 0 && stored[tail.w]>>(8*rem) != 0 {
						t.Fatalf("tail word %016x has bytes past its %d", stored[tail.w], rem)
					}
				}
			})
		})
	})
}

// BenchmarkNewStore measures building a default Store: its heap, the pages
// its index and directory are carved into, and the pool of execution
// contexts. Go's B/op does not see the heap's pages, which the kernel backs
// outside the Go heap.
func BenchmarkNewStore(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		NewStore(Config{})
	}
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

// BenchmarkStoreScan is the same for Scan alone: 32-pair pages from cursors
// all over the storeMix table.
//
//	go test -run '^$' -bench StoreScan -cpuprofile /tmp/cpu.out ./kv
func BenchmarkStoreScan(b *testing.B) {
	m := newStoreMix(b)
	r := rand.New(rand.NewSource(1))
	cursors := make([]uint64, 1<<10)
	for i := range cursors {
		cursors[i] = uint64(r.Intn(int(m.s.Slots())))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.s.Scan(bg, cursors[i%len(cursors)], 32); err != nil {
			b.Fatal(err)
		}
	}
}
