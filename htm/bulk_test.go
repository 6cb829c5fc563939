package htm

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// Tests for the bulk kernels: Txn.LoadWords, Txn.LoadStrided, Txn.StoreWords
// and Heap.LoadWordsNT, whose whole specifications are "the Load loop", "the
// Load loop", "the Store loop" and "the LoadNT loop"; Thread.AllocInit, whose
// whole specification is "Alloc, born holding an image"; and the lazily built
// write-set index the store kernel leans on.

// rangeReader reads len(dst) words inside tx, the i-th at a+i*stride: once as
// the definition, once as a kernel.
type rangeReader func(tx *Txn, a Addr, stride int, dst []uint64)

func loadLoop(tx *Txn, a Addr, stride int, dst []uint64) {
	for i := range dst {
		dst[i] = tx.Load(a + Addr(i*stride))
	}
}

func loadWords(tx *Txn, a Addr, _ int, dst []uint64) { tx.LoadWords(a, dst) }

func loadStrided(tx *Txn, a Addr, stride int, dst []uint64) { tx.LoadStrided(a, stride, dst) }

// walk is a reader bound to a stride, and what a scenario needs to lay its
// blocks out for it: a walk of n elements spans n*|stride| words and starts at
// its block's first word going up, at its block's last element going down.
type walk struct {
	stride int
	read   rangeReader
}

func (w walk) load(tx *Txn, a Addr, dst []uint64) { w.read(tx, a, w.stride, dst) }

// span is the size of a block that holds an n-element walk.
func (w walk) span(n int) int { return n * max(w.stride, -w.stride) }

// from is where an n-element walk over the block at blk starts.
func (w walk) from(blk Addr, n int) Addr {
	if w.stride < 0 {
		return w.at(blk, 1-n)
	}
	return blk
}

// at is the address of element i of the walk that starts at a.
func (w walk) at(a Addr, i int) Addr { return a + Addr(i*w.stride) }

// first is the first element of the n-element walk from a that ok accepts.
func (w walk) first(a Addr, n int, ok func(Addr) bool) Addr {
	for i := 0; i < n; i++ {
		if ok(w.at(a, i)) {
			return w.at(a, i)
		}
	}
	return NilAddr
}

// lwResult is everything one attempt lets a caller observe about a range
// read: the values (the prefix filled before an abort included), the read set
// entry for entry as the range left it, its distinct size, and the abort.
type lwResult struct {
	vals     []uint64
	reads    []readEntry
	distinct int
	code     AbortCode
	addr     Addr
}

// lwAttempt runs one TryAtomic on th: before (optional) sets the scene from
// inside the attempt, then w reads n elements from a.
func lwAttempt(th *Thread, w walk, a Addr, n int, before func(tx *Txn)) lwResult {
	res := lwResult{vals: make([]uint64, n), distinct: -1}
	err := th.TryAtomic(func(tx *Txn) {
		if before != nil {
			before(tx)
		}
		w.load(tx, a, res.vals)
		res.reads = append([]readEntry(nil), tx.reads...)
		res.distinct = tx.ReadSetSize()
	})
	var ab *AbortError
	if errors.As(err, &ab) {
		res.code, res.addr = ab.Code, ab.Addr
	}
	return res
}

// lwBlock allocates an n-word block holding base+1, base+2, … so that a
// shifted, dropped or repeated word shows in the values.
func lwBlock(th *Thread, n int, base uint64) Addr {
	img := make([]uint64, n)
	for i := range img {
		img[i] = base + uint64(i) + 1
	}
	return th.AllocInit(img)
}

// lwVal is what lwBlock(th, n, base) put at a, a word of the block at blk.
func lwVal(blk Addr, base uint64, a Addr) uint64 { return base + uint64(a-blk) + 1 }

// lwScenario is one case of the Load-loop parity tests: the configuration it
// needs on top of the geometry, the abort it expects, and a body that builds
// its heap and reads through w.
type lwScenario struct {
	name     string
	cfg      Config
	want     AbortCode // 0: the attempt commits
	downward bool      // only for negative strides
	run      func(t *testing.T, h *Heap, w walk) lwResult
}

// lwScenarios is the scenario table both bulk reads are held to, written for
// any stride; at stride 1 it is the contiguous range LoadWords reads.
func lwScenarios() []lwScenario {
	scenarios := []lwScenario{
		{name: "plain range", run: func(t *testing.T, h *Heap, w walk) lwResult {
			th := h.NewThread()
			blk := lwBlock(th, w.span(24), 100)
			a := w.from(blk, 24)
			res := lwAttempt(th, w, a, 24, nil)
			for i, v := range res.vals {
				if v != lwVal(blk, 100, w.at(a, i)) {
					t.Errorf("element %d = %d, want %d", i, v, lwVal(blk, 100, w.at(a, i)))
				}
			}
			if res.distinct != 24 {
				t.Errorf("%d distinct entries, want 24", res.distinct)
			}
			return res
		}},
		{name: "empty range", run: func(t *testing.T, h *Heap, w walk) lwResult {
			th := h.NewThread()
			return lwAttempt(th, w, lwBlock(th, 4, 0), 0, nil)
		}},
		{name: "range over own earlier store", run: func(t *testing.T, h *Heap, w walk) lwResult {
			th := h.NewThread()
			blk := lwBlock(th, w.span(16), 0)
			a := w.from(blk, 16)
			res := lwAttempt(th, w, a, 16, func(tx *Txn) { tx.Store(w.at(a, 3), 99) })
			if res.vals[3] != 99 || res.vals[4] != lwVal(blk, 0, w.at(a, 4)) {
				t.Errorf("read-own-write: got %v", res.vals)
			}
			return res
		}},
		{name: "dead word mid-range", want: AbortIllegal, run: func(t *testing.T, h *Heap, w walk) lwResult {
			th := h.NewThread()
			var x, y Addr
			if w.stride > 0 {
				x, y = lwBlock(th, w.span(8), 0), lwBlock(th, w.span(8), 50)
			} else { // a walk down runs off x into the block below it
				y, x = lwBlock(th, w.span(8), 50), lwBlock(th, w.span(8), 0)
			}
			th.Free(y)
			a := w.from(x, 8)
			res := lwAttempt(th, w, a, 20, nil) // runs off x into y's dead words
			// The abort is at an element past x's last one and not past y's.
			past, yEnd := w.at(a, 8), w.at(w.from(y, 8), 7)
			if w.first(past, (int(yEnd)-int(past))/w.stride+1, func(e Addr) bool { return e == res.addr }) == NilAddr ||
				res.vals[7] != lwVal(x, 0, w.at(a, 7)) {
				t.Errorf("abort at %#x (x=%#x, freed y=%#x), values %v", uint32(res.addr), uint32(x), uint32(y), res.vals)
			}
			if h.stripeShift == 0 && res.addr != past {
				t.Errorf("abort at %#x, want the first element past x, %#x", uint32(res.addr), uint32(past))
			}
			return res
		}},
		{name: "range starting in a freed block", want: AbortIllegal, run: func(t *testing.T, h *Heap, w walk) lwResult {
			th := h.NewThread()
			blk := lwBlock(th, w.span(8), 0)
			th.Free(blk)
			a := w.from(blk, 8)
			res := lwAttempt(th, w, a, 8, nil)
			if res.addr != a {
				t.Errorf("abort at %#x, want %#x", uint32(res.addr), uint32(a))
			}
			return res
		}},
		{name: "range leaving the arena", want: AbortIllegal, run: func(t *testing.T, h *Heap, w walk) lwResult {
			// The arena's last two words, made live by hand so the range is
			// stopped by the bound itself and not by a dead word before it. A
			// walk down starts past the end.
			end := Addr(len(h.words))
			h.meta[h.mi(end-2)].Store(makeMeta(0, true))
			h.meta[h.mi(end-1)].Store(makeMeta(0, true))
			a := end - 2
			if w.stride < 0 {
				a = w.at(end-1, -1)
			}
			res := lwAttempt(h.NewThread(), w, a, 8, nil)
			if want := w.first(a, 8, func(e Addr) bool { return e >= end }); res.addr != want {
				t.Errorf("abort at %#x, want the first element past the arena, %#x", uint32(res.addr), uint32(want))
			}
			return res
		}},
		{name: "nil address", want: AbortIllegal, run: func(t *testing.T, h *Heap, w walk) lwResult {
			return lwAttempt(h.NewThread(), w, NilAddr, 4, nil)
		}},
		{name: "word held by a parked committer", want: AbortConflict, run: func(t *testing.T, h *Heap, w walk) lwResult {
			th := h.NewThread()
			a := w.from(lwBlock(th, w.span(16), 0), 16)
			// What a committer descheduled between acquiring element 5 and
			// releasing it leaves behind: the lock bit, nothing else changed.
			mi := h.mi(w.at(a, 5))
			held := h.meta[mi].Load()
			h.meta[mi].Store(held | metaLockBit)
			res := lwAttempt(th, w, a, 16, nil)
			h.meta[mi].Store(held)
			if want := w.first(a, 16, func(e Addr) bool { return h.mi(e) == mi }); res.addr != want {
				t.Errorf("abort at %#x, want the first element under the held lock, %#x", uint32(res.addr), uint32(want))
			}
			return res
		}},
		{name: "newer word, extension succeeds", run: func(t *testing.T, h *Heap, w walk) lwResult {
			th, writer := h.NewThread(), h.NewThread()
			x, blk := lwBlock(th, 1, 0), lwBlock(th, w.span(16), 0)
			a := w.from(blk, 16)
			res := lwAttempt(th, w, a, 16, func(tx *Txn) {
				tx.Load(x) // something for the extension to revalidate
				writer.Atomic(func(wx *Txn) { wx.Store(w.at(a, 7), 777) })
			})
			if res.vals[7] != 777 || res.vals[8] != lwVal(blk, 0, w.at(a, 8)) {
				t.Errorf("after extension: %v", res.vals)
			}
			return res
		}},
		{name: "newer word, extension aborts", want: AbortConflict, run: func(t *testing.T, h *Heap, w walk) lwResult {
			th, writer := h.NewThread(), h.NewThread()
			x, blk := lwBlock(th, 1, 0), lwBlock(th, w.span(16), 0)
			a := w.from(blk, 16)
			res := lwAttempt(th, w, a, 16, func(tx *Txn) {
				tx.Load(x)
				writer.Atomic(func(wx *Txn) { wx.Store(x, 1); wx.Store(w.at(a, 7), 777) })
			})
			cut := 7 // the first element under element 7's metadata word
			for cut > 0 && h.mi(w.at(a, cut-1)) == h.mi(w.at(a, 7)) {
				cut--
			}
			if res.addr != NilAddr || res.vals[cut-1] != lwVal(blk, 0, w.at(a, cut-1)) || res.vals[cut] != 0 {
				t.Errorf("abort at %#x, values %v", uint32(res.addr), res.vals)
			}
			return res
		}},
		{name: "dedup engages mid-range", cfg: Config{MaxReadSet: 16}, run: func(t *testing.T, h *Heap, w walk) lwResult {
			th := h.NewThread()
			a := w.from(lwBlock(th, w.span(12), 0), 12)
			res := lwAttempt(th, w, a, 12, func(tx *Txn) {
				for i := 0; i < 4; i++ { // duplicates for the compaction to drop
					tx.Load(w.at(a, i))
				}
			})
			if res.distinct != 12 || h.Stats().DedupEngages != 1 {
				t.Errorf("%d distinct entries, %d dedup engages", res.distinct, h.Stats().DedupEngages)
			}
			return res
		}},
		{name: "range after dedup engaged", run: func(t *testing.T, h *Heap, w walk) lwResult {
			th := h.NewThread()
			a := w.from(lwBlock(th, w.span(8), 0), 8)
			res := lwAttempt(th, w, a, 8, func(tx *Txn) {
				tx.Load(w.at(a, 2))
				tx.ReadSetSize() // engages the filter: element 2 must not be recorded twice
			})
			if res.distinct != 8 || len(res.reads) != 8 {
				t.Errorf("%d distinct of %d entries, want 8 of 8", res.distinct, len(res.reads))
			}
			return res
		}},
		{name: "capacity abort mid-range", cfg: Config{MaxReadSet: 16}, want: AbortCapacity, run: func(t *testing.T, h *Heap, w walk) lwResult {
			th := h.NewThread()
			blk := lwBlock(th, w.span(32), 0)
			a := w.from(blk, 32)
			res := lwAttempt(th, w, a, 32, nil)
			if res.addr != w.at(a, 16) || res.vals[15] != lwVal(blk, 0, w.at(a, 15)) || res.vals[16] != 0 {
				t.Errorf("abort at %#x (a=%#x), values %v", uint32(res.addr), uint32(a), res.vals)
			}
			return res
		}},
		{name: "fault plan, every 5th access", cfg: Config{Faults: &FaultPlan{Seed: 1, AccessProb: 1, AccessEvery: 5, MaxPerOp: 3}},
			run: func(t *testing.T, h *Heap, w walk) lwResult {
				th := h.NewThread()
				a := w.from(lwBlock(th, w.span(16), 0), 16)
				var res lwResult
				th.Atomic(func(tx *Txn) { // three attempts die at their 5th access, the fourth commits
					res = lwResult{vals: make([]uint64, 16)}
					w.load(tx, a, res.vals)
					res.reads = append([]readEntry(nil), tx.reads...)
					res.distinct = tx.ReadSetSize()
				})
				if s := h.Stats(); s.SpuriousAborts() != 3 || s.Starts != 4 {
					t.Errorf("%d spurious aborts over %d starts, want 3 over 4", s.SpuriousAborts(), s.Starts)
				}
				return res
			}},
		{name: "fault plan, seeded access draws", cfg: Config{Faults: &FaultPlan{Seed: 7, AccessProb: 0.05}},
			run: func(t *testing.T, h *Heap, w walk) lwResult {
				th := h.NewThread()
				a := w.from(lwBlock(th, w.span(16), 0), 16)
				var res lwResult
				for op := 0; op < 64; op++ { // the plan's generator must be drawn from once per word
					th.Atomic(func(tx *Txn) {
						res = lwResult{vals: make([]uint64, 16)}
						w.load(tx, a, res.vals)
						res.distinct = tx.ReadSetSize()
					})
				}
				if h.Stats().SpuriousAborts() == 0 {
					t.Error("plan never fired: the scenario tests nothing")
				}
				return res
			}},
	}
	for _, global := range []bool{false, true} {
		name := "fine-grained fallback"
		if global {
			name = "global fallback"
		}
		scenarios = append(scenarios, lwScenario{name: name,
			cfg: Config{EnableTLE: true, GlobalFallback: global, StoreBufferSize: 2, MaxRetries: 1},
			run: func(t *testing.T, h *Heap, w walk) lwResult {
				th := h.NewThread()
				blk := lwBlock(th, w.span(16), 0)
				a := w.from(blk, 16)
				res := lwResult{vals: make([]uint64, 32)}
				th.Atomic(func(tx *Txn) { // three stores overflow the buffer: the op ends on the fallback
					w.load(tx, a, res.vals[:16]) // write set empty: locks (fine) or NT reads (global)
					for i := 0; i < 3; i++ {
						tx.Store(w.at(a, 2*i), 1000+uint64(i))
					}
					w.load(tx, a, res.vals[16:]) // over its own buffered stores
					res.distinct = tx.ReadSetSize()
				})
				if s := h.Stats(); s.FallbackRuns != 1 || res.vals[4] != lwVal(blk, 0, w.at(a, 4)) || res.vals[20] != 1002 || res.vals[21] != lwVal(blk, 0, w.at(a, 5)) {
					t.Errorf("fallback runs %d, values %v", s.FallbackRuns, res.vals)
				}
				requireQuiescent(t, h)
				return res
			}})
	}
	return scenarios
}

// stridedScenarios are the cases only a strided walk reaches.
func stridedScenarios() []lwScenario {
	return []lwScenario{
		{name: "walk into the nil address", want: AbortIllegal, downward: true, run: func(t *testing.T, h *Heap, w walk) lwResult {
			// Words 0 … 2|stride| made live by hand, word 0's metadata
			// included, so that only the nil check stops the walk at 0.
			for i := 0; i <= w.span(2); i++ {
				h.meta[h.mi(Addr(i))].Store(makeMeta(0, true))
			}
			res := lwAttempt(h.NewThread(), w, w.from(NilAddr, 3), 3, nil)
			if res.addr != NilAddr {
				t.Errorf("abort at %#x, want the nil address", uint32(res.addr))
			}
			return res
		}},
		{name: "walk below the arena", want: AbortIllegal, downward: true, run: func(t *testing.T, h *Heap, w walk) lwResult {
			// Word 1, made live by hand: the walk's next element is below word
			// 0, an address that wraps past the end of the arena.
			h.meta[h.mi(1)].Store(makeMeta(0, true))
			res := lwAttempt(h.NewThread(), w, 1, 2, nil)
			if want := w.at(1, 1); res.addr != want || int(want) < len(h.words) {
				t.Errorf("abort at %#x, want %#x, past the arena", uint32(res.addr), uint32(want))
			}
			return res
		}},
		{name: "two live blocks around a freed one", run: func(t *testing.T, h *Heap, w walk) lwResult {
			// One element in each live block: the stride hops the freed
			// block, and each element carries its own block's metadata.
			th := h.NewThread()
			x, z, y := lwBlock(th, 4, 0), lwBlock(th, 4, 50), lwBlock(th, 4, 100)
			th.Free(z)
			hop := walk{stride: int(y - x), read: w.read}
			a := x + 1
			if w.stride < 0 {
				hop.stride, a = -hop.stride, y+1
			}
			res := lwAttempt(th, hop, a, 2, nil)
			want := []uint64{2, 102}
			if w.stride < 0 {
				want = []uint64{102, 2}
			}
			if !reflect.DeepEqual(res.vals, want) || res.distinct != 2 {
				t.Errorf("values %v with %d distinct entries, want %v with 2", res.vals, res.distinct, want)
			}
			return res
		}},
		{name: "fast prefix cut by dedupAfter", cfg: Config{MaxReadSet: 64}, run: func(t *testing.T, h *Heap, w walk) lwResult {
			// dedupAfter is 32: 8 repeats, then a 48-element walk whose first
			// 24 elements fit the bypass prefix and whose rest take Load.
			th := h.NewThread()
			blk := lwBlock(th, w.span(48), 0)
			a := w.from(blk, 48)
			res := lwAttempt(th, w, a, 48, func(tx *Txn) { w.load(tx, a, make([]uint64, 8)) })
			if res.distinct != 48 || len(res.reads) != 48 || res.vals[47] != lwVal(blk, 0, w.at(a, 47)) {
				t.Errorf("%d distinct, %d entries, last value %d", res.distinct, len(res.reads), res.vals[47])
			}
			return res
		}},
	}
}

// testLoadParity runs every scenario twice per geometry on identically built
// heaps — the body reading once with the Load loop, once with kernel, both at
// stride — and requires the two runs to be indistinguishable: values, read
// set, abort code and address, and every heap counter. Each scenario also
// names the outcome it expects, so two runs that agree on the wrong thing
// still fail. All scenarios run at the default geometry and with a sharded
// clock over striped metadata.
func testLoadParity(t *testing.T, kernel rangeReader, stride int, scenarios []lwScenario) {
	for _, geo := range []Config{{}, {ClockShards: 4, StripeShift: 2}} {
		for _, sc := range scenarios {
			if sc.downward && stride > 0 {
				continue
			}
			cfg := sc.cfg
			cfg.Words, cfg.ClockShards, cfg.StripeShift = 1<<12, geo.ClockShards, geo.StripeShift
			t.Run(fmt.Sprintf("shards=%d,shift=%d/%s", geo.ClockShards, geo.StripeShift, sc.name), func(t *testing.T) {
				hLoop, hBulk := NewHeap(cfg), NewHeap(cfg)
				want, got := sc.run(t, hLoop, walk{stride, loadLoop}), sc.run(t, hBulk, walk{stride, kernel})
				if want.code != sc.want {
					t.Errorf("Load loop ended with %v, scenario expects %v", want.code, sc.want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("kernel diverged from the Load loop:\n  loop   %+v\n  kernel %+v", want, got)
				}
				if sl, sb := hLoop.Stats(), hBulk.Stats(); !reflect.DeepEqual(sb, sl) {
					t.Errorf("heap counters diverged:\n  loop   %v\n  kernel %v", sl, sb)
				}
			})
		}
	}
}

// TestLoadWordsIsTheLoadLoop holds LoadWords to the Load loop over contiguous
// ranges.
func TestLoadWordsIsTheLoadLoop(t *testing.T) {
	testLoadParity(t, loadWords, 1, lwScenarios())
}

// TestLoadStridedIsTheLoadLoop holds LoadStrided to the Load loop at strides
// down and up, with and without slack between the words it reads, over the
// same table plus the cases only a stride reaches.
func TestLoadStridedIsTheLoadLoop(t *testing.T) {
	for _, stride := range []int{-2, 2, 3} {
		t.Run(fmt.Sprintf("stride=%d", stride), func(t *testing.T) {
			testLoadParity(t, loadStrided, stride, append(lwScenarios(), stridedScenarios()...))
		})
	}
}

// TestLoadWordsPastDedupThreshold: a range that starts in bypass mode and
// crosses dedupAfter mid-way keeps the kernel for the prefix and the Load loop
// for the rest; the read set comes out as if Load had done it all.
func TestLoadWordsPastDedupThreshold(t *testing.T) {
	h := newTestHeap(t, Config{MaxReadSet: 64}) // dedupAfter 32
	th := h.NewThread()
	a := lwBlock(th, 48, 0)
	res := lwAttempt(th, walk{1, loadWords}, a, 48, func(tx *Txn) { tx.LoadWords(a, make([]uint64, 8)) })
	if res.code != 0 || res.distinct != 48 || len(res.reads) != 48 {
		t.Fatalf("code %v, %d distinct, %d entries; want a commit with 48 and 48", res.code, res.distinct, len(res.reads))
	}
	for i, v := range res.vals {
		if v != uint64(i)+1 {
			t.Fatalf("word %d = %d", i, v)
		}
	}
}

// TestStressLoadWordsAgainstPutShapedWriters is the -race leg: readers chase
// a slot to an entry block and copy it out with LoadWords while writers
// replace entries the way kv.Put does — AllocInit an image, publish it with a
// one-store transaction, free the displaced block on commit. Every block
// holds one value in all its words, so a copy that mixes two lives of a block
// is visible; the run must end with nothing locked and nothing leaked.
func TestStressLoadWordsAgainstPutShapedWriters(t *testing.T) {
	const slots, blockWords, workers = 4, 16, 6
	rounds := 3000
	if testing.Short() {
		rounds = 400
	}
	for _, cfg := range []Config{{}, {ClockShards: 4, StripeShift: 2}} {
		t.Run(fmt.Sprintf("shards=%d,shift=%d", cfg.ClockShards, cfg.StripeShift), func(t *testing.T) {
			cfg.EnableTLE = true
			h := newTestHeap(t, cfg)
			setup := h.NewThread()
			image := func(v uint64) []uint64 {
				img := make([]uint64, blockWords)
				for i := range img {
					img[i] = v
				}
				return img
			}
			table := setup.Alloc(slots)
			for i := Addr(0); i < slots; i++ {
				h.StoreNT(table+i, uint64(setup.AllocInit(image(uint64(i)))))
			}
			var wg sync.WaitGroup
			torn := make(chan [blockWords]uint64, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := h.NewThread()
					rng := uint64(w)*2654435761 + 1
					for r := 0; r < rounds; r++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						slot := table + Addr(rng%slots)
						if w%2 == 0 {
							var got [blockWords]uint64
							th.Atomic(func(tx *Txn) { tx.LoadWords(Addr(tx.Load(slot)), got[:]) })
							for _, v := range got {
								if v != got[0] {
									torn <- got
									return
								}
							}
							continue
						}
						e := th.AllocInit(image(rng))
						th.Atomic(func(tx *Txn) {
							old := Addr(tx.Load(slot))
							tx.Store(slot, uint64(e))
							tx.FreeOnCommit(old)
						})
					}
				}(w)
			}
			wg.Wait()
			select {
			case got := <-torn:
				t.Fatalf("LoadWords copied a torn block: %v", got)
			default:
			}
			for i := Addr(0); i < slots; i++ {
				setup.Free(Addr(h.LoadNT(table + i)))
			}
			setup.Free(table)
			requireQuiescent(t, h)
			if live := h.Stats().LiveWords; live != 0 {
				t.Errorf("%d words still live after freeing every block", live)
			}
		})
	}
}

// TestStressLoadStridedAgainstTransfers is LoadStrided's -race leg: readers
// sum the value words of a slot array, gathered downward by one LoadStrided
// per read-only transaction, while writers move a unit between two slots per
// transaction. Every committed state sums to zero, so a gather that mixes two
// commits shows as a non-zero sum; the run must end with nothing locked.
func TestStressLoadStridedAgainstTransfers(t *testing.T) {
	const slots, workers = 8, 4
	rounds := 100000
	if testing.Short() {
		rounds = 5000
	}
	for _, cfg := range []Config{{}, {ClockShards: 4, StripeShift: 2}} {
		t.Run(fmt.Sprintf("shards=%d,shift=%d", cfg.ClockShards, cfg.StripeShift), func(t *testing.T) {
			h := newTestHeap(t, cfg)
			arr := h.NewThread().Alloc(2 * slots)
			top := arr + 2*(slots-1)
			var wg sync.WaitGroup
			torn := make(chan [slots]uint64, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := h.NewThread()
					rng := uint64(w)*2654435761 + 1
					for r := 0; r < rounds; r++ {
						if w%2 == 0 {
							var got [slots]uint64
							th.Atomic(func(tx *Txn) { tx.LoadStrided(top, -2, got[:]) })
							var sum uint64
							for _, v := range got {
								sum += v
							}
							if sum != 0 {
								torn <- got
								return
							}
							continue
						}
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						from, to := arr+2*Addr(rng%slots), arr+2*Addr(rng/slots%slots)
						th.Atomic(func(tx *Txn) {
							tx.Store(from, tx.Load(from)-1)
							tx.Store(to, tx.Load(to)+1)
						})
					}
				}(w)
			}
			wg.Wait()
			select {
			case got := <-torn:
				t.Fatalf("LoadStrided gathered a state no transaction committed: %v", got)
			default:
			}
			requireQuiescent(t, h)
		})
	}
}

// TestAllocInit pins AllocInit as Alloc born holding its image, at the
// default geometry and sharded/striped: the payload is there for the next
// transaction and for LoadNT, the block is exactly len(image) words, the
// image is copied, the whole thing costs the one clock tick Alloc costs, and
// the allocator's books balance afterwards.
func TestAllocInit(t *testing.T) {
	for _, cfg := range []Config{{}, {ClockShards: 4, StripeShift: 2}} {
		t.Run(fmt.Sprintf("shards=%d,shift=%d", cfg.ClockShards, cfg.StripeShift), func(t *testing.T) {
			h := newTestHeap(t, cfg)
			th := h.NewThread()
			th.Free(th.Alloc(5)) // the next 5-word block is a recycled one, dirty metadata and all
			img := []uint64{11, 22, 33, 44, 55}
			ticks, home := h.ClockNow(), h.ClockShardNow(th.ClockShard())
			a := th.AllocInit(img)
			if got := h.ClockNow() - ticks; got != 1 {
				t.Errorf("AllocInit ticked the clocks %d times, want 1", got)
			}
			if got := h.ClockShardNow(th.ClockShard()) - home; got != 1 {
				t.Errorf("AllocInit ticked its home shard %d times, want 1", got)
			}
			if (a-1)&Addr(h.StripeWords()-1) != 0 {
				t.Errorf("block %#x: header not stripe-aligned", uint32(a))
			}
			img[0] = 99 // the heap holds a copy
			var got [5]uint64
			th.Atomic(func(tx *Txn) { tx.LoadWords(a, got[:]) })
			for i, want := range []uint64{11, 22, 33, 44, 55} {
				if got[i] != want || h.LoadNT(a+Addr(i)) != want {
					t.Errorf("word %d: txn read %d, LoadNT %d, want %d", i, got[i], h.LoadNT(a+Addr(i)), want)
				}
			}
			if n := th.BlockSize(a); n != len(img) {
				t.Errorf("BlockSize = %d, want %d", n, len(img))
			}
			if cfg.StripeShift == 0 { // striped blocks own their alignment slack; per-word ones end exactly
				if err := th.TryAtomic(func(tx *Txn) { tx.Load(a + 5) }); abortCodeOf(t, err) != AbortIllegal {
					t.Errorf("word past the image is live: %v", err)
				}
			}
			if s := h.Stats(); s.AllocCalls != 2 || s.LiveWords != 5 {
				t.Errorf("AllocCalls = %d, LiveWords = %d; want 2 and 5", s.AllocCalls, s.LiveWords)
			}
			requireQuiescent(t, h)
			th.Free(a)
			requireQuiescent(t, h)
		})
	}
	h := newTestHeap(t, Config{})
	defer func() {
		if recover() == nil {
			t.Error("AllocInit of an empty image did not panic")
		}
	}()
	h.NewThread().AllocInit(nil)
}

// rangeWriter writes src to the words at a inside tx: once as the definition,
// once as the kernel.
type rangeWriter func(tx *Txn, a Addr, src []uint64)

func storeLoop(tx *Txn, a Addr, src []uint64) {
	for i := range src {
		tx.Store(a+Addr(i), src[i])
	}
}

func storeWords(tx *Txn, a Addr, src []uint64) { tx.StoreWords(a, src) }

// swResult is everything one attempt lets a caller observe about a range
// write: the write set entry for entry as the range left it (recorded metadata
// included), its size, the abort, and the block's contents afterwards.
type swResult struct {
	writes []writeEntry
	size   int
	code   AbortCode
	addr   Addr
	heap   []uint64
}

// swImage returns n values base+1, base+2, … to store.
func swImage(n int, base uint64) []uint64 {
	img := make([]uint64, n)
	for i := range img {
		img[i] = base + uint64(i) + 1
	}
	return img
}

// swAttempt runs one TryAtomic on th — before (optional) sets the scene from
// inside the attempt, then write covers [a, a+len(src)) — and reads back the
// live words of [blk, blk+n) once the attempt is over.
func swAttempt(th *Thread, a Addr, src []uint64, write rangeWriter, before func(tx *Txn), blk Addr, n int) swResult {
	res := swResult{size: -1}
	err := th.TryAtomic(func(tx *Txn) {
		if before != nil {
			before(tx)
		}
		write(tx, a, src)
		res.writes = append([]writeEntry(nil), tx.writes...)
		res.size = tx.WriteSetSize()
	})
	var ab *AbortError
	if errors.As(err, &ab) {
		res.code, res.addr = ab.Code, ab.Addr
	}
	res.heap = make([]uint64, n)
	th.Heap().LoadWordsNT(blk, res.heap)
	return res
}

// TestStoreWordsIsTheStoreLoop is TestLoadWordsIsTheLoadLoop for the store
// kernel: every scenario runs twice on identically built heaps, the body
// writing its range once with a Store loop and once with StoreWords, and the
// two runs must be indistinguishable — write set with recorded metadata, its
// size, abort code and address, committed contents, every heap counter.
func TestStoreWordsIsTheStoreLoop(t *testing.T) {
	type scenario struct {
		name string
		cfg  Config
		want AbortCode // 0: the attempt commits
		run  func(t *testing.T, h *Heap, write rangeWriter) swResult
	}
	scenarios := []scenario{
		{name: "plain range", run: func(t *testing.T, h *Heap, write rangeWriter) swResult {
			th := h.NewThread()
			a := lwBlock(th, 24, 0)
			res := swAttempt(th, a, swImage(24, 100), write, nil, a, 24)
			if res.size != 24 || res.heap[0] != 101 || res.heap[23] != 124 {
				t.Errorf("committed %v from a write set of %d", res.heap, res.size)
			}
			return res
		}},
		{name: "empty range", run: func(t *testing.T, h *Heap, write rangeWriter) swResult {
			th := h.NewThread()
			a := lwBlock(th, 4, 0)
			return swAttempt(th, a, nil, write, nil, a, 4)
		}},
		{name: "range over own earlier store", run: func(t *testing.T, h *Heap, write rangeWriter) swResult {
			th := h.NewThread()
			a := lwBlock(th, 16, 0)
			res := swAttempt(th, a, swImage(16, 100), write, func(tx *Txn) { tx.Store(a+3, 99) }, a, 16)
			// a+3 keeps its slot (the first) and takes the range's value.
			if res.size != 16 || res.writes[0].addr != a+3 || res.heap[3] != 104 || res.heap[4] != 105 {
				t.Errorf("write set %v, committed %v", res.writes, res.heap)
			}
			return res
		}},
		{name: "dead word mid-range", want: AbortIllegal, run: func(t *testing.T, h *Heap, write rangeWriter) swResult {
			th := h.NewThread()
			x, y := lwBlock(th, 8, 0), lwBlock(th, 8, 50)
			th.Free(y)
			res := swAttempt(th, x, swImage(20, 100), write, nil, x, 8) // runs off x into y's dead words
			if res.addr <= x || res.addr > y || res.heap[7] != 8 {
				t.Errorf("abort at %#x (x=%#x, freed y=%#x), x holds %v", uint32(res.addr), uint32(x), uint32(y), res.heap)
			}
			if h.stripeShift == 0 && res.addr != x+8 {
				t.Errorf("abort at %#x, want the first word past x, %#x", uint32(res.addr), uint32(x+8))
			}
			return res
		}},
		{name: "range of exactly the store buffer", run: func(t *testing.T, h *Heap, write rangeWriter) swResult {
			th := h.NewThread()
			a := lwBlock(th, 40, 0)
			res := swAttempt(th, a, swImage(RockStoreBufferSize, 100), write, nil, a, 40)
			if res.size != RockStoreBufferSize || res.heap[31] != 132 || res.heap[32] != 33 {
				t.Errorf("write set of %d, committed %v", res.size, res.heap)
			}
			return res
		}},
		{name: "range one past the store buffer", want: AbortOverflow, run: func(t *testing.T, h *Heap, write rangeWriter) swResult {
			th := h.NewThread()
			a := lwBlock(th, 40, 0)
			res := swAttempt(th, a, swImage(RockStoreBufferSize+1, 100), write, nil, a, 40)
			if res.addr != a+RockStoreBufferSize || res.heap[0] != 1 {
				t.Errorf("abort at %#x (a=%#x), block holds %v", uint32(res.addr), uint32(a), res.heap)
			}
			return res
		}},
		{name: "range leaving the arena", want: AbortIllegal, run: func(t *testing.T, h *Heap, write rangeWriter) swResult {
			end := Addr(len(h.words))
			h.meta[h.mi(end-2)].Store(makeMeta(0, true))
			h.meta[h.mi(end-1)].Store(makeMeta(0, true))
			res := swAttempt(h.NewThread(), end-2, swImage(8, 100), write, nil, end-2, 2)
			if res.addr != end {
				t.Errorf("abort at %#x, want the first address past the arena, %#x", uint32(res.addr), uint32(end))
			}
			return res
		}},
		{name: "nil address", want: AbortIllegal, run: func(t *testing.T, h *Heap, write rangeWriter) swResult {
			th := h.NewThread()
			a := lwBlock(th, 4, 0)
			return swAttempt(th, NilAddr, swImage(4, 100), write, nil, a, 4)
		}},
		{name: "word held by a parked committer", want: AbortConflict, run: func(t *testing.T, h *Heap, write rangeWriter) swResult {
			th := h.NewThread()
			a := lwBlock(th, 16, 0)
			// Store records the word as if unlocked; the holder's release bumps
			// the version, so this commit's acquisition fails there.
			mi := h.mi(a + 5)
			held := h.meta[mi].Load()
			h.meta[mi].Store(held | metaLockBit)
			var locked []writeEntry
			err := th.TryAtomic(func(tx *Txn) {
				write(tx, a, swImage(16, 100))
				locked = append(locked, tx.writes...)
				h.meta[mi].Store(makeMeta(h.tickShard(0), true))
			})
			res := swResult{writes: locked, size: len(locked), heap: make([]uint64, 16)}
			var ab *AbortError
			if errors.As(err, &ab) {
				res.code, res.addr = ab.Code, ab.Addr
			}
			h.LoadWordsNT(a, res.heap)
			if first := Addr(mi << h.stripeShift); res.addr != max(first, a) || res.heap[5] != 6 {
				t.Errorf("abort at %#x, want the first word under the held lock; block holds %v", uint32(res.addr), res.heap)
			}
			return res
		}},
		{name: "fault plan, every 5th access", cfg: Config{Faults: &FaultPlan{Seed: 1, AccessProb: 1, AccessEvery: 5, MaxPerOp: 3}},
			run: func(t *testing.T, h *Heap, write rangeWriter) swResult {
				th := h.NewThread()
				a := lwBlock(th, 16, 0)
				var res swResult
				th.Atomic(func(tx *Txn) { // three attempts die at their 5th access, the fourth commits
					write(tx, a, swImage(16, 100))
					res = swResult{writes: append([]writeEntry(nil), tx.writes...), size: tx.WriteSetSize()}
				})
				if s := h.Stats(); s.SpuriousAborts() != 3 || s.Starts != 4 {
					t.Errorf("%d spurious aborts over %d starts, want 3 over 4", s.SpuriousAborts(), s.Starts)
				}
				res.heap = make([]uint64, 16)
				h.LoadWordsNT(a, res.heap)
				return res
			}},
	}
	for _, global := range []bool{false, true} {
		name := "fine-grained fallback"
		if global {
			name = "global fallback"
		}
		scenarios = append(scenarios, scenario{name: name,
			cfg: Config{EnableTLE: true, GlobalFallback: global, StoreBufferSize: 2, MaxRetries: 1},
			run: func(t *testing.T, h *Heap, write rangeWriter) swResult {
				th := h.NewThread()
				a := lwBlock(th, 16, 0)
				var res swResult
				th.Atomic(func(tx *Txn) { // overflows at the third word: the op ends on the fallback
					write(tx, a, swImage(8, 100))
					write(tx, a+4, swImage(8, 200)) // half over its own buffered stores
					res = swResult{writes: append([]writeEntry(nil), tx.writes...), size: tx.WriteSetSize()}
				})
				res.heap = make([]uint64, 16)
				h.LoadWordsNT(a, res.heap)
				if s := h.Stats(); s.FallbackRuns != 1 || res.size != 12 || res.heap[3] != 104 || res.heap[4] != 201 || res.heap[11] != 208 || res.heap[12] != 13 {
					t.Errorf("fallback runs %d, write set of %d, committed %v", s.FallbackRuns, res.size, res.heap)
				}
				requireQuiescent(t, h)
				return res
			}})
	}

	for _, geo := range []Config{{}, {ClockShards: 4, StripeShift: 2}} {
		for _, sc := range scenarios {
			cfg := sc.cfg
			cfg.Words, cfg.ClockShards, cfg.StripeShift = 1<<12, geo.ClockShards, geo.StripeShift
			t.Run(fmt.Sprintf("shards=%d,shift=%d/%s", geo.ClockShards, geo.StripeShift, sc.name), func(t *testing.T) {
				hLoop, hBulk := NewHeap(cfg), NewHeap(cfg)
				want, got := sc.run(t, hLoop, storeLoop), sc.run(t, hBulk, storeWords)
				if want.code != sc.want {
					t.Errorf("Store loop ended with %v, scenario expects %v", want.code, sc.want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("StoreWords diverged from the Store loop:\n  loop  %+v\n  words %+v", want, got)
				}
				if sl, sb := hLoop.Stats(), hBulk.Stats(); !reflect.DeepEqual(sb, sl) {
					t.Errorf("heap counters diverged:\n  loop  %v\n  words %v", sl, sb)
				}
			})
		}
	}
}

// TestLazyWriteIndex: the write-set index is populated only by lookups, so
// every way of getting past setLinearMax — Store, StoreWords, both — must
// leave Load and Store of an own write finding the right entry: right after
// the bulk of the stores, after more stores follow a lookup (the catch-up
// resumes mid-set), in the attempt after an aborted one, and in the next
// operation on the same thread.
func TestLazyWriteIndex(t *testing.T) {
	fill := map[string]func(tx *Txn, a Addr, src []uint64){
		"Store":      storeLoop,
		"StoreWords": storeWords,
		"mixed": func(tx *Txn, a Addr, src []uint64) {
			half := len(src) / 2
			tx.StoreWords(a, src[:half])
			storeLoop(tx, a+Addr(half), src[half:])
		},
	}
	for _, n := range []int{setLinearMax + 1, 33, 100} {
		for name, write := range fill {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				h := newTestHeap(t, Config{StoreBufferSize: -1})
				th := h.NewThread()
				stale, a := lwBlock(th, n, 5000), lwBlock(th, n+4, 0)
				probe := []Addr{0, setLinearMax - 1, setLinearMax, Addr(n / 2), Addr(n - 1)}
				body := func(tx *Txn) {
					write(tx, a, swImage(n, 1000))
					for _, i := range probe {
						if got := tx.Load(a + i); got != 1001+uint64(i) {
							t.Errorf("Load of own write %d = %d, want %d", i, got, 1001+uint64(i))
						}
					}
					if got := tx.Load(a + Addr(n)); got != uint64(n)+1 {
						t.Errorf("Load of an unwritten word = %d, want %d", got, n+1)
					}
					for _, i := range probe { // overwrite in place: the set must not grow
						tx.Store(a+i, 2000+uint64(i))
					}
					tx.Store(a+Addr(n), 3000) // a new entry after lookups: indexed by the next one
					tx.Store(a+Addr(n)+1, 3001)
					if got := tx.WriteSetSize(); got != n+2 {
						t.Errorf("WriteSetSize = %d, want %d", got, n+2)
					}
					if got := tx.Load(a + Addr(n) + 1); got != 3001 {
						t.Errorf("Load of a write buffered after a lookup = %d, want 3001", got)
					}
					// The previous attempt's writes must be gone from the index.
					for _, i := range probe {
						if got := tx.Load(stale + i); got != 5001+uint64(i) {
							t.Errorf("Load of a word only the aborted attempt wrote = %d, want %d", got, 5001+uint64(i))
						}
					}
				}
				// An aborted attempt that indexed n writes to other addresses…
				err := th.TryAtomic(func(tx *Txn) {
					write(tx, stale, swImage(n, 7000))
					if got := tx.Load(stale + 1); got != 7002 {
						t.Errorf("Load of own write = %d, want 7002", got)
					}
					tx.Abort()
				})
				if abortCodeOf(t, err) != AbortExplicit {
					t.Fatalf("first attempt: %v", err)
				}
				// …then the real one, twice: the second starts from a committed
				// attempt's index state instead of an aborted one's.
				for round := 0; round < 2; round++ {
					if err := th.TryAtomic(body); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					got := make([]uint64, n+2)
					h.LoadWordsNT(a, got)
					want := append(swImage(n, 1000), 3000, 3001)
					for _, i := range probe {
						want[i] = 2000 + uint64(i)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d committed %v, want %v", round, got, want)
					}
					th.Atomic(func(tx *Txn) { tx.StoreWords(a, swImage(n+4, 0)) })
				}
			})
		}
	}
}

// TestLazyWriteIndexAtCommit: a body that reads a range, then bulk-stores it,
// never looks its write set up — so the own-lock read validation in publish is
// the index's first user, past the linear threshold, and must still recognise
// every read word as locked by this very commit.
func TestLazyWriteIndexAtCommit(t *testing.T) {
	h := newTestHeap(t, Config{})
	th := h.NewThread()
	const n = RockStoreBufferSize
	a := lwBlock(th, n, 0)
	var vals [n]uint64
	err := th.TryAtomic(func(tx *Txn) {
		tx.LoadWords(a, vals[:])
		for i := range vals {
			vals[i] *= 2
		}
		tx.StoreWords(a, vals[:])
		if tx.windexed != 0 {
			t.Errorf("%d write entries indexed before anything looked one up", tx.windexed)
		}
	})
	if err != nil {
		t.Fatalf("read-then-written range failed to commit: %v", err)
	}
	if got := th.txn.windexed; got != n {
		t.Errorf("commit validation indexed %d of %d write entries", got, n)
	}
	h.LoadWordsNT(a, vals[:])
	if vals[0] != 2 || vals[n-1] != 2*n {
		t.Errorf("committed %v", vals)
	}
	if s := h.Stats(); s.Commits != 1 || s.Aborts[AbortConflict] != 0 {
		t.Errorf("commits %d, conflict aborts %d", s.Commits, s.Aborts[AbortConflict])
	}
}

// ntLoop and ntWords read a range non-transactionally: the definition and the
// kernel.
func ntLoop(h *Heap, a Addr, dst []uint64) {
	for i := range dst {
		dst[i] = h.LoadNT(a + Addr(i))
	}
}

func ntWords(h *Heap, a Addr, dst []uint64) { h.LoadWordsNT(a, dst) }

// ntRead runs read and returns what it filled in plus the panic it died of.
func ntRead(h *Heap, a Addr, n int, read func(h *Heap, a Addr, dst []uint64)) (vals []uint64, fault any) {
	vals = make([]uint64, n)
	defer func() { fault = recover() }()
	read(h, a, vals)
	return vals, nil
}

// TestLoadWordsNTIsTheLoadNTLoop: same values, same simulated segmentation
// fault at the same word with the same prefix filled in, and the same patience
// with a word a committer holds locked — at both geometries and with the
// per-access yield model on.
func TestLoadWordsNTIsTheLoadNTLoop(t *testing.T) {
	for _, cfg := range []Config{{}, {ClockShards: 4, StripeShift: 2}, {YieldEvery: 3}} {
		t.Run(fmt.Sprintf("shards=%d,shift=%d,yield=%d", cfg.ClockShards, cfg.StripeShift, cfg.YieldEvery), func(t *testing.T) {
			h := newTestHeap(t, cfg)
			th := h.NewThread()
			x, y := lwBlock(th, 24, 0), lwBlock(th, 8, 50)

			want, _ := ntRead(h, x, 24, ntLoop)
			got, fault := ntRead(h, x, 24, ntWords)
			if fault != nil || !reflect.DeepEqual(got, want) || got[23] != 24 {
				t.Errorf("plain range: LoadWordsNT %v (panic %v), LoadNT loop %v", got, fault, want)
			}
			if got, fault := ntRead(h, NilAddr, 0, ntWords); fault != nil || len(got) != 0 {
				t.Errorf("empty range at the nil address: %v, panic %v", got, fault)
			}

			// A committer parked between acquiring x+5 and releasing it: the
			// reader must wait the lock out and return what the release
			// publishes, never the word as it stood under the lock.
			mi := h.mi(x + 5)
			held := h.meta[mi].Load()
			h.meta[mi].Store(held | metaLockBit)
			done := make(chan []uint64)
			go func() {
				vals, _ := ntRead(h, x, 24, ntWords)
				done <- vals
			}()
			for i := 0; i < 100; i++ {
				runtime.Gosched()
			}
			h.words[x+5].Store(606)
			h.meta[mi].Store(makeMeta(h.tickShard(0), true))
			if vals := <-done; vals[5] != 606 || vals[4] != 5 || vals[6] != 7 {
				t.Errorf("read across a held lock: %v", vals)
			}

			// Dead words mid-range and a range running off the arena.
			th.Free(y)
			end := Addr(len(h.words))
			h.meta[h.mi(end-2)].Store(makeMeta(0, true))
			h.meta[h.mi(end-1)].Store(makeMeta(0, true))
			for _, c := range []struct {
				name string
				a    Addr
				n    int
			}{{"range into a freed block", y - 4, 8}, {"range starting in a freed block", y, 4}, {"range leaving the arena", end - 2, 6}, {"nil address", NilAddr, 2}} {
				want, wantFault := ntRead(h, c.a, c.n, ntLoop)
				got, gotFault := ntRead(h, c.a, c.n, ntWords)
				if wantFault == nil {
					t.Errorf("%s: the LoadNT loop did not fault; the case tests nothing", c.name)
				}
				if gotFault != wantFault || !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\n  loop  %v panic %v\n  words %v panic %v", c.name, want, wantFault, got, gotFault)
				}
			}
		})
	}
}
