package htm

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// Tests for the two bulk kernels: Txn.LoadWords, whose whole specification is
// "the Load loop", and Thread.AllocInit, whose whole specification is "Alloc,
// born holding an image".

// rangeReader reads len(dst) words at a inside tx: once as the definition,
// once as the kernel.
type rangeReader func(tx *Txn, a Addr, dst []uint64)

func loadLoop(tx *Txn, a Addr, dst []uint64) {
	for i := range dst {
		dst[i] = tx.Load(a + Addr(i))
	}
}

func loadWords(tx *Txn, a Addr, dst []uint64) { tx.LoadWords(a, dst) }

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
// inside the attempt, then read covers [a, a+n).
func lwAttempt(th *Thread, a Addr, n int, read rangeReader, before func(tx *Txn)) lwResult {
	res := lwResult{vals: make([]uint64, n), distinct: -1}
	err := th.TryAtomic(func(tx *Txn) {
		if before != nil {
			before(tx)
		}
		read(tx, a, res.vals)
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

// TestLoadWordsIsTheLoadLoop runs every scenario twice on identically built
// heaps — the body reading its range once with a Load loop, once with
// LoadWords — and requires the two runs to be indistinguishable: values, read
// set, abort code and address, and every heap counter. Each scenario also
// names the outcome it expects, so two runs that agree on the wrong thing
// still fail. All scenarios run at the default geometry and with a sharded
// clock over striped metadata.
func TestLoadWordsIsTheLoadLoop(t *testing.T) {
	type scenario struct {
		name string
		cfg  Config
		want AbortCode // 0: the attempt commits
		run  func(t *testing.T, h *Heap, read rangeReader) lwResult
	}
	scenarios := []scenario{
		{name: "plain range", run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			th := h.NewThread()
			res := lwAttempt(th, lwBlock(th, 24, 100), 24, read, nil)
			if res.distinct != 24 || res.vals[0] != 101 || res.vals[23] != 124 {
				t.Errorf("read %v with %d distinct entries", res.vals, res.distinct)
			}
			return res
		}},
		{name: "empty range", run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			th := h.NewThread()
			return lwAttempt(th, lwBlock(th, 4, 0), 0, read, nil)
		}},
		{name: "range over own earlier store", run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			th := h.NewThread()
			a := lwBlock(th, 16, 0)
			res := lwAttempt(th, a, 16, read, func(tx *Txn) { tx.Store(a+3, 99) })
			if res.vals[3] != 99 || res.vals[4] != 5 {
				t.Errorf("read-own-write: got %v", res.vals)
			}
			return res
		}},
		{name: "dead word mid-range", want: AbortIllegal, run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			th := h.NewThread()
			x, y := lwBlock(th, 8, 0), lwBlock(th, 8, 50)
			th.Free(y)
			res := lwAttempt(th, x, 20, read, nil) // runs off x into y's dead words
			if res.addr <= x || res.addr > y || res.vals[7] != 8 {
				t.Errorf("abort at %#x (x=%#x, freed y=%#x), values %v", uint32(res.addr), uint32(x), uint32(y), res.vals)
			}
			if h.stripeShift == 0 && res.addr != x+8 {
				t.Errorf("abort at %#x, want the first word past x, %#x", uint32(res.addr), uint32(x+8))
			}
			return res
		}},
		{name: "range starting in a freed block", want: AbortIllegal, run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			th := h.NewThread()
			a := lwBlock(th, 8, 0)
			th.Free(a)
			res := lwAttempt(th, a, 8, read, nil)
			if res.addr != a {
				t.Errorf("abort at %#x, want %#x", uint32(res.addr), uint32(a))
			}
			return res
		}},
		{name: "range leaving the arena", want: AbortIllegal, run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			// The arena's last two words, made live by hand so the range is
			// stopped by the bound itself and not by a dead word before it.
			end := Addr(len(h.words))
			h.meta[h.mi(end-2)].Store(makeMeta(0, true))
			h.meta[h.mi(end-1)].Store(makeMeta(0, true))
			res := lwAttempt(h.NewThread(), end-2, 8, read, nil)
			if res.addr != end {
				t.Errorf("abort at %#x, want the first address past the arena, %#x", uint32(res.addr), uint32(end))
			}
			return res
		}},
		{name: "nil address", want: AbortIllegal, run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			return lwAttempt(h.NewThread(), NilAddr, 4, read, nil)
		}},
		{name: "word held by a parked committer", want: AbortConflict, run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			th := h.NewThread()
			a := lwBlock(th, 16, 0)
			// What a committer descheduled between acquiring a+5 and releasing
			// it leaves behind: the lock bit, nothing else changed.
			mi := h.mi(a + 5)
			held := h.meta[mi].Load()
			h.meta[mi].Store(held | metaLockBit)
			res := lwAttempt(th, a, 16, read, nil)
			h.meta[mi].Store(held)
			if first := Addr(mi << h.stripeShift); res.addr != max(first, a) {
				t.Errorf("abort at %#x, want the first word under the held lock", uint32(res.addr))
			}
			return res
		}},
		{name: "newer word, extension succeeds", run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			th, writer := h.NewThread(), h.NewThread()
			x, a := lwBlock(th, 1, 0), lwBlock(th, 16, 0)
			res := lwAttempt(th, a, 16, read, func(tx *Txn) {
				tx.Load(x) // something for the extension to revalidate
				writer.Atomic(func(wx *Txn) { wx.Store(a+7, 777) })
			})
			if res.vals[7] != 777 || res.vals[8] != 9 {
				t.Errorf("after extension: %v", res.vals)
			}
			return res
		}},
		{name: "newer word, extension aborts", want: AbortConflict, run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			th, writer := h.NewThread(), h.NewThread()
			x, a := lwBlock(th, 1, 0), lwBlock(th, 16, 0)
			res := lwAttempt(th, a, 16, read, func(tx *Txn) {
				tx.Load(x)
				writer.Atomic(func(wx *Txn) { wx.Store(x, 1); wx.Store(a+7, 777) })
			})
			if res.addr != NilAddr || res.vals[6] != 7 || res.vals[7] != 0 {
				t.Errorf("abort at %#x, values %v", uint32(res.addr), res.vals)
			}
			return res
		}},
		{name: "dedup engages mid-range", cfg: Config{MaxReadSet: 16}, run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			th := h.NewThread()
			a := lwBlock(th, 12, 0)
			res := lwAttempt(th, a, 12, read, func(tx *Txn) {
				for i := Addr(0); i < 4; i++ { // duplicates for the compaction to drop
					tx.Load(a + i)
				}
			})
			if res.distinct != 12 || h.Stats().DedupEngages != 1 {
				t.Errorf("%d distinct entries, %d dedup engages", res.distinct, h.Stats().DedupEngages)
			}
			return res
		}},
		{name: "range after dedup engaged", run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			th := h.NewThread()
			a := lwBlock(th, 8, 0)
			res := lwAttempt(th, a, 8, read, func(tx *Txn) {
				tx.Load(a + 2)
				tx.ReadSetSize() // engages the filter: a+2 must not be recorded twice
			})
			if res.distinct != 8 || len(res.reads) != 8 {
				t.Errorf("%d distinct of %d entries, want 8 of 8", res.distinct, len(res.reads))
			}
			return res
		}},
		{name: "capacity abort mid-range", cfg: Config{MaxReadSet: 16}, want: AbortCapacity, run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
			th := h.NewThread()
			a := lwBlock(th, 32, 0)
			res := lwAttempt(th, a, 32, read, nil)
			if res.addr != a+16 || res.vals[15] != 16 || res.vals[16] != 0 {
				t.Errorf("abort at %#x (a=%#x), values %v", uint32(res.addr), uint32(a), res.vals)
			}
			return res
		}},
		{name: "fault plan, every 5th access", cfg: Config{Faults: &FaultPlan{Seed: 1, AccessProb: 1, AccessEvery: 5, MaxPerOp: 3}},
			run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
				th := h.NewThread()
				a := lwBlock(th, 16, 0)
				var res lwResult
				th.Atomic(func(tx *Txn) { // three attempts die at their 5th access, the fourth commits
					res = lwResult{vals: make([]uint64, 16)}
					read(tx, a, res.vals)
					res.reads = append([]readEntry(nil), tx.reads...)
					res.distinct = tx.ReadSetSize()
				})
				if s := h.Stats(); s.SpuriousAborts() != 3 || s.Starts != 4 {
					t.Errorf("%d spurious aborts over %d starts, want 3 over 4", s.SpuriousAborts(), s.Starts)
				}
				return res
			}},
		{name: "fault plan, seeded access draws", cfg: Config{Faults: &FaultPlan{Seed: 7, AccessProb: 0.05}},
			run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
				th := h.NewThread()
				a := lwBlock(th, 16, 0)
				var res lwResult
				for op := 0; op < 64; op++ { // the plan's generator must be drawn from once per word
					th.Atomic(func(tx *Txn) {
						res = lwResult{vals: make([]uint64, 16)}
						read(tx, a, res.vals)
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
		scenarios = append(scenarios, scenario{name: name,
			cfg: Config{EnableTLE: true, GlobalFallback: global, StoreBufferSize: 2, MaxRetries: 1},
			run: func(t *testing.T, h *Heap, read rangeReader) lwResult {
				th := h.NewThread()
				a := lwBlock(th, 16, 0)
				res := lwResult{vals: make([]uint64, 32)}
				th.Atomic(func(tx *Txn) { // three stores overflow the buffer: the op ends on the fallback
					read(tx, a, res.vals[:16]) // write set empty: locks (fine) or NT reads (global)
					for i := Addr(0); i < 3; i++ {
						tx.Store(a+2*i, 1000+uint64(i))
					}
					read(tx, a, res.vals[16:]) // over its own buffered stores
					res.distinct = tx.ReadSetSize()
				})
				if s := h.Stats(); s.FallbackRuns != 1 || res.vals[4] != 5 || res.vals[20] != 1002 || res.vals[21] != 6 {
					t.Errorf("fallback runs %d, values %v", s.FallbackRuns, res.vals)
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
				want, got := sc.run(t, hLoop, loadLoop), sc.run(t, hBulk, loadWords)
				if want.code != sc.want {
					t.Errorf("Load loop ended with %v, scenario expects %v", want.code, sc.want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("LoadWords diverged from the Load loop:\n  loop  %+v\n  words %+v", want, got)
				}
				if sl, sb := hLoop.Stats(), hBulk.Stats(); !reflect.DeepEqual(sb, sl) {
					t.Errorf("heap counters diverged:\n  loop  %v\n  words %v", sl, sb)
				}
			})
		}
	}
}

// TestLoadWordsPastDedupThreshold: a range that starts in bypass mode and
// crosses dedupAfter mid-way keeps the kernel for the prefix and the Load loop
// for the rest; the read set comes out as if Load had done it all.
func TestLoadWordsPastDedupThreshold(t *testing.T) {
	h := newTestHeap(t, Config{MaxReadSet: 64}) // dedupAfter 32
	th := h.NewThread()
	a := lwBlock(th, 48, 0)
	res := lwAttempt(th, a, 48, loadWords, func(tx *Txn) { tx.LoadWords(a, make([]uint64, 8)) })
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
