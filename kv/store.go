package kv

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/htm"
	"repro/kv/wal"
)

// Index slot markers. Slot words hold the payload address of the entry block;
// real payload addresses are always ≥ 2 (word 0 is reserved as NilAddr and
// every block has a one-word header before its payload), so 1 is free to mark
// tombstones — slots whose entry was deleted but which must keep linear
// probes running through them until compaction clears them.
const (
	slotEmpty     = 0
	slotTombstone = 1
)

// Directory block layout: mutable index-wide counters live in heap words so
// every operation reads and updates them transactionally — the entry count
// and the load-factor ceiling check linearize with the slot writes.
const (
	dirCount      = iota // live entries
	dirTombstones        // tombstoned slots awaiting compaction
	dirSeq               // durability sequence: ticked by every logged mutation
	dirWords
)

// Store is the transactional KV engine. It is safe for concurrent use; every
// operation runs as one heap transaction on a pooled htm.Thread.
type Store struct {
	cfg   Config
	heap  *htm.Heap
	pool  chan *htm.Thread
	table htm.Addr // index: cfg.Slots words, one per slot
	dir   htm.Addr // directory block: dirWords counters
	mask  uint64

	// Operation counters (monotonic, for /stats and tests).
	gets, puts, deletes, scans, expired, compacted atomic.Uint64

	// deadlines counts operations abandoned at their context deadline;
	// inflight is the number of pool contexts currently checked out — the
	// admission governor's saturation signal.
	deadlines atomic.Uint64
	inflight  atomic.Int64

	// Durability state (nil/zero for a purely in-memory store). wal is the
	// commit log every acknowledged mutation is framed into; dcfg the
	// defaulted Durability config; recovery what startup replay found.
	wal      *wal.Log
	dcfg     *Durability
	recovery *RecoveryInfo

	// sinceSnap counts acknowledged mutations since the last snapshot; snapMu
	// serializes Snapshot calls, manual or automatic (two interleaved ones
	// prune each other's segments); snapBusy single-flights the automatic
	// ones, so a trigger that fires mid-snapshot is absorbed, not queued;
	// snapWG lets Close wait out an in-flight one. walFails counts mutations
	// that committed in memory but failed to reach the log (ErrDurability).
	sinceSnap atomic.Uint64
	snapMu    sync.Mutex
	snapBusy  atomic.Bool
	snapWG    sync.WaitGroup
	walFails  atomic.Uint64
	snaps     atomic.Uint64
	closed    atomic.Bool
}

// NewStore builds a purely in-memory Store on a private heap per cfg. A
// config with Durability set must go through Open instead — recovery can
// fail, and NewStore has no error to return it through.
func NewStore(cfg Config) *Store {
	if cfg.Durability != nil {
		panic("kv: NewStore cannot attach durability; use kv.Open")
	}
	return newStoreCore(cfg)
}

// newStoreCore builds the heap-backed engine without any durability wiring.
func newStoreCore(cfg Config) *Store {
	cfg = cfg.withDefaults()
	h := htm.NewHeap(htm.Config{
		Words:           cfg.HeapWords,
		EnableTLE:       true,
		GlobalFallback:  cfg.GlobalFallback,
		AllowAllocInTxn: false, // entries are pre-allocated, Rock-style
		MaxRetries:      cfg.MaxRetries,
		Faults:          cfg.Faults,
	})
	s := &Store{
		cfg:  cfg,
		heap: h,
		pool: make(chan *htm.Thread, cfg.PoolThreads),
		mask: uint64(cfg.Slots - 1),
	}
	setup := h.NewThread()
	s.table = setup.Alloc(cfg.Slots)
	s.dir = setup.Alloc(dirWords)
	s.pool <- setup // the setup thread serves as the first pool context
	for i := 1; i < cfg.PoolThreads; i++ {
		s.pool <- h.NewThread()
	}
	return s
}

// Heap exposes the backing heap (stats endpoint, job pipeline, tests).
func (s *Store) Heap() *htm.Heap { return s.heap }

// Slots returns the index capacity; Scan cursors range over [0, Slots()).
func (s *Store) Slots() uint64 { return uint64(s.cfg.Slots) }

// PoolSize returns the engine's concurrency ceiling (Config.PoolThreads).
func (s *Store) PoolSize() int { return s.cfg.PoolThreads }

// withThread runs f on a pooled execution context. The pool bounds engine
// concurrency at Config.PoolThreads; the deferred put-back keeps the context
// usable even when f panics (e.g. arena exhaustion surfacing through the
// HTTP recovery middleware).
func (s *Store) withThread(f func(th *htm.Thread)) {
	th := <-s.pool
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.pool <- th
	}()
	f(th)
}

// withThreadCtx is withThread with a context gate: a request whose context is
// already done — or that expires while queued for a pool slot — is abandoned
// with ErrDeadline before it touches the engine. Internal paths (jobs,
// Len/Tombstones) keep using withThread; only the client-facing operations
// carry deadlines.
func (s *Store) withThreadCtx(ctx context.Context, f func(th *htm.Thread)) error {
	done := ctx.Done()
	if done == nil {
		s.withThread(f)
		return nil
	}
	// Check before the select: a free pool slot must not win the race against
	// an already-dead context.
	if ctx.Err() != nil {
		return s.deadlineErr(ctx)
	}
	var th *htm.Thread
	select {
	case th = <-s.pool:
	case <-done:
		return s.deadlineErr(ctx)
	}
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.pool <- th
	}()
	f(th)
	return nil
}

// stopFor converts a context into an AtomicUntil abandon hook: nil for
// never-cancellable contexts so the common Background case adds nothing to
// the retry loop.
func stopFor(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// deadlineErr records and materializes an ErrDeadline for an operation whose
// retry loop was abandoned mid-flight.
func (s *Store) deadlineErr(ctx context.Context) error {
	s.deadlines.Add(1)
	return fmt.Errorf("%w: %v", ErrDeadline, ctx.Err())
}

// InFlight returns the number of operations currently holding a pool context.
func (s *Store) InFlight() int { return int(s.inflight.Load()) }

// DeadlineHits returns the number of operations abandoned at their deadline.
func (s *Store) DeadlineHits() uint64 { return s.deadlines.Load() }

// scratchWords sizes the stack buffers the data path stages words in: a packed
// probe key, one LoadWords chunk, an entry image. It is the allocator's largest
// magazine class; anything longer takes more chunks (reads) or a heap buffer
// (images, keys), so only allocation counts depend on the value.
const scratchWords = 64

// packedKey is a key prepared once, outside the transaction, for the
// comparisons inside it: hash, length in bytes, and the bytes in entry codec.
type packedKey struct {
	hash  uint64
	n     int
	words []uint64
}

// packKey packs key into buf (the caller's stack scratch) when it fits.
func packKey(key []byte, buf []uint64) packedKey {
	n := wordsFor(len(key))
	if n > len(buf) {
		buf = make([]uint64, n)
	}
	packBytes(buf[:n], key)
	return packedKey{hash: hashKey(key), n: len(key), words: buf[:n]}
}

// Header words as a reader loads them: from entryLens on, as many as it needs.
const (
	hdrLens   = entryLens - entryLens
	hdrExpiry = entryExpiry - entryLens
	hdrSeq    = entrySeq - entryLens
)

// splitLens unpacks an entry's lens word into key and value byte lengths.
func splitLens(lens uint64) (klen, vlen int) { return int(lens >> 32), int(lens & 0xffffffff) }

// loadKeyEq reports whether the entry block at e holds k, returning the
// block's lens word and — withDeadline, in the same load — its expiry word.
// Runs inside the transaction: the words it loads join the read set, so a
// concurrent replace of this entry aborts us rather than letting the
// comparison tear. The hash is compared before the header is loaded, the
// length before any key word; a block that matches both has its key loaded
// whole — into a scratch declared only here, so a probe that ends at an empty
// slot zeroes nothing.
func loadKeyEq(t *htm.Txn, e htm.Addr, k packedKey, withDeadline bool) (lens, expiry uint64, eq bool) {
	if t.Load(e+entryHash) != k.hash {
		return 0, 0, false
	}
	if withDeadline {
		var hdr [hdrExpiry + 1]uint64
		t.LoadWords(e+entryLens, hdr[:])
		lens, expiry = hdr[hdrLens], hdr[hdrExpiry]
	} else {
		lens = t.Load(e + entryLens)
	}
	if klen, _ := splitLens(lens); klen != k.n {
		return 0, 0, false
	}
	var scratch [scratchWords]uint64
	return lens, expiry, slices.Equal(loadWords(t, e+entryHdrWords, len(k.words), scratch[:]), k.words)
}

// loadWords reads the n words at a in one LoadWords — into buf when they fit,
// into a heap buffer otherwise (fillEntry's rule, mirrored).
func loadWords(t *htm.Txn, a htm.Addr, n int, buf []uint64) []uint64 {
	if n > len(buf) {
		buf = make([]uint64, n)
	}
	t.LoadWords(a, buf[:n])
	return buf[:n]
}

// pageReader is one operation's staging for reading the index in bulk: the
// run of slots being walked, the body of the entry being decoded, and the
// arena the page's key and value bytes are carved from. Scan, Snapshot and the
// recovery sweep all read through it, so they agree on what a transaction
// loads: slots in LoadWords runs, then per entry the header words the caller
// needs and — key words and value words being adjacent — its body in one
// LoadWords.
type pageReader struct {
	slots [scratchWords]uint64
	image [scratchWords]uint64
	arena []byte
}

// arenaChunk caps one arena allocation; a page that outgrows it takes another.
const arenaChunk = 64 << 10

// walk reads the index slots [lo, hi) of table inside t and calls visit for each
// that holds an entry, in slot order, until visit has returned true want
// times; room is how many more entries the walk could still hand out. It
// returns the first slot it did not read. A run is never longer than the
// entries still wanted — it can yield at most one per slot — so a walk that
// stops early has read no slot past the last entry it took.
func (r *pageReader) walk(t *htm.Txn, table htm.Addr, lo, hi uint64, want int, visit func(e htm.Addr, room int) bool) uint64 {
	for want > 0 && lo < hi {
		run := r.slots[:min(uint64(want), hi-lo, scratchWords)]
		t.LoadWords(table+htm.Addr(lo), run)
		for _, w := range run {
			if w != slotEmpty && w != slotTombstone && visit(htm.Addr(w), int(min(uint64(want), hi-lo))) {
				want--
			}
			lo++
		}
	}
	return lo
}

// pair loads the body of the entry at e, whose lens word the caller has read,
// and decodes it into bytes carved off the arena; room sizes a fresh arena
// chunk (that many entries like this one, capped). The key's capacity is
// capped, so appending to it reallocates instead of running into the value.
func (r *pageReader) pair(t *htm.Txn, e htm.Addr, lens uint64, room int) (key, val []byte) {
	klen, vlen := splitLens(lens)
	kw := wordsFor(klen)
	body := loadWords(t, e+entryHdrWords, kw+wordsFor(vlen), r.image[:])
	n := klen + vlen
	if cap(r.arena)-len(r.arena) < n {
		r.arena = make([]byte, 0, max(n, min(n*room, arenaChunk)))
	}
	at := len(r.arena)
	r.arena = r.arena[:at+n]
	key, val = r.arena[at:at+klen:at+klen], r.arena[at+klen:at+n:at+n]
	unpackBytes(key, body[:kw])
	unpackBytes(val, body[kw:])
	return key, val
}

// foundEntry is what probe knows of the entry it found: the block's address,
// its lens word, and its expiry word when the caller asked for it.
type foundEntry struct {
	addr         htm.Addr
	lens, expiry uint64
}

// probe walks the linear-probe cluster for k inside txn t. It returns the slot
// index holding the key and the entry there (found=true), or the first
// reusable slot (tombstone, else the terminating empty slot) with found=false.
// insert=-1 means the cluster spans the whole table with no reusable slot.
// withDeadline has the found entry's expiry word loaded together with its
// lens word: Get and Delete check it, and a Put is never made to load a word it
// does not use.
func (s *Store) probe(t *htm.Txn, k packedKey, withDeadline bool) (slot uint64, entry foundEntry, found bool, insert int64) {
	insert = -1
	i := k.hash & s.mask
	for n := uint64(0); n <= s.mask; n++ {
		w := t.Load(s.table + htm.Addr(i))
		switch w {
		case slotEmpty:
			if insert < 0 {
				insert = int64(i)
			}
			return 0, foundEntry{}, false, insert
		case slotTombstone:
			if insert < 0 {
				insert = int64(i)
			}
		default:
			if lens, expiry, eq := loadKeyEq(t, htm.Addr(w), k, withDeadline); eq {
				return i, foundEntry{htm.Addr(w), lens, expiry}, true, insert
			}
		}
		i = (i + 1) & s.mask
	}
	return 0, foundEntry{}, false, insert
}

// expiryClock is one operation's reading of the expiry clock, taken the first
// time it meets an entry that has a deadline: a store with no TTL'd entries
// never pays for the clock, and an operation reads it at most once however
// many entries or retries it goes through.
type expiryClock struct {
	now  func() int64
	at   int64
	read bool
}

// expired reports whether an entry's expiry deadline (0 = never) has passed.
func (c *expiryClock) expired(deadline uint64) bool {
	if deadline == 0 {
		return false
	}
	if !c.read {
		c.at, c.read = c.now(), true
	}
	return int64(deadline) <= c.at
}

// Get returns a copy of the value stored under key. Expired entries read as
// missing (their storage is reclaimed by the background expiry job). The
// whole lookup — probe, key compare, value copy — is one transaction, so the
// returned value is an atomic snapshot of a committed Put. The context bounds
// the whole operation: pool-slot wait and transaction retries both abandon
// with ErrDeadline when it expires.
func (s *Store) Get(ctx context.Context, key []byte) (val []byte, ok bool, err error) {
	if err := s.validateKey(key); err != nil {
		return nil, false, err
	}
	var kbuf [scratchWords]uint64
	k := packKey(key, kbuf[:])
	clock := expiryClock{now: s.cfg.Now}
	s.gets.Add(1)
	var opErr error
	err = s.withThreadCtx(ctx, func(th *htm.Thread) {
		committed := th.AtomicUntil(func(t *htm.Txn) {
			val, ok = s.get(t, k, &clock)
		}, stopFor(ctx))
		if !committed {
			opErr = s.deadlineErr(ctx)
		}
	})
	if err == nil {
		err = opErr
	}
	if err != nil || !ok {
		return nil, false, err
	}
	return val, true, nil
}

// get is Get's transaction body: probe (slot, hash, then lengths and deadline
// in one load, key), then the value words in one load, decoded into a buffer
// of exactly the value's size.
func (s *Store) get(t *htm.Txn, k packedKey, clock *expiryClock) (val []byte, ok bool) {
	_, e, found, _ := s.probe(t, k, true)
	if !found || clock.expired(e.expiry) {
		return nil, false
	}
	klen, vlen := splitLens(e.lens)
	var scratch [scratchWords]uint64
	val = make([]byte, vlen)
	unpackBytes(val, loadWords(t, e.addr+htm.Addr(entryHdrWords+wordsFor(klen)), wordsFor(vlen), scratch[:]))
	return val, true
}

// Put stores val under key, replacing any existing value. ttl bounds the
// entry's lifetime (0 = no expiry). The entry block is allocated and filled
// outside the transaction — it is private until the slot write that
// publishes it commits, the same discipline as the paper's queue nodes — so
// the transaction itself writes at most three words (slot + two counters;
// five with durability, adding the sequence stamps) and fits any store
// buffer.
func (s *Store) Put(ctx context.Context, key, val []byte, ttl time.Duration) error {
	if err := s.validateKey(key); err != nil {
		return err
	}
	if len(val) > s.cfg.MaxValueBytes {
		return fmt.Errorf("%w (%d > %d bytes)", ErrValueTooLarge, len(val), s.cfg.MaxValueBytes)
	}
	var kbuf [scratchWords]uint64
	k := packKey(key, kbuf[:])
	var deadline uint64
	if ttl > 0 {
		deadline = uint64(s.cfg.Now() + int64(ttl))
	}
	s.puts.Add(1)
	durable := s.wal != nil
	var opErr error
	err := s.withThreadCtx(ctx, func(th *htm.Thread) {
		e := fillEntry(th, k, val, deadline, 0)
		var seq uint64
		committed := th.AtomicUntil(func(t *htm.Txn) {
			seq, opErr = s.publish(t, e, k, durable)
		}, stopFor(ctx))
		if !committed {
			// The aborted final attempt may have left opErr nil from its
			// sandboxed run; nothing actually landed.
			opErr = s.deadlineErr(ctx)
		}
		if opErr != nil {
			th.Free(e) // rejected or abandoned: reclaim the staged entry
			return
		}
		if durable {
			opErr = s.logMutation(func() error { return s.wal.AppendPut(seq, deadline, key, val) })
		}
	})
	if err != nil {
		return err
	}
	return opErr
}

// publish installs the staged entry block e under k inside t: a replace swaps
// the slot and frees the displaced block on commit, an insert claims the
// probe's reusable slot under the load-factor ceiling. A non-nil error
// (ErrFull) means the transaction wrote nothing and e is still the caller's.
// With logged, the store's durability sequence is ticked and stamped into e.
func (s *Store) publish(t *htm.Txn, e htm.Addr, k packedKey, logged bool) (seq uint64, err error) {
	slot, old, found, insert := s.probe(t, k, false)
	if found {
		t.Store(s.table+htm.Addr(slot), uint64(e))
		t.FreeOnCommit(old.addr)
		return s.tickSeq(t, e, logged), nil
	}
	if insert < 0 {
		return 0, ErrFull
	}
	reusing := t.Load(s.table+htm.Addr(insert)) == slotTombstone
	count := t.Load(s.dir + dirCount)
	tombs := t.Load(s.dir + dirTombstones)
	if !reusing && count+tombs >= uint64(maxEntries(s.cfg.Slots)) {
		return 0, ErrFull
	}
	t.Store(s.table+htm.Addr(insert), uint64(e))
	t.Store(s.dir+dirCount, count+1)
	if reusing {
		t.Store(s.dir+dirTombstones, tombs-1)
	}
	return s.tickSeq(t, e, logged), nil
}

// tickSeq assigns the next durability sequence number inside the publishing
// transaction, stamping it into the entry block at e (0 = no entry word to
// stamp, for deletes). Non-durable stores skip the tick: the extra shared
// word would make every pair of write transactions conflict for nothing.
func (s *Store) tickSeq(t *htm.Txn, e htm.Addr, durable bool) uint64 {
	if !durable {
		return 0
	}
	seq := t.Load(s.dir+dirSeq) + 1
	t.Store(s.dir+dirSeq, seq)
	if e != 0 {
		t.Store(e+entrySeq, seq)
	}
	return seq
}

// logMutation frames one acknowledged mutation into the commit log and
// blocks until it is durable, converting failures into ErrDurability. On
// success it advances the snapshot trigger.
func (s *Store) logMutation(appendRec func() error) error {
	if err := appendRec(); err != nil {
		s.walFails.Add(1)
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	s.noteMutation()
	return nil
}

// fillEntry stages an entry block for k/val: the whole image — header, key
// words, value words — is built in a stack buffer (entries beyond scratchWords
// borrow the heap) and handed to AllocInit, which writes it while the block is
// still unallocated. The block is exclusively the caller's until a publish
// transaction commits its address into a slot.
func fillEntry(th *htm.Thread, k packedKey, val []byte, deadline, seq uint64) htm.Addr {
	var buf [scratchWords]uint64
	img := buf[:]
	if n := entryWords(k.n, len(val)); n <= len(img) {
		img = img[:n]
	} else {
		img = make([]uint64, n)
	}
	img[entryHash] = k.hash
	img[entryLens] = uint64(k.n)<<32 | uint64(len(val))
	img[entryExpiry] = deadline
	img[entrySeq] = seq
	copy(img[entryHdrWords:], k.words)
	packBytes(img[entryHdrWords+len(k.words):], val)
	return th.AllocInit(img)
}

// Delete removes key, returning whether it was present (and unexpired). The
// slot becomes a tombstone — probes must keep running through it — and the
// entry block is freed the instant the transaction commits; the background
// compaction job later reclaims the slot itself.
func (s *Store) Delete(ctx context.Context, key []byte) (bool, error) {
	if err := s.validateKey(key); err != nil {
		return false, err
	}
	var kbuf [scratchWords]uint64
	k := packKey(key, kbuf[:])
	clock := expiryClock{now: s.cfg.Now}
	s.deletes.Add(1)
	durable := s.wal != nil
	var existed bool
	var opErr error
	err := s.withThreadCtx(ctx, func(th *htm.Thread) {
		mutated := false
		var seq uint64
		committed := th.AtomicUntil(func(t *htm.Txn) {
			existed, mutated = false, false
			slot, e, found, _ := s.probe(t, k, true)
			if !found {
				return
			}
			existed = !clock.expired(e.expiry)
			t.Store(s.table+htm.Addr(slot), slotTombstone)
			t.Store(s.dir+dirCount, t.Load(s.dir+dirCount)-1)
			t.Store(s.dir+dirTombstones, t.Load(s.dir+dirTombstones)+1)
			t.FreeOnCommit(e.addr)
			seq = s.tickSeq(t, 0, durable)
			mutated = true
		}, stopFor(ctx))
		if !committed {
			opErr = s.deadlineErr(ctx)
			return
		}
		// The record is logged whenever the index changed — even for an
		// expired entry (existed=false): the tombstone is a state change a
		// crash must not resurrect.
		if durable && mutated {
			opErr = s.logMutation(func() error { return s.wal.AppendDelete(seq, key) })
		}
	})
	if err == nil {
		err = opErr
	}
	if err != nil {
		return false, err
	}
	return existed, nil
}

// Pair is one key/value returned by Scan.
type Pair struct {
	Key   []byte `json:"key"`
	Value []byte `json:"value"`
}

// scanSlotWindow bounds how many index slots one Scan transaction examines,
// keeping its read set well inside the heap's capacity; callers page through
// the table with the returned cursor.
const scanSlotWindow = 2048

// Scan returns up to limit live entries starting at slot index cursor, with
// the cursor to resume from. The scan is complete when next == Slots(). Each
// call is ONE transaction: the returned page is an atomic snapshot of the
// slots it covered (entries may move under concurrent writes between pages —
// the usual cursor-scan contract). A page covers at most scanSlotWindow slots,
// so it holds at most that many pairs whatever the limit.
func (s *Store) Scan(ctx context.Context, cursor uint64, limit int) (pairs []Pair, next uint64, err error) {
	if limit <= 0 {
		limit = 64
	}
	nslots := uint64(s.cfg.Slots)
	if cursor >= nslots {
		return nil, nslots, nil
	}
	end := min(cursor+scanSlotWindow, nslots)
	limit = int(min(uint64(limit), end-cursor))
	clock := expiryClock{now: s.cfg.Now}
	s.scans.Add(1)
	pairs = make([]Pair, 0, limit)
	var r pageReader
	var opErr error
	err = s.withThreadCtx(ctx, func(th *htm.Thread) {
		committed := th.AtomicUntil(func(t *htm.Txn) {
			pairs, next = s.scanPage(t, &r, pairs, cursor, end, limit, &clock)
		}, stopFor(ctx))
		if !committed {
			opErr = s.deadlineErr(ctx)
		}
	})
	if err == nil {
		err = opErr
	}
	if err != nil {
		return nil, 0, err
	}
	return pairs, next, nil
}

// scanPage is Scan's transaction body: it refills pairs (restartable) with up
// to limit unexpired entries from the slots [cursor, end) and returns the
// first slot the page does not cover.
func (s *Store) scanPage(t *htm.Txn, r *pageReader, pairs []Pair, cursor, end uint64, limit int, clock *expiryClock) ([]Pair, uint64) {
	pairs, r.arena = pairs[:0], r.arena[:0]
	next := r.walk(t, s.table, cursor, end, limit, func(e htm.Addr, room int) bool {
		// Deadline, then lengths, a word each: a lapsed entry adds its deadline
		// word to the read set and nothing else.
		if clock.expired(t.Load(e + entryExpiry)) {
			return false
		}
		k, v := r.pair(t, e, t.Load(e+entryLens), room)
		pairs = append(pairs, Pair{Key: k, Value: v})
		return true
	})
	return pairs, next
}

// Len returns the number of live entries (including not-yet-expired-swept
// TTL'd entries).
func (s *Store) Len() int {
	var n uint64
	s.withThread(func(th *htm.Thread) {
		th.Atomic(func(t *htm.Txn) {
			n = t.Load(s.dir + dirCount)
		})
	})
	return int(n)
}

// Tombstones returns the number of slots awaiting compaction (diagnostics).
func (s *Store) Tombstones() int {
	var n uint64
	s.withThread(func(th *htm.Thread) {
		th.Atomic(func(t *htm.Txn) {
			n = t.Load(s.dir + dirTombstones)
		})
	})
	return int(n)
}

// ExpireRange sweeps slots [lo, hi), tombstoning entries whose deadline has
// passed and freeing their blocks. One small transaction per expired entry
// keeps the sweep's conflict footprint to the single slot it rewrites, so a
// background sweep never stalls foreground traffic. Returns entries expired.
func (s *Store) ExpireRange(lo, hi uint64) int {
	nslots := uint64(s.cfg.Slots)
	if hi > nslots {
		hi = nslots
	}
	clock := expiryClock{now: s.cfg.Now}
	n := 0
	s.withThread(func(th *htm.Thread) {
		for i := lo; i < hi; i++ {
			removed := false
			th.Atomic(func(t *htm.Txn) {
				removed = false
				w := t.Load(s.table + htm.Addr(i))
				if w == slotEmpty || w == slotTombstone {
					return
				}
				e := htm.Addr(w)
				if !clock.expired(t.Load(e + entryExpiry)) {
					return
				}
				t.Store(s.table+htm.Addr(i), slotTombstone)
				t.Store(s.dir+dirCount, t.Load(s.dir+dirCount)-1)
				t.Store(s.dir+dirTombstones, t.Load(s.dir+dirTombstones)+1)
				t.FreeOnCommit(e)
				removed = true
			})
			if removed {
				n++
			}
		}
	})
	s.expired.Add(uint64(n))
	return n
}

// CompactRange clears tombstones in [lo, hi) that no probe sequence needs:
// a tombstone immediately followed (mod table size) by an empty slot
// terminates its cluster, so probes that would pass through it stop one slot
// earlier — it can become empty. Sweeping high-to-low lets clearings cascade
// down a tombstone run in a single pass. Each fix is one two-slot
// transaction. Returns tombstones cleared.
//
// This reclaims cluster tails only; interior tombstones are retained (they
// are still reusable by Put) — the trade for never relocating a live entry,
// which keeps every committed entry address stable for the lifetime of the
// entry, the invariant Get/Scan's entry reads rely on.
func (s *Store) CompactRange(lo, hi uint64) int {
	nslots := uint64(s.cfg.Slots)
	if hi > nslots {
		hi = nslots
	}
	n := 0
	s.withThread(func(th *htm.Thread) {
		for i := hi; i > lo; i-- {
			slot := i - 1
			cleared := false
			th.Atomic(func(t *htm.Txn) {
				cleared = false
				if t.Load(s.table+htm.Addr(slot)) != slotTombstone {
					return
				}
				nextSlot := (slot + 1) & s.mask
				if t.Load(s.table+htm.Addr(nextSlot)) != slotEmpty {
					return
				}
				t.Store(s.table+htm.Addr(slot), slotEmpty)
				t.Store(s.dir+dirTombstones, t.Load(s.dir+dirTombstones)-1)
				cleared = true
			})
			if cleared {
				n++
			}
		}
	})
	s.compacted.Add(uint64(n))
	return n
}

// Counters is a snapshot of the store's operation counters.
type Counters struct {
	Gets, Puts, Deletes, Scans uint64
	Expired, Compacted         uint64
	Deadlines                  uint64
}

// OpCounters returns a snapshot of cumulative operation counts.
func (s *Store) OpCounters() Counters {
	return Counters{
		Gets:      s.gets.Load(),
		Puts:      s.puts.Load(),
		Deletes:   s.deletes.Load(),
		Scans:     s.scans.Load(),
		Expired:   s.expired.Load(),
		Compacted: s.compacted.Load(),
		Deadlines: s.deadlines.Load(),
	}
}
