package kv

// Durability wiring: Open (recovery + log attach), the replay rule that makes
// a snapshot taken during concurrent writes exact, automatic snapshot
// triggering, and Close (clean-shutdown marker).
//
// The correctness argument, in one place:
//
// WAL records are appended AFTER their heap transaction commits, so file order
// is not commit order — two racing writers of the same key can append in
// either order. What IS totally ordered is the durability sequence number:
// every logged mutation ticks dirSeq inside its publishing transaction
// (store.go, tickSeq), so seq order == commit order, and each record carries
// its seq. Snapshots are taken as: Rotate() the log (every record that can
// ever land in a pre-rotation segment belongs to a commit that finished
// before rotation), THEN read the barrier S0 = dirSeq, then scan. The scan
// may interleave with writers; for any key it returns some committed version,
// with its seq.
//
// Replay applies a log record iff
//
//	key in snapshot/applied map ? rec.Seq > map[key] : rec.Seq > S0
//
// and every applied record (put or delete) updates map[key] = rec.Seq.
// Case 1 (key seen): the map holds the newest version applied so far; a
// record with a lower seq is an older committed version — skip. Case 2 (key
// never seen): the snapshot scan observed the key as absent at some point
// after S0 was read, so any record with seq <= S0 is superseded by that
// observed absence (the delete that caused it is in a pruned segment);
// records with seq > S0 may be the re-insertion — apply. Deletes update the
// map too, or a pruned-era put arriving later in the file would resurrect the
// key.
import (
	"errors"
	"fmt"
	"time"

	"repro/htm"
	"repro/kv/wal"
)

// RecoveryInfo summarizes what startup replay found (logged by kvserver,
// exported under /stats).
type RecoveryInfo struct {
	// Clean reports a graceful previous shutdown: the clean marker was
	// present AND its recorded sequence matches the replayed state.
	Clean bool `json:"clean"`
	// HadSnapshot/SnapshotEntries describe the snapshot that seeded replay.
	HadSnapshot     bool   `json:"had_snapshot"`
	SnapshotEntries uint64 `json:"snapshot_entries"`
	// LogRecords is how many log records were streamed, Applied how many
	// survived the replay rule (the rest were superseded versions).
	LogRecords uint64 `json:"log_records"`
	Applied    uint64 `json:"applied"`
	// TruncatedBytes/TornSegment describe a repaired torn tail.
	TruncatedBytes int64  `json:"truncated_bytes"`
	TornSegment    string `json:"torn_segment,omitempty"`
	// Segments replayed; MaxSeq is the durability sequence the store resumed
	// at; Entries the live entries after replay.
	Segments int           `json:"segments"`
	MaxSeq   uint64        `json:"max_seq"`
	Entries  int           `json:"entries"`
	Elapsed  time.Duration `json:"elapsed_ns"`
}

// Open builds a Store per cfg, recovering durable state and attaching the
// commit log when cfg.Durability is set (without it, Open is NewStore with an
// error signature). Recovery replays the newest valid snapshot then the log,
// truncating a torn tail in the final segment; anything else wrong with the
// log — mid-log corruption, a segment gap, state the index cannot hold —
// returns an error matching wal.ErrRecovery, and the store does not start.
func Open(cfg Config) (*Store, error) {
	if cfg.Durability == nil {
		return newStoreCore(cfg), nil
	}
	d := cfg.Durability.withDefaults()
	cfg.Durability = nil // core builds the engine; wiring happens here
	s := newStoreCore(cfg)
	s.dcfg = d
	start := time.Now()
	baseline := s.heap.Stats().LiveWords

	// Replay state for the sequence rule above.
	var (
		barrier uint64 // S0 from the snapshot header (0 = no snapshot)
		newest  = map[string]uint64{}
		maxSeq  uint64
		applied uint64
	)
	apply := func(rec wal.Record, src wal.Source) error {
		switch rec.Kind {
		case wal.KindSnapHeader:
			barrier = rec.Barrier
			if rec.Barrier > maxSeq {
				maxSeq = rec.Barrier
			}
			return nil
		case wal.KindPut, wal.KindDelete:
		default:
			return fmt.Errorf("unexpected record kind %d", rec.Kind)
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		k := string(rec.Key)
		if src == wal.SourceLog {
			if last, ok := newest[k]; ok {
				if rec.Seq <= last {
					return nil // superseded by an already-applied version
				}
			} else if rec.Seq <= barrier {
				return nil // superseded by the snapshot's observed absence
			}
		}
		newest[k] = rec.Seq
		applied++
		if rec.Kind == wal.KindDelete {
			s.applyDelete(rec.Key)
			return nil
		}
		return s.applyPut(rec.Key, rec.Val, rec.Expiry, rec.Seq)
	}

	res, err := wal.Recover(d.FS, d.Dir, apply)
	if err != nil {
		return nil, fmt.Errorf("kv: open %s: %w", d.Dir, err)
	}

	// Resume the durability sequence where the log left off.
	s.withThread(func(th *htm.Thread) {
		th.Atomic(func(t *htm.Txn) { t.Store(s.dir+dirSeq, maxSeq) })
	})

	// Invariant sweep: replay must leave the heap exactly as quiescent and
	// exactly as full as the replayed entries imply — same discipline as the
	// chaos harness phases.
	entries, err := s.recoverySweep(baseline)
	if err != nil {
		return nil, fmt.Errorf("kv: open %s: post-recovery sweep: %w", d.Dir, err)
	}

	wal.RemoveCleanMarker(d.FS, d.Dir) // from here on, absence of marker = crash
	log, err := wal.OpenLog(d.Dir, res.NextSeg, wal.Options{
		FS: d.FS, SegmentBytes: d.SegmentBytes, NoSync: d.NoSync,
	})
	if err != nil {
		return nil, fmt.Errorf("kv: open %s: %w", d.Dir, err)
	}
	s.wal = log
	// Clean start: the marker matches the replayed state — or the directory
	// was brand new (nothing existed, so nothing could have crashed).
	fresh := !res.HasSnapshot && res.LogRecords == 0 && maxSeq == 0 && res.TruncatedBytes == 0
	s.recovery = &RecoveryInfo{
		Clean:           (res.Clean && res.MarkerSeq == maxSeq) || fresh,
		HadSnapshot:     res.HasSnapshot,
		SnapshotEntries: res.SnapshotEntries,
		LogRecords:      res.LogRecords,
		Applied:         applied,
		TruncatedBytes:  res.TruncatedBytes,
		TornSegment:     res.TornSegment,
		Segments:        res.Segments,
		MaxSeq:          maxSeq,
		Entries:         entries,
		Elapsed:         time.Since(start),
	}
	return s, nil
}

// applyPut installs one replayed entry (insert or replace). Same publication
// protocol as Put, minus contexts, counters and logging — recovery is
// single-threaded and must not re-log what it reads.
func (s *Store) applyPut(key, val []byte, expiry, seq uint64) error {
	if err := s.validateKey(key); err != nil {
		return err
	}
	if len(val) > s.cfg.MaxValueBytes {
		return fmt.Errorf("%w (%d > %d bytes)", ErrValueTooLarge, len(val), s.cfg.MaxValueBytes)
	}
	var kbuf [scratchWords]uint64
	k := packKey(key, kbuf[:])
	var opErr error
	s.withThread(func(th *htm.Thread) {
		e := fillEntry(th, k, val, expiry, seq)
		th.Atomic(func(t *htm.Txn) {
			_, opErr = s.publish(t, e, k, false) // seq is the record's, not a new tick
		})
		if opErr != nil {
			th.Free(e)
		}
	})
	return opErr
}

// applyDelete removes one replayed key; absent keys are a no-op (the delete's
// target may have been superseded out of the snapshot).
func (s *Store) applyDelete(key []byte) {
	var kbuf [scratchWords]uint64
	k := packKey(key, kbuf[:])
	s.withThread(func(th *htm.Thread) {
		th.Atomic(func(t *htm.Txn) {
			slot, e, found, _ := s.probe(t, k, false)
			if !found {
				return
			}
			t.Store(s.table+htm.Addr(slot), slotTombstone)
			t.Store(s.dir+dirCount, t.Load(s.dir+dirCount)-1)
			t.Store(s.dir+dirTombstones, t.Load(s.dir+dirTombstones)+1)
			t.FreeOnCommit(e.addr)
		})
	})
}

// recoverySweep runs the post-replay invariant checks: no residual lock
// state, allocator accounting consistent, and the live words on the heap
// exactly baseline + the replayed entries' blocks (anything more is a leaked
// block, anything less a double free). Returns the live entry count.
func (s *Store) recoverySweep(baseline uint64) (int, error) {
	ms := s.heap.SweepMeta()
	st := s.heap.Stats()
	switch {
	case ms.Locked != 0:
		return 0, fmt.Errorf("%d words still locked after replay", ms.Locked)
	case ms.FallbackTagged != 0:
		return 0, fmt.Errorf("%d words still fallback-tagged after replay", ms.FallbackTagged)
	case ms.Allocated != st.LiveWords:
		return 0, fmt.Errorf("%d words allocated, accounting says %d live", ms.Allocated, st.LiveWords)
	}
	// Walk the index (paged transactions) summing the entry blocks' words.
	var entryLive, count uint64
	nslots := uint64(s.cfg.Slots)
	var r pageReader
	s.withThread(func(th *htm.Thread) {
		for cursor := uint64(0); cursor < nslots; cursor += scanSlotWindow {
			end := min(cursor+scanSlotWindow, nslots)
			var words, n uint64
			th.Atomic(func(t *htm.Txn) {
				words, n = 0, 0 // restartable body
				r.walk(t, s.table, cursor, end, scanSlotWindow, func(e htm.Addr, _ int) bool {
					klen, vlen := splitLens(t.Load(e + entryLens))
					words += uint64(entryWords(klen, vlen))
					n++
					return true
				})
			})
			entryLive, count = entryLive+words, count+n
		}
	})
	if want := baseline + entryLive; st.LiveWords != want {
		return 0, fmt.Errorf("%d live words after replay, %d entries account for %d (leak)",
			st.LiveWords, count, want)
	}
	if got := s.Len(); uint64(got) != count {
		return 0, fmt.Errorf("directory count %d disagrees with %d indexed entries", got, count)
	}
	return int(count), nil
}

// noteMutation advances the automatic-snapshot trigger after an acknowledged
// durable mutation. Snapshots are single-flighted; a trigger that fires while
// one is running is absorbed (the counter keeps accumulating).
func (s *Store) noteMutation() {
	every := uint64(0)
	if s.dcfg != nil {
		every = uint64(s.dcfg.SnapshotEvery)
	}
	if every == 0 || s.closed.Load() {
		return
	}
	if s.sinceSnap.Add(1) < every {
		return
	}
	if !s.snapBusy.CompareAndSwap(false, true) {
		return
	}
	s.sinceSnap.Store(0)
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		defer s.snapBusy.Store(false)
		_, _ = s.Snapshot() // failure leaves the log long; next trigger retries
	}()
}

// ErrNotDurable is returned by Snapshot on a store without durability.
var ErrNotDurable = errors.New("kv: store has no durability attached")

// Snapshot writes a point-in-time snapshot and prunes the log history it
// covers. Safe to run while writers are active: the rotation barrier plus
// per-entry sequence numbers let recovery merge the scan with the records
// around it (see the package comment above). Concurrent calls, manual or
// automatic, run one after another. Returns the entry count.
func (s *Store) Snapshot() (uint64, error) {
	if s.wal == nil {
		return 0, ErrNotDurable
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// Order matters: rotate FIRST (flushes, so every pre-rotation segment
	// holds only pre-rotation commits), then read the barrier.
	seg, err := s.wal.Rotate()
	if err != nil {
		return 0, fmt.Errorf("kv: snapshot rotate: %w", err)
	}
	var barrier uint64
	s.withThread(func(th *htm.Thread) {
		th.Atomic(func(t *htm.Txn) { barrier = t.Load(s.dir + dirSeq) })
	})
	w, err := wal.NewSnapshotWriter(s.wal.FS(), s.wal.Dir(), seg, barrier)
	if err != nil {
		return 0, err
	}
	type snapEnt struct {
		seq, expiry uint64
		key, val    []byte
	}
	nslots := uint64(s.cfg.Slots)
	var page []snapEnt
	var r pageReader // its arena is reused page after page: Add copies the bytes out
	for cursor := uint64(0); cursor < nslots; cursor += scanSlotWindow {
		end := min(cursor+scanSlotWindow, nslots)
		s.withThread(func(th *htm.Thread) {
			th.Atomic(func(t *htm.Txn) {
				page, r.arena = page[:0], r.arena[:0] // restartable body
				// Expired-but-unswept entries are included: the snapshot
				// preserves state, the expiry job changes it.
				r.walk(t, s.table, cursor, end, scanSlotWindow, func(e htm.Addr, room int) bool {
					var hdr [hdrSeq + 1]uint64
					t.LoadWords(e+entryLens, hdr[:])
					ent := snapEnt{seq: hdr[hdrSeq], expiry: hdr[hdrExpiry]}
					ent.key, ent.val = r.pair(t, e, hdr[hdrLens], room)
					page = append(page, ent)
					return true
				})
			})
		})
		for _, ent := range page {
			if err := w.Add(ent.seq, ent.expiry, ent.key, ent.val); err != nil {
				w.Abort()
				return 0, err
			}
		}
	}
	n := w.Count()
	if err := w.Close(); err != nil {
		return 0, err
	}
	s.snaps.Add(1)
	if err := s.wal.PruneBefore(seg); err != nil {
		return 0, fmt.Errorf("kv: prune after snapshot: %w", err)
	}
	return n, nil
}

// Close flushes the commit log and records a clean shutdown (the CLEAN
// marker). Idempotent; a purely in-memory store's Close is a no-op. Callers
// must have quiesced writers first — the HTTP server's graceful path does.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.wal == nil {
		return nil
	}
	s.snapWG.Wait()
	var seq uint64
	s.withThread(func(th *htm.Thread) {
		th.Atomic(func(t *htm.Txn) { seq = t.Load(s.dir + dirSeq) })
	})
	serr := s.wal.Sync()
	cerr := s.wal.Close()
	if serr != nil {
		return serr // broken log: leave no clean marker
	}
	if cerr != nil {
		return cerr
	}
	return wal.WriteCleanMarker(s.wal.FS(), s.wal.Dir(), seq)
}

// Durable reports whether a commit log is attached.
func (s *Store) Durable() bool { return s.wal != nil }

// Recovery returns what startup replay found (nil without durability).
func (s *Store) Recovery() *RecoveryInfo { return s.recovery }

// WalStats returns commit-log activity counters (ok=false without a log).
func (s *Store) WalStats() (wal.Stats, bool) {
	if s.wal == nil {
		return wal.Stats{}, false
	}
	return s.wal.Stats(), true
}

// Snapshots returns how many snapshots the store has completed.
func (s *Store) Snapshots() uint64 { return s.snaps.Load() }

// DurabilityFailures counts mutations that committed in memory but failed to
// reach the log (their callers got ErrDurability).
func (s *Store) DurabilityFailures() uint64 { return s.walFails.Load() }

// Seq returns the current durability sequence number (diagnostics, tests).
func (s *Store) Seq() uint64 {
	var seq uint64
	s.withThread(func(th *htm.Thread) {
		th.Atomic(func(t *htm.Txn) { seq = t.Load(s.dir + dirSeq) })
	})
	return seq
}
