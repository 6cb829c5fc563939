package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Segment and snapshot file naming. Segment indices are contiguous; snapshot
// N covers everything before segment N (segments >= N must still be
// replayed over it).
const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	snapTemp   = ".tmp"
	markerName = "CLEAN"
)

func segName(idx uint64) string  { return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix) }
func snapName(idx uint64) string { return fmt.Sprintf("%s%08d%s", snapPrefix, idx, snapSuffix) }

// parseIndexed extracts N from prefix-NNNNNNNN-suffix names; ok=false for
// anything else (temp files, the marker, strangers).
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listIndexed returns the sorted indices of prefix/suffix files in dir.
func listIndexed(fsys FS, dir, prefix, suffix string) ([]uint64, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil && !IsNotExist(err) {
		return nil, err
	}
	var idxs []uint64
	for _, name := range names {
		if n, ok := parseIndexed(name, prefix, suffix); ok {
			idxs = append(idxs, n)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// ErrClosed is returned by appends to a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options parameterizes an open log.
type Options struct {
	// FS is the filesystem; nil selects OSFS.
	FS FS
	// SegmentBytes is the rotation threshold; a segment that exceeds it
	// after a flush is closed and a new one started. Default 4 MiB.
	SegmentBytes int
	// NoSync skips the per-batch fsync (throughput experiments; the
	// durability guarantee is off and crashes may lose acknowledged
	// writes — cmd/kvserver's crash test would count them as lost).
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Stats is a snapshot of log activity counters.
type Stats struct {
	Appends   uint64 `json:"appends"`
	Batches   uint64 `json:"batches"`
	Syncs     uint64 `json:"syncs"`
	Rotations uint64 `json:"rotations"`
	Bytes     uint64 `json:"bytes"`
}

// Log is the append-only commit log. Append is safe for concurrent use and
// group-commits: concurrent appenders share one write+fsync batch (the first
// to arrive becomes the flush leader; the rest ride its sync), so the fsync
// rate is bounded by I/O latency, not by the operation rate. A leader whose
// previous flush released other writers yields once before it takes the
// batch, so those writers join it (see flushLocked).
type Log struct {
	opt Options
	dir string

	mu        sync.Mutex
	cond      *sync.Cond
	seg       File   // active segment handle
	segIdx    uint64 // active segment index
	segSize   int64  // bytes written to the active segment
	pending   []byte // framed records awaiting the next flush
	pendingN  int    // records in pending
	released  int    // records the last completed flush released
	writeGen  uint64 // generation of the last flush STARTED
	syncedGen uint64 // generation of the last flush COMPLETED
	flushing  bool
	closed    bool
	err       error // sticky I/O error: the log is broken, stop acknowledging

	appends, batches, syncs, rotations, bytes atomic.Uint64
}

// OpenLog opens the log in dir for appending, continuing the existing last
// segment (startSeg, as reported by Recover) or creating segment startSeg if
// absent. Recovery must have run first: it truncates any torn tail, so the
// append point is the end of the last valid record.
func OpenLog(dir string, startSeg uint64, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	l := &Log{opt: opt, dir: dir, segIdx: startSeg}
	l.cond = sync.NewCond(&l.mu)
	// Size the append point from the existing content (zero for a new file).
	if data, err := opt.FS.ReadFile(join(dir, segName(startSeg))); err == nil {
		l.segSize = int64(len(data))
	} else if !IsNotExist(err) {
		return nil, fmt.Errorf("wal: size %s: %w", segName(startSeg), err)
	}
	seg, err := opt.FS.OpenAppend(join(dir, segName(startSeg)))
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", segName(startSeg), err)
	}
	l.seg = seg
	return l, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// FS returns the log's filesystem (snapshot writer, tests).
func (l *Log) FS() FS { return l.opt.FS }

// AppendPut appends a PUT record and returns once it is durable.
func (l *Log) AppendPut(seq, expiry uint64, key, val []byte) error {
	return l.append(Record{Kind: KindPut, Seq: seq, Expiry: expiry, Key: key, Val: val})
}

// AppendDelete appends a DELETE record and returns once it is durable.
func (l *Log) AppendDelete(seq uint64, key []byte) error {
	return l.append(Record{Kind: KindDelete, Seq: seq, Key: key})
}

// append frames rec into the pending batch and waits until a flush covering
// it has completed (group commit). The first waiter whose batch is not yet
// being flushed becomes the leader and performs the write+fsync for everyone
// batched behind it.
func (l *Log) append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	l.pending = appendFrame(l.pending, rec)
	l.pendingN++
	l.appends.Add(1)
	target := l.writeGen + 1 // the flush generation that will carry this record
	for l.syncedGen < target {
		if l.err != nil {
			return l.err
		}
		if l.closed {
			return ErrClosed
		}
		if !l.flushing {
			l.flushLocked()
			continue
		}
		l.cond.Wait()
	}
	return l.err
}

// flushLocked writes and fsyncs the pending batch as generation writeGen+1.
// Called with mu held; unlocks around the I/O and relocks before returning.
//
// If the last flush released more than one record, the leader yields once
// before it takes the batch. It is usually one of the writers that flush
// released, back with its next record before the others have run; without the
// yield it would start the next sync at once, the others would queue behind
// it, and N concurrent writers would settle into two alternating batches of
// N/2. The writers that append during the yield see flushing set and target
// writeGen+1, the generation being formed, so they ride this sync. A lone
// writer's flushes release one record each and never yield.
func (l *Log) flushLocked() {
	l.flushing = true
	if l.released > 1 {
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
	}
	batch, n := l.pending, l.pendingN
	l.pending, l.pendingN = nil, 0
	gen := l.writeGen + 1
	l.writeGen = gen
	seg := l.seg
	rotate := false

	l.mu.Unlock()
	var err error
	if len(batch) > 0 {
		if _, werr := seg.Write(batch); werr != nil {
			err = fmt.Errorf("wal: append to %s: %w", segName(l.segIdx), werr)
		} else if !l.opt.NoSync {
			if serr := seg.Sync(); serr != nil {
				err = fmt.Errorf("wal: fsync %s: %w", segName(l.segIdx), serr)
			} else {
				l.syncs.Add(1)
			}
		}
	}
	l.mu.Lock()

	l.released = n
	if err == nil && len(batch) > 0 {
		l.segSize += int64(len(batch))
		l.bytes.Add(uint64(len(batch)))
		l.batches.Add(1)
		rotate = l.segSize >= int64(l.opt.SegmentBytes)
	}
	if err == nil && rotate {
		err = l.rotateLocked()
	}
	if err != nil && l.err == nil {
		l.err = err
	}
	l.syncedGen = gen
	l.flushing = false
	l.cond.Broadcast()
}

// rotateLocked closes the active segment and opens the next. Caller holds mu
// with no flush in flight.
func (l *Log) rotateLocked() error {
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", segName(l.segIdx), err)
	}
	l.segIdx++
	l.segSize = 0
	seg, err := l.opt.FS.OpenAppend(join(l.dir, segName(l.segIdx)))
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", segName(l.segIdx), err)
	}
	l.seg = seg
	l.rotations.Add(1)
	return nil
}

// Rotate flushes everything appended so far and starts a fresh segment,
// returning the new segment's index. It is the snapshot barrier point: every
// record that will ever land in a segment below the returned index belongs
// to an operation that committed before Rotate returned — which is what
// makes a post-Rotate store sequence number a sound replay barrier (see
// DESIGN.md "Durability & recovery").
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	for l.flushing {
		l.cond.Wait()
	}
	if len(l.pending) > 0 {
		l.flushLocked()
		for l.flushing {
			l.cond.Wait()
		}
	}
	if l.err != nil {
		return 0, l.err
	}
	if err := l.rotateLocked(); err != nil {
		if l.err == nil {
			l.err = err
		}
		return 0, err
	}
	return l.segIdx, nil
}

// PruneBefore removes segments and snapshots with index < keep. Called after
// a snapshot covering segment `keep` is durably in place.
func (l *Log) PruneBefore(keep uint64) error {
	l.mu.Lock()
	dir, fsys := l.dir, l.opt.FS
	l.mu.Unlock()
	segs, err := listIndexed(fsys, dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if idx < keep {
			if err := fsys.Remove(join(dir, segName(idx))); err != nil {
				return err
			}
		}
	}
	snaps, err := listIndexed(fsys, dir, snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	for _, idx := range snaps {
		if idx < keep {
			if err := fsys.Remove(join(dir, snapName(idx))); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sync forces any pending batch out and fsyncs (graceful shutdown).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if len(l.pending) > 0 && l.err == nil && !l.closed {
		l.flushLocked()
		for l.flushing {
			l.cond.Wait()
		}
	}
	return l.err
}

// Close flushes pending records, fsyncs, and closes the active segment.
// Subsequent appends return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	for l.flushing {
		l.cond.Wait()
	}
	if len(l.pending) > 0 && l.err == nil {
		l.flushLocked()
		for l.flushing {
			l.cond.Wait()
		}
	}
	l.closed = true
	l.cond.Broadcast()
	cerr := l.seg.Close()
	if l.err != nil {
		return l.err
	}
	return cerr
}

// Err returns the sticky I/O error, if the log has failed.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats returns cumulative activity counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:   l.appends.Load(),
		Batches:   l.batches.Load(),
		Syncs:     l.syncs.Load(),
		Rotations: l.rotations.Load(),
		Bytes:     l.bytes.Load(),
	}
}

// SegmentIndex returns the active segment's index.
func (l *Log) SegmentIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segIdx
}

// --- clean-shutdown marker ---------------------------------------------------

// WriteCleanMarker records a graceful shutdown: the store flushed its log and
// its maximum assigned sequence number is seq. Recovery treats a directory
// with a valid marker as a clean start (and verifies the replayed state
// reaches exactly seq).
func WriteCleanMarker(fsys FS, dir string, seq uint64) error {
	f, err := fsys.Create(join(dir, markerName))
	if err != nil {
		return fmt.Errorf("wal: create clean marker: %w", err)
	}
	if _, err := f.Write([]byte(fmt.Sprintf("clean seq=%d\n", seq))); err != nil {
		f.Close()
		return fmt.Errorf("wal: write clean marker: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync clean marker: %w", err)
	}
	return f.Close()
}

// ReadCleanMarker reports whether a valid clean-shutdown marker exists and
// the sequence number it recorded.
func ReadCleanMarker(fsys FS, dir string) (seq uint64, ok bool) {
	data, err := fsys.ReadFile(join(dir, markerName))
	if err != nil {
		return 0, false
	}
	var s uint64
	if _, err := fmt.Sscanf(string(data), "clean seq=%d", &s); err != nil {
		return 0, false
	}
	return s, true
}

// RemoveCleanMarker deletes the marker; called the moment the log is opened
// for appending, so a later crash is recognized as one.
func RemoveCleanMarker(fsys FS, dir string) {
	_ = fsys.Remove(join(dir, markerName))
}
