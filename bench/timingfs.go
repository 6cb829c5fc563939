package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/kv/wal"
)

// modelSyncLatency is what one fsync costs on the model device.
const modelSyncLatency = 250 * time.Microsecond

// modelDeviceFS is wal.OSFS with one change: Sync returns modelSyncLatency
// after it is called, in place of calling fsync. Writes still go to real files
// through the page cache, and the WAL still flushes every batch and still makes
// every writer wait for it, so group commit, framing, rotation and snapshots
// cost what they cost. What is taken out is the host: this sandbox's fsync
// lands in a hypervisor shared with other tenants and its latency moved between
// 200 µs and 2 ms from one minute to the next, which made every number of the
// durable workload a measurement of the neighbours. The host's real fsync is
// still measured, by its own rung (wal.host_fsync_p50_us), where it is bound
// to nothing.
//
// How Sync waits depends on the regime. With one client (spin) it polls the
// clock and yields to other goroutines between polls: the one CPU never goes
// idle, so no op pays the host's price for waking a halted virtual CPU, which
// is tens of microseconds and varies — with a sleeping Sync it was most of the
// run-to-run spread of this workload — and goroutines that have work (a
// seeding writer joining the batch, a background job) still get the CPU. With
// two clients it blocks in nanosleep(2), as fsync(2) blocks in the kernel: the
// thread is off the CPU and the scheduler hands its P to the other client,
// whose requests a polling goroutine would keep from the network poller.
// (time.Sleep would not do: this runtime rounds an idle P's timers up to a
// millisecond.)
type modelDeviceFS struct {
	wal.OSFS
	spin bool
}

func modelDevice(clients int) modelDeviceFS { return modelDeviceFS{spin: clients == 1} }

type modelDeviceFile struct {
	wal.File
	spin bool
}

func (f modelDeviceFile) Sync() error {
	if f.spin {
		for end := now() + int64(modelSyncLatency); now() < end; {
			runtime.Gosched()
		}
		return nil
	}
	left := syscall.NsecToTimespec(int64(modelSyncLatency))
	for {
		req := left
		if err := syscall.Nanosleep(&req, &left); err != syscall.EINTR {
			return err
		}
	}
}

func (fs modelDeviceFS) OpenAppend(name string) (wal.File, error) {
	f, err := fs.OSFS.OpenAppend(name)
	return modelDeviceFile{f, fs.spin}, err
}

func (fs modelDeviceFS) Create(name string) (wal.File, error) {
	f, err := fs.OSFS.Create(name)
	return modelDeviceFile{f, fs.spin}, err
}

// timingFS is the wal.FS the traced durable run hands to kv.Open. It does two
// jobs from outside the WAL: it times every write and fsync, and it tracks for
// every file how many of its bytes an fsync has covered, so crashCopy can
// reproduce what a power cut would leave. Killing the process would not do
// that: the operating system's cache would still hold the unflushed tail.
type timingFS struct {
	inner wal.FS
	tr    *tracer

	// ops holds the read side for every FS call; crashCopy takes the write
	// side so the directory cannot change under the copy.
	ops sync.RWMutex

	mu            sync.Mutex // guards everything below
	files         map[string]*fileState
	writeNs       []int64
	syncNs        []int64
	bytes         uint64 // all bytes written, segments and snapshots
	snapshotBytes uint64
}

type fileState struct{ written, synced int64 }

func newTimingFS(inner wal.FS, tr *tracer) *timingFS {
	return &timingFS{inner: inner, tr: tr, files: map[string]*fileState{}}
}

func isSnapshot(name string) bool { return strings.HasPrefix(filepath.Base(name), "snap-") }

// state returns name's tracking record; a file that existed before this FS
// first saw it is taken as fully durable.
func (t *timingFS) state(name string, truncate bool) *fileState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.files[name]
	if !ok {
		st = &fileState{}
		if data, err := t.inner.ReadFile(name); err == nil && !truncate {
			st.written, st.synced = int64(len(data)), int64(len(data))
		}
		t.files[name] = st
	}
	if truncate {
		*st = fileState{}
	}
	return st
}

func (t *timingFS) open(name string, truncate bool, open func(string) (wal.File, error)) (wal.File, error) {
	t.ops.RLock()
	defer t.ops.RUnlock()
	st := t.state(name, truncate)
	f, err := open(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{fs: t, inner: f, st: st, snapshot: isSnapshot(name), flush: -1}, nil
}

func (t *timingFS) OpenAppend(name string) (wal.File, error) {
	return t.open(name, false, t.inner.OpenAppend)
}
func (t *timingFS) Create(name string) (wal.File, error) { return t.open(name, true, t.inner.Create) }

func (t *timingFS) MkdirAll(dir string) error            { return t.inner.MkdirAll(dir) }
func (t *timingFS) ReadFile(name string) ([]byte, error) { return t.inner.ReadFile(name) }
func (t *timingFS) ReadDir(dir string) ([]string, error) { return t.inner.ReadDir(dir) }

func (t *timingFS) Rename(oldname, newname string) error {
	t.ops.RLock()
	defer t.ops.RUnlock()
	if err := t.inner.Rename(oldname, newname); err != nil {
		return err
	}
	t.mu.Lock()
	if st, ok := t.files[oldname]; ok {
		t.files[newname] = st
		delete(t.files, oldname)
	}
	t.mu.Unlock()
	return nil
}

func (t *timingFS) Remove(name string) error {
	t.ops.RLock()
	defer t.ops.RUnlock()
	err := t.inner.Remove(name)
	t.mu.Lock()
	delete(t.files, name)
	t.mu.Unlock()
	return err
}

func (t *timingFS) Truncate(name string, size int64) error {
	t.ops.RLock()
	defer t.ops.RUnlock()
	if err := t.inner.Truncate(name, size); err != nil {
		return err
	}
	st := t.state(name, false)
	t.mu.Lock()
	st.written, st.synced = min(st.written, size), min(st.synced, size)
	t.mu.Unlock()
	return nil
}

// syncedLen reports how many bytes of name are durable.
func (t *timingFS) syncedLen(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.files[name]; ok {
		return st.synced
	}
	return 0
}

// crashCopy writes into dst what a power cut at this instant would leave of
// src: each file cut to its synced length, and files no fsync ever covered
// left out. Renames and removes count as durable once they return, the same
// model wal.MemFS.Crash uses.
func (t *timingFS) crashCopy(src, dst string) error {
	t.ops.Lock()
	defer t.ops.Unlock()
	names, err := t.inner.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, name := range names {
		n := t.syncedLen(filepath.Join(src, name))
		if n == 0 {
			continue
		}
		data, err := t.inner.ReadFile(filepath.Join(src, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, name), data[:min(n, int64(len(data)))], 0o644); err != nil {
			return err
		}
	}
	return nil
}

// timedFile wraps one handle. The WAL flushes a batch as Write then Sync on
// the same handle, so the first Write after a Sync opens a synthetic flush
// span that the following Sync closes; fs.write and fs.sync hang off it
// because group commit ties them to a batch, not to any one request.
type timedFile struct {
	fs         *timingFS
	inner      wal.File
	st         *fileState
	snapshot   bool
	flush      int32 // reserved slot of the open flush span, -1 = none
	flushStart int64
}

func (f *timedFile) flushName() string {
	if f.snapshot {
		return "wal.snapshot"
	}
	return "wal.flush"
}

func (f *timedFile) Write(p []byte) (int, error) {
	f.fs.ops.RLock()
	defer f.fs.ops.RUnlock()
	t0 := now()
	n, err := f.inner.Write(p)
	t1 := now()
	if tr := f.fs.tr; tr != nil {
		if f.flush < 0 {
			f.flush, f.flushStart = tr.reserve(), t0
		}
		tr.add("fs.write", t0, t1, f.flush, 0)
	}
	f.fs.mu.Lock()
	f.st.written += int64(n)
	f.fs.writeNs = append(f.fs.writeNs, t1-t0)
	f.fs.bytes += uint64(n)
	if f.snapshot {
		f.fs.snapshotBytes += uint64(n)
	}
	f.fs.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	f.fs.ops.RLock()
	defer f.fs.ops.RUnlock()
	f.fs.mu.Lock()
	covered := f.st.written
	f.fs.mu.Unlock()
	t0 := now()
	err := f.inner.Sync()
	t1 := now()
	if tr := f.fs.tr; tr != nil {
		tr.add("fs.sync", t0, t1, f.flush, 0)
		if f.flush >= 0 {
			tr.set(f.flush, f.flushName(), f.flushStart, t1, -1, 0)
			f.flush = -1
		}
	}
	if err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.st.synced = max(f.st.synced, covered)
	f.fs.syncNs = append(f.fs.syncNs, t1-t0)
	f.fs.mu.Unlock()
	return nil
}

// Close ends a flush span left open by a Write that no Sync followed.
func (f *timedFile) Close() error {
	if f.flush >= 0 {
		f.fs.tr.set(f.flush, f.flushName(), f.flushStart, now(), -1, 0)
		f.flush = -1
	}
	return f.inner.Close()
}
