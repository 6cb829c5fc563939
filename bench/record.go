package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

var epoch = time.Now()

// now is nanoseconds on the process's monotonic clock; every span and latency
// in one run shares it.
func now() int64 { return int64(time.Since(epoch)) }

// A window is divided into equal slices of about sliceTarget. Every reported
// percentile is the mean over the quietest quarter of the slices of the
// slices' own percentiles, and the reported rate is the mean over the quietest
// quarter of the blocks — runs of blockSlices slices — of the blocks' own
// rates (see steady). A burst of a neighbour's work on the shared host then
// moves the slices it covers and not the result. A median latency can be taken
// from slices this short because a median operation never meets a rare event;
// a rate cannot, because it must pay for them: a block is long enough to hold
// at least one of everything periodic these workloads do (a snapshot every
// 4096 mutations is one every 1.2 s, a background sweep one every 2 s), so no
// block is quieter than another for having missed one.
const (
	sliceTarget = 250 * time.Millisecond
	blockSlices = 8 // 2 s
	minSlices   = 10
	maxSlices   = 240
)

func slicesFor(d time.Duration) int {
	return max(minSlices, min(int(d/sliceTarget), maxSlices))
}

// recorder is one client goroutine's private measurement state for one
// window. Nothing in it is shared until the goroutine has returned.
type recorder struct {
	start, end, sliceLen int64
	si                   int               // slice of the op in progress
	sliceOps             []uint64          // successful ops per slice
	kindOps              [nKinds]uint64    // successful ops per kind
	lat                  [nKinds][][]int32 // sampled latencies per slice, ns
	attempted, failed    uint64
	errs                 []string
	tr                   *tracer // nil when tracing is off
}

// newRecorder sizes the sample buffers of kinds before the window opens; the
// window's start is set when the barrier releases (begin).
func newRecorder(d time.Duration, tr *tracer, kinds ...opKind) *recorder {
	n := slicesFor(d)
	r := &recorder{sliceLen: max(int64(d)/int64(n), 1), sliceOps: make([]uint64, n), tr: tr}
	for _, k := range kinds {
		r.lat[k] = make([][]int32, n)
		for s := range r.lat[k] {
			r.lat[k][s] = make([]int32, 0, 1<<13)
		}
	}
	return r
}

func (r *recorder) begin(start int64) {
	r.start, r.end = start, start+r.sliceLen*int64(len(r.sliceOps))
}

// at makes the slice that timestamp t falls into the current one.
func (r *recorder) at(t int64) { r.si = min(int((t-r.start)/r.sliceLen), len(r.sliceOps)-1) }

// observe records one timed operation of the current slice and, when
// tracing, its span.
func (r *recorder) observe(level string, k opKind, t0, t1 int64, op uint32) {
	r.lat[k][r.si] = append(r.lat[k][r.si], int32(min(t1-t0, 1<<31-1)))
	if r.tr != nil {
		r.tr.add(spanNames[level][k], t0, t1, -1, op)
	}
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 4 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// windowResult merges the recorders of one window.
type windowResult struct {
	seconds           float64
	sliceOps          []uint64
	kindOps           [nKinds]uint64
	lat               [nKinds][][]int32 // each sorted; nil for a kind the window did not time
	attempted, failed uint64
	errs              []string
}

func mergeRecorders(d time.Duration, recs ...*recorder) *windowResult {
	w := &windowResult{seconds: d.Seconds(), sliceOps: make([]uint64, slicesFor(d))}
	for _, r := range recs {
		for s, n := range r.sliceOps {
			w.sliceOps[s] += n
		}
		for k := range r.lat {
			w.kindOps[k] += r.kindOps[k]
			if r.lat[k] != nil && w.lat[k] == nil {
				w.lat[k] = make([][]int32, len(r.lat[k]))
			}
			for s := range r.lat[k] {
				w.lat[k][s] = append(w.lat[k][s], r.lat[k][s]...)
			}
		}
		w.attempted += r.attempted
		w.failed += r.failed
		w.errs = append(w.errs, r.errs...)
	}
	for k := range w.lat {
		for _, v := range w.lat[k] {
			slices.Sort(v)
		}
	}
	return w
}

// opsPerSec is the steady rate of the window's blocks (see steady). A window
// shorter than two blocks is one block.
func (w *windowResult) opsPerSec() float64 {
	n := len(w.sliceOps)
	sliceSeconds := w.seconds / float64(n)
	blocks := max(n/blockSlices, 1)
	rates := make([]float64, blocks)
	for b := range rates {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		var ops uint64
		for _, k := range w.sliceOps[lo:hi] {
			ops += k
		}
		rates[b] = float64(ops) / (float64(hi-lo) * sliceSeconds)
	}
	return steady(rates, true)
}

// steady is the mean of the quarter (at least one) of a window's slices or
// blocks that the host disturbed least: the highest quarter of rates, the
// lowest quarter of times.
// The noise of a shared host has one sign — a neighbour takes cycles and never
// gives any — so the quiet slices of a run agree from run to run, where its
// median slice depends on how much of the run the neighbour covered. A change
// to the program moves every slice, these with them.
func steady(v []float64, higherIsQuiet bool) float64 {
	s := slices.Sorted(slices.Values(v))
	if higherIsQuiet {
		slices.Reverse(s)
	}
	quiet := s[:max(len(s)/4, 1)]
	var sum float64
	for _, x := range quiet {
		sum += x
	}
	return sum / float64(len(quiet))
}

func (w *windowResult) ops() uint64 {
	var n uint64
	for _, s := range w.sliceOps {
		n += s
	}
	return n
}

// samples is how many latencies of kind k the window timed.
func (w *windowResult) samples(k opKind) int {
	n := 0
	for _, v := range w.lat[k] {
		n += len(v)
	}
	return n
}

// quantileUs is the steady value over slices of each slice's p-quantile, in
// microseconds, when every slice has at least minPerSlice samples;
// otherwise it pools the window's samples and takes the highest quantile not
// above p that the pool supports (see supportedTail).
func (w *windowResult) quantileUs(k opKind, p float64, minPerSlice int) float64 {
	per := make([]float64, 0, len(w.lat[k]))
	for _, v := range w.lat[k] {
		if len(v) < minPerSlice {
			per = nil
			break
		}
		per = append(per, float64(percentile(v, p)))
	}
	if len(per) > 0 {
		return steady(per, false) / 1e3
	}
	var pool []int32
	for _, v := range w.lat[k] {
		pool = append(pool, v...)
	}
	slices.Sort(pool)
	return float64(percentile(pool, min(p, supportedTail(len(pool))))) / 1e3
}

func (w *windowResult) p50us(k opKind) float64 { return w.quantileUs(k, 0.50, 20) }

// p99us needs 1000 samples, ten beyond the percentile, in every slice.
func (w *windowResult) p99us(k opKind) float64 { return w.quantileUs(k, 0.99, 1000) }

// percentile returns the nearest-rank p-quantile of sorted (0 when empty).
func percentile[T int32 | int64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// supportedTail is the highest of p99, p90 and p50 that has at least ten
// samples beyond it among n: p99 needs 1000 samples, p90 needs 100.
func supportedTail(n int) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n >= 100:
		return 0.90
	}
	return 0.50
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// --- spans -------------------------------------------------------------------

// span is one traced interval. Parent is an index into the same buffer (-1 =
// root); Op joins the spans of one request across goroutines.
type span struct {
	Name       string
	Start, End int64
	Parent     int32
	Op         uint32
}

// spanNames[level][kind] are built once so the traced path does no string
// concatenation.
var spanNames = func() map[string]*[nKinds]string {
	m := map[string]*[nKinds]string{}
	for _, level := range []string{"client", "server", "handler", "store", "queue", "core"} {
		var names [nKinds]string
		for k, kn := range kindNames {
			names[k] = level + "." + kn
		}
		m[level] = &names
	}
	return m
}()

// tracer is a fixed, pre-allocated span buffer. Writers reserve a slot with
// one atomic add; when the buffer is full further spans are counted as
// dropped. It is read only after every writer has stopped.
type tracer struct {
	buf     []span
	n       atomic.Int64
	dropped atomic.Uint64
}

const tracerCap = 1 << 19

func newTracer() *tracer { return &tracer{buf: make([]span, tracerCap)} }

// reserve claims a slot (-1 when full) so a parent can be named by its
// children before its own end is known.
func (t *tracer) reserve() int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

func (t *tracer) set(i int32, name string, start, end int64, parent int32, op uint32) {
	if i >= 0 {
		t.buf[i] = span{name, start, end, parent, op}
	}
}

func (t *tracer) add(name string, start, end int64, parent int32, op uint32) int32 {
	i := t.reserve()
	t.set(i, name, start, end, parent, op)
	return i
}

func (t *tracer) spans() []span { return t.buf[:min(t.n.Load(), int64(len(t.buf)))] }

// linkByOp parents every childPrefix span to the rootPrefix span carrying the
// same op id (server.* under client.*).
func (t *tracer) linkByOp(rootLevel, childLevel string) {
	roots := map[uint32]int32{}
	ss := t.spans()
	for i, s := range ss {
		if levelOf(s.Name) == rootLevel {
			roots[s.Op] = int32(i)
		}
	}
	for i := range ss {
		if levelOf(ss[i].Name) == childLevel {
			if p, ok := roots[ss[i].Op]; ok {
				ss[i].Parent = p
			}
		}
	}
}

func levelOf(name string) string {
	level, _, _ := strings.Cut(name, ".")
	return level
}

type interval struct{ start, end int64 }

// selfTime is the part of parent not covered by the union of children;
// children may overlap each other and may stick out of the parent.
func selfTime(parent interval, children []interval) int64 {
	slices.SortFunc(children, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	covered, at := int64(0), parent.start
	for _, c := range children {
		s, e := max(c.start, at), min(c.end, parent.end)
		if e > s {
			covered += e - s
			at = e
		}
	}
	return parent.end - parent.start - covered
}

// selfTimes returns, per span name, the sorted self times of every span that
// has that name.
func (t *tracer) selfTimes() map[string][]int64 {
	ss := t.spans()
	kids := map[int32][]interval{}
	for _, s := range ss {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string][]int64{}
	for i, s := range ss {
		out[s.Name] = append(out[s.Name], selfTime(interval{s.Start, s.End}, kids[int32(i)]))
	}
	for _, v := range out {
		slices.Sort(v)
	}
	return out
}

// durations returns, per span name, the sorted span durations.
func (t *tracer) durations() map[string][]int64 {
	out := map[string][]int64{}
	for _, s := range t.spans() {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	for _, v := range out {
		slices.Sort(v)
	}
	return out
}

// writeFile dumps the buffer as one JSON array of
// {name,start_ns,end_ns,parent,op}.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var num []byte
	w.WriteString("[")
	for i, s := range t.spans() {
		if i > 0 {
			w.WriteString(",")
		}
		w.WriteString("\n{\"name\":")
		w.WriteString(strconv.Quote(s.Name))
		for _, kv := range [...]struct {
			k string
			v int64
		}{{"start_ns", s.Start}, {"end_ns", s.End}, {"parent", int64(s.Parent)}, {"op", int64(s.Op)}} {
			w.WriteString(",\"" + kv.k + "\":")
			num = strconv.AppendInt(num[:0], kv.v, 10)
			w.Write(num)
		}
		w.WriteString("}")
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startBarrier releases n goroutines at one instant and tells each the
// window's start time.
type startBarrier struct {
	ready sync.WaitGroup
	gate  chan struct{}
	start int64
}

func newStartBarrier(n int) *startBarrier {
	b := &startBarrier{gate: make(chan struct{})}
	b.ready.Add(n)
	return b
}

func (b *startBarrier) arrive() int64 { b.ready.Done(); <-b.gate; return b.start }
func (b *startBarrier) release()      { b.ready.Wait(); b.start = now(); close(b.gate) }
