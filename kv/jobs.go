package kv

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/queue"
)

// Background maintenance rides the paper's HTM queue: the sweeper goroutine
// slices the index into slot ranges and enqueues one job word per range;
// worker goroutines dequeue and run the matching Store sweep. The job queue
// lives ON the transactional heap — sequential code in transactions, each
// node freed in the dequeue that unlinks it — so the pipeline itself
// exercises the paper's claim.

// Job kinds.
const (
	jobExpire uint64 = iota + 1
	jobCompact
)

// jobChunkSlots is how many index slots one job covers: small enough that
// jobs interleave with foreground traffic, large enough that the queue isn't
// the bottleneck.
const jobChunkSlots = 1024

// encodeJob packs a job into one queue word: kind in the top 4 bits, the
// starting slot below. Ranges are implicit: every job covers jobChunkSlots.
func encodeJob(kind, lo uint64) uint64     { return kind<<60 | lo }
func decodeJob(w uint64) (kind, lo uint64) { return w >> 60, w &^ (uint64(0xf) << 60) }

// JobsConfig parameterizes the maintenance pipeline.
type JobsConfig struct {
	// Interval between full-index sweeps. Defaults to 2s.
	Interval time.Duration
	// Workers is the number of consumer goroutines. Defaults to 2.
	Workers int
}

func (c JobsConfig) withDefaults() JobsConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	return c
}

// Jobs is a running maintenance pipeline. Create with StartJobs; cancel the
// context and call Wait for a clean shutdown.
type Jobs struct {
	s   *Store
	cfg JobsConfig
	q   *queue.HTMQueue
	wg  sync.WaitGroup

	jobsRun     atomic.Uint64
	sweeps      atomic.Uint64
	lastExpired atomic.Uint64
	lastCleared atomic.Uint64
}

// StartJobs launches the sweeper and workers. They stop — completing or
// cleanly abandoning in-flight work — when ctx is cancelled; Wait blocks
// until every goroutine has exited.
func StartJobs(ctx context.Context, s *Store, cfg JobsConfig) *Jobs {
	cfg = cfg.withDefaults()
	j := &Jobs{s: s, cfg: cfg, q: queue.NewHTMQueue(s.heap)}
	j.wg.Add(1 + cfg.Workers)
	go j.sweeper(ctx)
	for i := 0; i < cfg.Workers; i++ {
		go j.worker(ctx)
	}
	return j
}

// Wait blocks until all pipeline goroutines have exited.
func (j *Jobs) Wait() { j.wg.Wait() }

// Sweep enqueues one full pass over the index: expiry jobs for every chunk,
// then compaction jobs. Exported so tests and operators can force a sweep
// without waiting out the interval.
func (j *Jobs) Sweep() {
	j.sweeps.Add(1)
	// A dedicated thread, not a pooled one: pipeline goroutines never hold a
	// pool context while the sweep methods acquire one, so the pipeline can
	// never deadlock the foreground pool however small it is.
	c := j.q.NewCtx(j.s.heap.NewThread())
	nslots := j.s.Slots()
	for lo := uint64(0); lo < nslots; lo += jobChunkSlots {
		j.q.Enqueue(c, encodeJob(jobExpire, lo))
	}
	for lo := uint64(0); lo < nslots; lo += jobChunkSlots {
		j.q.Enqueue(c, encodeJob(jobCompact, lo))
	}
}

func (j *Jobs) sweeper(ctx context.Context) {
	defer j.wg.Done()
	tick := time.NewTicker(j.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			j.Sweep()
		}
	}
}

func (j *Jobs) worker(ctx context.Context) {
	defer j.wg.Done()
	c := j.q.NewCtx(j.s.heap.NewThread()) // dedicated thread; see Sweep
	idle := time.NewTimer(0)
	if !idle.Stop() {
		<-idle.C
	}
	defer idle.Stop()
	for {
		w, ok := j.q.Dequeue(c)
		if !ok {
			// Empty queue: park briefly, but wake immediately on shutdown.
			idle.Reset(10 * time.Millisecond)
			select {
			case <-ctx.Done():
				return
			case <-idle.C:
			}
			continue
		}
		j.run(w)
		select {
		case <-ctx.Done():
			// In-flight job finished (each job is short by construction —
			// jobChunkSlots small transactions); undequeued jobs are simply
			// dropped, the next sweep regenerates them.
			return
		default:
		}
	}
}

// run executes one dequeued job word.
func (j *Jobs) run(w uint64) {
	kind, lo := decodeJob(w)
	switch kind {
	case jobExpire:
		j.lastExpired.Add(uint64(j.s.ExpireRange(lo, lo+jobChunkSlots)))
	case jobCompact:
		j.lastCleared.Add(uint64(j.s.CompactRange(lo, lo+jobChunkSlots)))
	}
	j.jobsRun.Add(1)
}

// JobStats is a snapshot of pipeline activity.
type JobStats struct {
	JobsRun uint64 `json:"jobs_run"`
	Sweeps  uint64 `json:"sweeps"`
	Expired uint64 `json:"expired"`
	Cleared uint64 `json:"tombstones_cleared"`
}

// Stats returns cumulative pipeline counters.
func (j *Jobs) Stats() JobStats {
	return JobStats{
		JobsRun: j.jobsRun.Load(),
		Sweeps:  j.sweeps.Load(),
		Expired: j.lastExpired.Load(),
		Cleared: j.lastCleared.Load(),
	}
}
