// Command kvserver serves the transactional KV engine (package kv) over
// HTTP. The storage engine is the simulated HTM heap: every GET/PUT/DELETE/
// SCAN request runs as one heap transaction (TLE with the fine-grained
// fallback), and background expiry/compaction jobs flow through an on-heap
// concurrent queue. SIGINT/SIGTERM trigger a graceful shutdown: in-flight
// requests complete, the job pipeline drains, and the process exits 0 — the
// contract main_test.go asserts.
//
// Usage:
//
//	kvserver [-addr 127.0.0.1:7070] [-slots 16384] [-heap-words N]
//	         [-pool N] [-max-value 4096] [-sweep 2s] [-job-workers 2]
//	         [-job-queue htm|ms|rop|ebr] [-global-fallback] [-verbose]
//	         [-admission] [-req-timeout 0] [-max-retries 0]
//	         [-fault-seed 1] [-fault-begin P] [-fault-access P]
//	         [-fault-commit P] [-fault-stall P]
//	         [-wal-dir DIR] [-fsync=true] [-snapshot-every N]
//	         [-segment-bytes N]
//
// The -fault-* flags attach a seeded injection plan (htm.FaultPlan) to the
// heap — the chaos knobs, usable against a live server; -admission turns on
// load shedding (503 + Retry-After under pool saturation or abort storms)
// and -req-timeout bounds each request's store operation. -global-fallback
// fixes the paper's single global fallback lock for the server's lifetime.
//
// -wal-dir turns on durability: acknowledged mutations are written to a
// CRC-framed commit log before the response goes out, snapshots truncate old
// history every -snapshot-every mutations, and startup replays the directory
// (logging whether the previous shutdown was clean). A torn log tail is
// repaired by truncation; unrecoverable state — mid-log corruption, missing
// segments — is reported with the file and offset and the process exits 3
// rather than serve data it cannot trust (move the directory aside, or
// restore it, to start fresh).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/htm"
	"repro/kv"
	"repro/kv/wal"
	"repro/queue"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("kvserver", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	slots := fs.Int("slots", kv.DefaultSlots, "hash index capacity (rounded up to a power of two)")
	heapWords := fs.Int("heap-words", 0, "heap address-space budget in 64-bit words, backed as the allocator carves it (0 = derived from -slots)")
	pool := fs.Int("pool", 0, "execution-context pool size / engine concurrency (0 = 4*GOMAXPROCS)")
	maxValue := fs.Int("max-value", kv.DefaultMaxValueBytes, "maximum value size in bytes")
	sweep := fs.Duration("sweep", 2*time.Second, "interval between background expiry/compaction sweeps")
	jobWorkers := fs.Int("job-workers", 2, "background job worker goroutines")
	jobQueue := fs.String("job-queue", "htm", "job queue implementation: htm, ms, rop or ebr")
	globalFallback := fs.Bool("global-fallback", false, "use the paper's global TLE fallback lock instead of the fine-grained lock-set")
	verbose := fs.Bool("verbose", false, "log every request")
	admission := fs.Bool("admission", false, "shed load (503 + Retry-After) under pool saturation or abort storms")
	reqTimeout := fs.Duration("req-timeout", 0, "per-request store-operation deadline (0 = unbounded)")
	maxRetries := fs.Int("max-retries", 0, "hardware retry budget before the TLE fallback (0 = engine default)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for the -fault-* injection plan")
	faultBegin := fs.Float64("fault-begin", 0, "probability of a spurious abort at transaction begin")
	faultAccess := fs.Float64("fault-access", 0, "probability of a spurious abort per transactional access")
	faultCommit := fs.Float64("fault-commit", 0, "probability of a spurious abort at commit-point")
	faultStall := fs.Float64("fault-stall", 0, "probability a fallback run stalls while holding its lock-set")
	walDir := fs.String("wal-dir", "", "durability directory for the commit log and snapshots (empty = in-memory only)")
	fsync := fs.Bool("fsync", true, "fsync each commit-log batch (false trades durability for throughput)")
	snapshotEvery := fs.Int("snapshot-every", 4096, "mutations between automatic snapshots (0 = never snapshot)")
	segmentBytes := fs.Int("segment-bytes", 0, "commit-log segment rotation threshold in bytes (0 = default 4 MiB)")
	fs.Parse(args)

	newQueue, err := queueFactory(*jobQueue)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: %v\n", err)
		return 2
	}

	var plan *htm.FaultPlan
	if *faultBegin > 0 || *faultAccess > 0 || *faultCommit > 0 || *faultStall > 0 {
		plan = &htm.FaultPlan{
			Seed:       *faultSeed,
			BeginProb:  *faultBegin,
			AccessProb: *faultAccess,
			CommitProb: *faultCommit,
			StallProb:  *faultStall,
			MaxPerOp:   64, // a live server must keep terminating under any dial setting
		}
	}
	cfg := kv.Config{
		Slots:          *slots,
		HeapWords:      *heapWords,
		MaxValueBytes:  *maxValue,
		PoolThreads:    *pool,
		GlobalFallback: *globalFallback,
		MaxRetries:     *maxRetries,
		Faults:         plan,
	}
	if *walDir != "" {
		cfg.Durability = &kv.Durability{
			Dir:           *walDir,
			SegmentBytes:  *segmentBytes,
			NoSync:        !*fsync,
			SnapshotEvery: *snapshotEvery,
		}
	}
	store, err := kv.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: %v\n", err)
		if errors.Is(err, wal.ErrRecovery) {
			fmt.Fprintf(os.Stderr, "kvserver: the log in %s is unrecoverable; refusing to serve state that may be wrong.\n"+
				"kvserver: move the directory aside (or restore it from a copy) and restart to begin empty.\n", *walDir)
			return 3
		}
		return 1
	}
	if ri := store.Recovery(); ri != nil {
		mode := "crash recovery"
		if ri.Clean {
			mode = "clean start"
		}
		log.Printf("kvserver: %s from %s: %d entries (snapshot=%d log=%d applied=%d segments=%d seq=%d) in %s",
			mode, *walDir, ri.Entries, ri.SnapshotEntries, ri.LogRecords, ri.Applied, ri.Segments, ri.MaxSeq,
			ri.Elapsed.Round(time.Microsecond))
		if ri.TruncatedBytes > 0 {
			log.Printf("kvserver: truncated %d-byte torn tail from %s (crash mid-write; unacknowledged data discarded)",
				ri.TruncatedBytes, ri.TornSegment)
		}
	}
	opts := []kv.ServerOption{kv.WithJobs(kv.JobsConfig{
		Interval: *sweep,
		Workers:  *jobWorkers,
		NewQueue: newQueue,
	})}
	if *verbose {
		opts = append(opts, kv.WithRequestLog(nil))
	}
	if *admission {
		opts = append(opts, kv.WithAdmissionControl(kv.AdmissionConfig{}))
	}
	if *reqTimeout > 0 {
		opts = append(opts, kv.WithRequestTimeout(*reqTimeout))
	}
	srv := kv.NewServer(store, opts...)

	// Catch SIGINT/SIGTERM before the readiness line can go out: a supervisor
	// may signal the moment it reads it, and the default action would skip
	// the drain and the WAL's clean marker.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: listen: %v\n", err)
		// Open removed the clean marker; nothing was served, so restore it.
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "kvserver: %v\n", err)
		}
		return 1
	}
	// Log the bound address the moment the listener exists. Supervisors treat
	// it as the readiness signal, and with -addr :0 it is the only way to
	// learn the chosen port.
	fallback := "fine"
	if *globalFallback {
		fallback = "global"
	}
	log.Printf("kvserver: serving on http://%s (slots=%d heap=%dw pool=%d queue=%s faults=%v durable=%v fallback=%s)",
		ln.Addr(), store.Slots(), store.Heap().Config().Words, store.PoolSize(), *jobQueue, plan != nil, store.Durable(), fallback)
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: %v\n", err)
		return 1
	}
	st := store.Heap().Stats()
	log.Printf("kvserver: clean shutdown; final heap stats: %s", st)
	return 0
}

// queueFactory maps a -job-queue name to a queue constructor.
func queueFactory(name string) (func(h *htm.Heap) queue.Queue, error) {
	switch name {
	case "htm":
		return func(h *htm.Heap) queue.Queue { return queue.NewHTMQueue(h) }, nil
	case "ms":
		return func(h *htm.Heap) queue.Queue { return queue.NewMSQueue(h) }, nil
	case "rop":
		return func(h *htm.Heap) queue.Queue { return queue.NewMSQueueROP(h) }, nil
	case "ebr":
		return func(h *htm.Heap) queue.Queue { return queue.NewMSQueueEBR(h) }, nil
	default:
		return nil, fmt.Errorf("unknown -job-queue %q (want htm, ms, rop or ebr)", name)
	}
}
