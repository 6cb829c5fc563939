package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/htm"
	"repro/kv"
	"repro/kv/wal"
)

// A traced run splits its -seconds between a discarded warm-up, two reference
// windows with tracing off on either side of the traced window (the mean of
// their rates is the base of trace.overhead_pct, so a host that drifts
// steadily through the three cancels out), the traced window, and the rungs
// below the workload's own level: it too measures for -seconds.
const (
	shareWarmup    = 0.1 // of an untraced run too, where it is at most maxWarmup
	maxWarmup      = time.Second
	shareReference = 0.075 // each of the two
	shareTraced    = 0.3
	shareRung      = 0.1
)

func share(d time.Duration, s float64) time.Duration { return time.Duration(float64(d) * s) }

func (wl kvWorkload) mainExec(e *kvEnv, traced bool) executor {
	if wl.http {
		return httpExec{traced: traced}
	}
	return storeExec{e.store}
}

// runKVEndToEnd measures the end-to-end metrics with tracing off: set-ups,
// one window on the last of them, more set-ups.
func runKVEndToEnd(wl kvWorkload, cfg runConfig) *runResult {
	res := newRunResult(wl.name)
	in := genKVInputs(wl, cfg.seed, cfg.clients)
	var env *kvEnv
	teardown := func() {
		if env != nil {
			res.check(env.teardown())
			env = nil
		}
	}
	setup := func() (err error) {
		env, err = setupKV(wl, in, cfg.out, nil)
		return err
	}
	setups, err := timeSetups(cfg, teardown, setup)
	if err != nil {
		res.check(err)
		return res
	}
	runtime.GC()
	// Users of a running service do not pay for first-touch page faults of a
	// fresh arena or for cold connections: let those finish before timing.
	res.absorb(env.runWindow(wl.mainExec(env, false), min(share(cfg.window, shareWarmup), maxWarmup), nil))
	w := env.runWindow(wl.mainExec(env, false), cfg.window, nil)
	live := env.store.Heap().Stats().LiveWords
	after, err := timeSetups(cfg, teardown, setup)
	res.check(err)
	teardown()
	setups = append(setups, after...)

	res.absorb(w)
	res.endToEnd(setups, w, opGet, w, opPut, live)
	return res
}

// kvCounters is every public counter the KV layers expose, read at one
// instant; per-layer metrics are differences of two of these.
type kvCounters struct {
	heap     htm.Stats
	ops      kv.Counters
	http     kv.MetricsSnapshot
	wal      wal.Stats
	snaps    uint64
	fsWrites int
	fsSyncs  int
	fsBytes  uint64
	fsSnap   uint64
}

func (e *kvEnv) counters() kvCounters {
	c := kvCounters{heap: e.store.Heap().Stats(), ops: e.store.OpCounters(), snaps: e.store.Snapshots()}
	if e.srv != nil {
		c.http = e.srv.Metrics().Snapshot()
	}
	c.wal, _ = e.store.WalStats()
	if e.tfs != nil {
		e.tfs.mu.Lock()
		c.fsWrites, c.fsSyncs = len(e.tfs.writeNs), len(e.tfs.syncNs)
		c.fsBytes, c.fsSnap = e.tfs.bytes, e.tfs.snapshotBytes
		e.tfs.mu.Unlock()
	}
	return c
}

// runKVTraced produces the per-layer metrics of a KV workload.
func runKVTraced(wl kvWorkload, cfg runConfig) *runResult {
	res := newRunResult(wl.name)
	in := genKVInputs(wl, cfg.seed, cfg.clients)
	tr := newTracer()
	env, err := setupKV(wl, in, cfg.out, tr)
	if err != nil {
		res.check(err)
		return res
	}
	m := res.metrics

	runtime.GC()
	res.absorb(env.runWindow(wl.mainExec(env, false), share(cfg.window, shareWarmup), nil))
	refBefore := env.runWindow(wl.mainExec(env, false), share(cfg.window, shareReference), nil)
	res.absorb(refBefore)

	before := env.counters()
	stopSampling := make(chan struct{})
	inflight := sampleInFlight(env.store, stopSampling)
	mainD := share(cfg.window, shareTraced)
	w := env.runWindow(wl.mainExec(env, true), mainD, tr)
	close(stopSampling)
	m["store.inflight_max"] = float64(<-inflight)
	after := env.counters()
	res.absorb(w)
	refAfter := env.runWindow(wl.mainExec(env, false), share(cfg.window, shareReference), nil)
	res.absorb(refAfter)

	// The rungs: the same clients, the same rings, one layer lower each time.
	var storeRung, handlerRung *windowResult
	if wl.http {
		storeRung = env.runWindow(storeExec{env.store}, share(cfg.window, shareRung), tr)
		handlerRung = env.runWindow(handlerExec{env.srv}, share(cfg.window, shareRung), tr)
		res.absorb(storeRung)
		res.absorb(handlerRung)
	} else {
		storeRung = w
	}
	if wl.durable {
		lost, openTime, err := env.recoverFromSynced(cfg.out)
		res.check(err)
		if lost > 0 {
			res.check(fmt.Errorf("%d keys differ from their last acknowledged write after recovery from synced bytes", lost))
		}
		m["wal.acked_writes_lost"] = float64(lost)
		m["wal.recover_ms"] = openTime.Seconds() * 1e3
		m["wal.append_p50_us"], err = runWalRung(cfg, share(cfg.window, shareRung))
		res.check(err)
		m["wal.host_fsync_p50_us"], err = runHostFsyncRung(cfg, share(cfg.window, shareRung)/2)
		res.check(err)
	}
	probes := runProbes(share(cfg.window, shareRung))
	probes.emit(m)

	m["store.len_end"] = float64(env.store.Len())
	m["store.tombstones_end"] = float64(env.store.Tombstones())
	m["kv.heap_bytes_per_user_byte"] = float64(env.store.Heap().Stats().LiveWords*8) / float64(env.userBytes())
	var fsWrite, fsSync []int64
	if env.tfs != nil {
		fsWrite = sortedCopy(env.tfs.writeNs[before.fsWrites:after.fsWrites])
		fsSync = sortedCopy(env.tfs.syncNs[before.fsSyncs:after.fsSyncs])
	}
	res.check(env.teardown())

	tr.linkByOp("client", "server")
	res.check(tr.writeFile(filepath.Join(cfg.out, "trace-"+wl.name+".json")))
	dur, self := tr.durations(), tr.selfTimes()
	us := func(sorted []int64, p float64) float64 { return float64(percentile(sorted, p)) / 1e3 }

	ops := float64(max(w.ops(), 1))
	emitHTMDeltas(m, before.heap, after.heap, ops)
	emitTrace(m, tr, w, refBefore, refAfter)

	m["store.get_p50_us"] = storeRung.p50us(opGet)
	m["store.put_p50_us"] = storeRung.p50us(opPut)
	m["store.get_p99_us"] = storeRung.p99us(opGet)
	m["store.put_p99_us"] = storeRung.p99us(opPut)
	m["store.delete_p50_us"] = storeRung.p50us(opDelete)
	m["store.scan_p50_us"] = storeRung.p50us(opScan)
	m["store.expired"] = float64(after.ops.Expired - before.ops.Expired)
	m["store.compacted"] = float64(after.ops.Compacted - before.ops.Compacted)
	m["store.deadline_hits"] = float64(after.ops.Deadlines - before.ops.Deadlines)

	if wl.http {
		m["client.get_p99_us"] = w.p99us(opGet)
		m["client.put_p99_us"] = w.p99us(opPut)
		m["client.delete_p50_us"] = w.p50us(opDelete)
		m["server.get_p50_us"] = us(dur["server.get"], 0.5)
		m["server.put_p50_us"] = us(dur["server.put"], 0.5)
		m["server.handler_get_p50_us"] = handlerRung.p50us(opGet)
		m["server.self_get_us"] = m["server.get_p50_us"] - m["store.get_p50_us"]
		m["server.self_put_us"] = m["server.put_p50_us"] - m["store.put_p50_us"]
		m["server.requests"] = float64(after.http.Requests - before.http.Requests)
		m["server.status_5xx"] = float64(after.http.Errors5xx - before.http.Errors5xx)
		m["server.sheds"] = float64(after.http.Sheds - before.http.Sheds)
		m["wire.self_get_p50_us"] = us(self["client.get"], 0.5)
		m["wire.self_put_p50_us"] = us(self["client.put"], 0.5)
		var conns, reused uint64
		for _, c := range env.clients {
			conns, reused = conns+c.conns, reused+c.reused
		}
		m["wire.conn_reuse_ratio"] = float64(reused) / float64(max(conns, 1))
	}
	if wl.durable {
		appends := float64(after.wal.Appends - before.wal.Appends)
		batches := float64(after.wal.Batches - before.wal.Batches)
		puts, dels := float64(w.kindOps[opPut]), float64(w.kindOps[opDelete])
		keyLen := float64(len(in.keys[0]))
		m["wal.records_per_batch"] = appends / max(batches, 1)
		m["wal.syncs_per_write"] = float64(after.wal.Syncs-before.wal.Syncs) / max(appends, 1)
		m["wal.bytes_per_user_byte"] = float64(after.fsBytes-before.fsBytes) / max(puts*(keyLen+valueBytes)+dels*keyLen, 1)
		m["wal.fs_write_p50_us"] = us(fsWrite, 0.5)
		m["wal.fsync_p50_us"] = us(fsSync, 0.5)
		m["wal.fsync_p99_us"] = us(fsSync, supportedTail(len(fsSync)))
		var busy int64
		for _, d := range fsSync {
			busy += d
		}
		m["wal.fsync_busy_frac"] = float64(busy) / float64(mainD)
		m["wal.rotations"] = float64(after.wal.Rotations - before.wal.Rotations)
		m["wal.snapshots"] = float64(after.snaps - before.snaps)
		m["wal.snapshot_bytes"] = float64(after.fsSnap - before.fsSnap)
	}

	// Where the time goes, one ladder per op type of the mix.
	kinds := []opKind{opGet, opPut, opDelete, opScan}
	for _, k := range kinds {
		if w.samples(k) == 0 {
			continue
		}
		name := kindNames[k]
		l := ladder{workload: wl.name, op: name, samples: w.samples(k)}
		probe := probes.roNs / 1e3
		if k != opGet && k != opScan {
			probe = probes.rwNs / 1e3
		}
		if wl.http {
			l.top = us(dur["client."+name], 0.5)
			wire := us(self["client."+name], 0.5)
			server := us(dur["server."+name], 0.5)
			store := storeRung.p50us(k)
			l.add("wire.self", wire, true)
			l.add("server.self", server-store, true)
			l.add("store", store, true)
			if wl.durable && k != opGet {
				l.add("wal.append", m["wal.append_p50_us"], false)
				l.add("fs.sync", m["wal.fsync_p50_us"], false)
			}
			l.add("handler rung", handlerRung.p50us(k), false)
		} else {
			l.top = w.p50us(k)
			l.add("store", l.top, true)
		}
		l.add("htm probe", probe, false)
		res.ladders = append(res.ladders, l)
	}
	return res
}

func sortedCopy(v []int64) []int64 { return slices.Sorted(slices.Values(v)) }

// emitHTMDeltas turns two Heap.Stats snapshots around a window of ops
// operations into the htm layer's metrics.
func emitHTMDeltas(m metricSet, a, b htm.Stats, ops float64) {
	starts := float64(b.Starts - a.Starts)
	abort := func(c htm.AbortCode) float64 { return float64(b.Aborts[c]-a.Aborts[c]) / ops * 1e3 }
	m["htm.starts_per_op"] = starts / ops
	m["htm.commit_ratio"] = float64(b.Commits-a.Commits) / max(starts, 1)
	m["htm.aborts_conflict_per_kop"] = abort(htm.AbortConflict)
	m["htm.aborts_illegal_per_kop"] = abort(htm.AbortIllegal)
	m["htm.aborts_overflow_per_kop"] = abort(htm.AbortOverflow)
	m["htm.aborts_capacity_per_kop"] = abort(htm.AbortCapacity)
	m["htm.fallback_runs_per_kop"] = float64(b.FallbackRuns-a.FallbackRuns) / ops * 1e3
	m["htm.fallback_retries_per_kop"] = float64(b.FallbackRetries-a.FallbackRetries) / ops * 1e3
	m["htm.fallback_waits_per_kop"] = float64(b.FallbackWaits-a.FallbackWaits) / ops * 1e3
	m["htm.allocs_per_op"] = float64(b.AllocCalls-a.AllocCalls) / ops
	m["htm.frees_per_op"] = float64(b.FreeCalls-a.FreeCalls) / ops
	m["htm.clock_ticks_per_op"] = float64(b.ClockShardTicks-a.ClockShardTicks) / ops
	m["htm.max_live_words"] = float64(b.MaxLiveWords)
}

// emitTrace reports what tracing cost and how much it kept.
func emitTrace(m metricSet, tr *tracer, traced, refBefore, refAfter *windowResult) {
	ref := (refBefore.opsPerSec() + refAfter.opsPerSec()) / 2
	m["trace.overhead_pct"] = (1 - traced.opsPerSec()/max(ref, 1)) * 100
	m["trace.spans"] = float64(len(tr.spans()))
	m["trace.dropped"] = float64(tr.dropped.Load())
}

// runWalRung is the wal.Log-only rung: AppendPut from one goroutine per client
// on a log of its own, no store above it. It returns the p50 in microseconds.
func runWalRung(cfg runConfig, d time.Duration) (float64, error) {
	dir, err := makeTempDir(cfg.out, "walrung-")
	if err != nil {
		return 0, err
	}
	defer removeTempDir(dir)
	log, err := wal.OpenLog(dir, 0, wal.Options{FS: modelDevice(cfg.clients)})
	if err != nil {
		return 0, err
	}
	keys := genKeys(cfg.seed, 64)
	b := newStartBarrier(cfg.clients)
	lats := make([][]int64, cfg.clients)
	errs := make([]error, cfg.clients)
	var wg sync.WaitGroup
	for c := range lats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var val [valueBytes]byte
			end := b.arrive() + int64(d)
			for i := uint64(0); ; i++ {
				k := uint32(i % uint64(len(keys)))
				encodeValue(val[:], cfg.seed, k, uint32(i))
				t0 := now()
				if t0 >= end {
					return
				}
				if errs[c] = log.AppendPut(i*uint64(cfg.clients)+uint64(c)+1, 0, keys[k], val[:]); errs[c] != nil {
					return
				}
				lats[c] = append(lats[c], now()-t0)
			}
		}()
	}
	b.release()
	wg.Wait()
	all := slices.Concat(lats...)
	slices.Sort(all)
	return float64(percentile(all, 0.5)) / 1e3, errors.Join(append(errs, log.Close())...)
}

// runHostFsyncRung times the host's real write+fsync on a file of its own:
// the one thing the model device leaves out, reported so it is not forgotten.
func runHostFsyncRung(cfg runConfig, d time.Duration) (float64, error) {
	dir, err := makeTempDir(cfg.out, "fsyncrung-")
	if err != nil {
		return 0, err
	}
	defer removeTempDir(dir)
	f, err := wal.OSFS{}.OpenAppend(filepath.Join(dir, "probe"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var rec [valueBytes + 64]byte
	var lats []int64
	for end := now() + int64(d); ; {
		t0 := now()
		if t0 >= end && len(lats) > 0 {
			break
		}
		if _, err := f.Write(rec[:]); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		lats = append(lats, now()-t0)
	}
	slices.Sort(lats)
	return float64(percentile(lats, 0.5)) / 1e3, nil
}
