package kv

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestJobEncoding(t *testing.T) {
	for _, tc := range []struct{ kind, lo uint64 }{
		{jobExpire, 0}, {jobCompact, 1024}, {jobExpire, 1<<30 - jobChunkSlots}, {jobCompact, 12345},
	} {
		k, lo := decodeJob(encodeJob(tc.kind, tc.lo))
		if k != tc.kind || lo != tc.lo {
			t.Fatalf("roundtrip (%d,%d) -> (%d,%d)", tc.kind, tc.lo, k, lo)
		}
	}
}

func TestJobsPipelineExpiresAndCompacts(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	s := testStore(t, Config{Slots: 4096}, &now)

	// Entries that will expire at t=100, plus survivors.
	for i := 0; i < 50; i++ {
		if err := s.Put(bg, []byte(fmt.Sprintf("ttl-%02d", i)), []byte("v"), 99); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(bg, []byte(fmt.Sprintf("live-%02d", i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	jobs := StartJobs(ctx, s, JobsConfig{Interval: time.Hour, Workers: 3})

	now.Store(100)
	jobs.Sweep() // expiry pass tombstones the 50; compaction pass starts clearing
	waitUntil(t, "expiry sweep", func() bool { return s.Len() == 20 })
	// Repeated sweeps let tail-compaction cascade until only tombstones that
	// guard live probe chains remain; with 4096 slots and 70 keys clusters are
	// tiny, so effectively all 50 clear.
	waitUntil(t, "compaction", func() bool {
		jobs.Sweep()
		time.Sleep(10 * time.Millisecond)
		return s.Tombstones() == 0
	})

	// Counters are bumped after each range call returns, so they can lag the
	// index state briefly; they must converge to exactly 50/50.
	waitUntil(t, "pipeline counters", func() bool {
		st := jobs.Stats()
		return st.Expired == 50 && st.Cleared == 50
	})
	if st := jobs.Stats(); st.JobsRun == 0 || st.Sweeps == 0 {
		t.Fatalf("pipeline idle: %+v", st)
	}
	for i := 0; i < 20; i++ {
		if _, ok, _ := s.Get(bg, []byte(fmt.Sprintf("live-%02d", i))); !ok {
			t.Fatalf("survivor live-%02d lost", i)
		}
	}

	cancel()
	done := make(chan struct{})
	go func() { jobs.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline did not shut down")
	}
}

func TestJobsTickerSweeps(t *testing.T) {
	s := NewStore(Config{Slots: 1024})
	ctx, cancel := context.WithCancel(context.Background())
	jobs := StartJobs(ctx, s, JobsConfig{Interval: 10 * time.Millisecond, Workers: 1})
	waitUntil(t, "ticker-driven sweeps", func() bool { return jobs.Stats().Sweeps >= 2 })
	cancel()
	jobs.Wait()
}

func TestJobsShutdownUnderLoad(t *testing.T) {
	// Cancel while sweeps are in flight: Wait must return promptly and the
	// store must remain fully usable afterward (no worker still holds state).
	var now atomic.Int64
	now.Store(1)
	s := testStore(t, Config{Slots: 1 << 12}, &now)
	for i := 0; i < 200; i++ {
		if err := s.Put(bg, []byte(fmt.Sprintf("x-%03d", i)), []byte("v"), 5); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	jobs := StartJobs(ctx, s, JobsConfig{Interval: time.Millisecond, Workers: 4})
	now.Store(100)
	time.Sleep(20 * time.Millisecond) // let sweeps and jobs overlap the cancel
	cancel()
	done := make(chan struct{})
	go func() { jobs.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung after cancel under load")
	}
	// Post-shutdown the engine still works.
	if err := s.Put(bg, []byte("after"), []byte("shutdown"), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(bg, []byte("after")); !ok {
		t.Fatal("store unusable after pipeline shutdown")
	}
}
