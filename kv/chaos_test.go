package kv

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/htm"
)

// The chaos tests drive a full Server on a heap with a seeded htm.FaultPlan
// and check that the service stays CORRECT (every response agrees with a
// shadow model), CONVERGENT (once the run quiesces no word is locked or
// fallback-tagged and none leaked) and DETERMINISTIC (a seed reproduces the
// same fault and abort counts, so any failure replays exactly).

// chaosGoldens are the deterministic phase's fingerprints, one per seed. Each
// line's seed and ops fields also configure its run. They are edited by hand
// and only on purpose: fault schedules count transactional accesses, so a changed line
// means a change moved the per-operation access sequence, and that change
// must say so.
var chaosGoldens = []string{
	"determinism-key: seed=1 ops=1000 starts=1611 commits=1133 spurious=478 conflicts=0 capacity=0 fallbacks=58 stalls=18 fulls=0 gets=232 puts=489 dels=322 scans=148 model=75f9ae5722a308ad",
	"determinism-key: seed=2 ops=1000 starts=1665 commits=1104 spurious=561 conflicts=0 capacity=0 fallbacks=74 stalls=15 fulls=0 gets=236 puts=449 dels=321 scans=172 model=44bd26a85c988ae0",
	"determinism-key: seed=7 ops=1000 starts=1605 commits=1115 spurious=490 conflicts=0 capacity=0 fallbacks=63 stalls=17 fulls=0 gets=247 puts=444 dels=324 scans=163 model=97ad13ec213c8cd2",
}

// TestChaosDeterminism replays every golden row and requires its fingerprint
// byte for byte. Matching a committed line proves replay across processes and
// builds.
func TestChaosDeterminism(t *testing.T) {
	for _, want := range chaosGoldens {
		var seed uint64
		var ops int
		if _, err := fmt.Sscanf(want, "determinism-key: seed=%d ops=%d", &seed, &ops); err != nil {
			t.Fatalf("golden %q: %v", want, err)
		}
		if got := deterministicRun(t, seed, ops); got != want {
			t.Errorf("fingerprint moved:\n got %s\nwant %s", got, want)
		}
	}
}

// xorshift64 is the workload stream — distinct from the engine's injection
// PRNGs, which derive from the same seed but are salted per thread.
func xorshift64(x *uint64) uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return v
}

// serve runs one request through the server's full middleware chain without
// a network in between.
func serve(sv *Server, method, target, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	sv.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
	return w
}

// scanPairs fetches one /scan page and checks every pair against model.
func scanPairs(t *testing.T, sv *Server, target string, model map[string]string) scanResponse {
	t.Helper()
	w := serve(sv, http.MethodGet, target, "")
	var page scanResponse
	if w.Code != http.StatusOK {
		t.Fatalf("SCAN %s -> %d", target, w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatalf("SCAN %s decode: %v", target, err)
	}
	for _, p := range page.Pairs {
		if want, ok := model[string(p.Key)]; !ok || want != string(p.Value) {
			t.Fatalf("SCAN %s surfaced %q=%q, model has %q (present: %v)", target, p.Key, p.Value, want, ok)
		}
	}
	return page
}

// deterministicRun drives the sequential phase once and returns its
// fingerprint line. Everything that could perturb counts is pinned: one pool
// context, one client, a logical expiry clock, no background jobs (they only
// start under Serve) and no admission (its sampler reads wall-clock time).
func deterministicRun(t *testing.T, seed uint64, ops int) string {
	t.Helper()
	var tick int64 // logical clock: single-threaded phase, no atomics needed
	cfg := Config{
		Slots:       1 << 10,
		PoolThreads: 1,
		MaxRetries:  4, // below MaxPerOp: unlucky ops engage the (injection-immune) fallback
		Faults: &htm.FaultPlan{
			Seed:         seed,
			BeginProb:    0.05,
			AccessProb:   0.02,
			AccessEvery:  3,
			CommitProb:   0.05,
			MaxPerOp:     6, // bounded adversity: every op still terminates on the hardware path
			StallProb:    0.25,
			StallSpins:   16,
			ReleaseDelay: 2,
		},
		Now: func() int64 { tick++; return tick },
	}
	store := NewStore(cfg)
	sv := NewServer(store)
	baseline := store.Heap().Stats().LiveWords

	rng := seed
	model := make(map[string]string)
	var fulls uint64
	for i := 0; i < ops; i++ {
		roll := xorshift64(&rng) % 100
		key := fmt.Sprintf("k%03d", xorshift64(&rng)%256)
		switch {
		case roll < 45: // PUT
			val := fmt.Sprintf("v%d.%d", i, xorshift64(&rng)%1000000)
			switch w := serve(sv, http.MethodPut, "/kv/"+key, val); w.Code {
			case http.StatusNoContent:
				model[key] = val
			case http.StatusInsufficientStorage:
				fulls++ // index at capacity: a no-op outcome, counted into the fingerprint
			default:
				t.Fatalf("op %d: PUT %s -> %d", i, key, w.Code)
			}
		case roll < 70: // GET
			w := serve(sv, http.MethodGet, "/kv/"+key, "")
			want, ok := model[key]
			if ok && (w.Code != http.StatusOK || w.Body.String() != want) || !ok && w.Code != http.StatusNotFound {
				t.Fatalf("op %d: GET %s -> %d %q, model has %q (present: %v)", i, key, w.Code, w.Body, want, ok)
			}
		case roll < 85: // DELETE
			w := serve(sv, http.MethodDelete, "/kv/"+key, "")
			_, ok := model[key]
			if ok && w.Code != http.StatusNoContent || !ok && w.Code != http.StatusNotFound {
				t.Fatalf("op %d: DELETE %s -> %d (in model: %v)", i, key, w.Code, ok)
			}
			delete(model, key)
		default: // SCAN: one page from a random cursor
			scanPairs(t, sv, fmt.Sprintf("/scan?cursor=%d&limit=16", xorshift64(&rng)%store.Slots()), model)
		}
	}

	// Full drain scan: the store's contents must BE the model, exactly.
	found := 0
	for cursor := uint64(0); ; {
		page := scanPairs(t, sv, fmt.Sprintf("/scan?cursor=%d&limit=64", cursor), model)
		found += len(page.Pairs)
		if page.Done {
			break
		}
		cursor = page.Next
	}
	if found != len(model) {
		t.Fatalf("drain SCAN found %d entries, model has %d", found, len(model))
	}

	// FNV-1a 64 over the sorted pairs; delete in that same order (map order
	// would perturb probe paths and with them the injection counts).
	keys := slices.Sorted(maps.Keys(model))
	hash := uint64(14695981039346656037)
	for _, k := range keys {
		for _, s := range []string{k + "\x00", model[k] + "\x01"} {
			for i := 0; i < len(s); i++ {
				hash = (hash ^ uint64(s[i])) * 1099511628211
			}
		}
	}
	for _, k := range keys {
		if w := serve(sv, http.MethodDelete, "/kv/"+k, ""); w.Code != http.StatusNoContent {
			t.Fatalf("drain DELETE %s -> %d", k, w.Code)
		}
	}
	sweepClean(t, store, baseline)

	st := store.Heap().Stats()
	oc := store.OpCounters()
	return fmt.Sprintf(
		"determinism-key: seed=%d ops=%d starts=%d commits=%d spurious=%d conflicts=%d capacity=%d fallbacks=%d stalls=%d fulls=%d gets=%d puts=%d dels=%d scans=%d model=%016x",
		seed, ops, st.Starts, st.Commits, st.SpuriousAborts(),
		st.Aborts[htm.AbortConflict], st.Aborts[htm.AbortCapacity],
		st.FallbackRuns, st.FallbackStalls, fulls,
		oc.Gets, oc.Puts, oc.Deletes, oc.Scans, hash)
}

// sweepClean asserts the quiesced heap's invariants: nothing locked, no
// fallback tag left behind, the allocation bitmap agreeing with the live-word
// accounting, and the live footprint back at the empty-store baseline.
func sweepClean(t *testing.T, store *Store, baseline uint64) {
	t.Helper()
	ms := store.Heap().SweepMeta()
	st := store.Heap().Stats()
	switch {
	case ms.Locked != 0:
		t.Errorf("sweep: %d words still locked at quiescence", ms.Locked)
	case ms.FallbackTagged != 0:
		t.Errorf("sweep: %d words still fallback-tagged at quiescence", ms.FallbackTagged)
	case ms.StripeErrors != 0:
		t.Errorf("sweep: %d per-line invariant violations at quiescence", ms.StripeErrors)
	case ms.Allocated != st.LiveWords:
		t.Errorf("sweep: %d words allocated, accounting says %d live", ms.Allocated, st.LiveWords)
	case st.LiveWords != baseline:
		t.Errorf("sweep: %d live words after full drain, empty-store baseline is %d (leak)", st.LiveWords, baseline)
	}
}

// TestChaosOverload sweeps the injection probability while concurrent clients
// hammer an admission-controlled, deadline-bounded server whose engine pool
// is a quarter of the client count (at -short's 4 clients a pool of 2 can go
// unsaturated for a whole 30 ms window on a loaded race build). Past the
// clean point the server must shed
// load with 503s while the requests it admits keep a bounded p99; every
// response must agree with its client's shadow model, and each point's heap
// must sweep clean.
func TestChaosOverload(t *testing.T) {
	// reqTimeout bounds each request; the p99 bound is a generous multiple of
	// it (deadline checks happen between retry attempts, so a slow attempt
	// can overshoot, and CI machines stall).
	const reqTimeout, p99Bound = 25 * time.Millisecond, 20 * 25 * time.Millisecond
	clients, dur := 8, 100*time.Millisecond
	if testing.Short() {
		clients, dur = 4, 30*time.Millisecond
	}
	var rejected uint64
	for _, prob := range []float64{0, 0.05, 0.25} {
		var plan *htm.FaultPlan
		if prob > 0 {
			plan = &htm.FaultPlan{
				Seed:         1,
				BeginProb:    prob,
				AccessProb:   prob / 2,
				AccessEvery:  2,
				CommitProb:   prob / 2,
				MaxPerOp:     24,
				StallProb:    prob,
				StallSpins:   32,
				ReleaseDelay: 1,
			}
		}
		store := NewStore(Config{
			Slots:       1 << 12,
			PoolThreads: clients / 4,
			MaxRetries:  4, // injection can exhaust this, driving traffic onto the stalled fallback
			Faults:      plan,
		})
		sv := NewServer(store, WithAdmissionControl(AdmissionConfig{}), WithRequestTimeout(reqTimeout))
		baseline := store.Heap().Stats().LiveWords

		// Each client owns a disjoint key partition and an exact shadow of
		// it: a 503 (shed or abandoned at the deadline) is contractually
		// effect-free, so the checks stay sound under arbitrary rejection.
		shadows := make([]map[string]string, clients)
		lats := make([][]time.Duration, clients)
		rejects := make([]uint64, clients)
		var wg sync.WaitGroup
		deadline := time.Now().Add(dur)
		for id := range clients {
			shadows[id] = make(map[string]string)
			wg.Add(1)
			go func() {
				defer wg.Done()
				shadow, rng := shadows[id], 1^uint64(id+1)*0x9E3779B97F4A7C15
				for n := 0; time.Now().Before(deadline); n++ {
					roll := xorshift64(&rng) % 100
					key := fmt.Sprintf("c%02d-k%02d", id, xorshift64(&rng)%32)
					want, ok := shadow[key]
					t0 := time.Now()
					var w *httptest.ResponseRecorder
					code := http.StatusNotFound
					switch {
					case roll < 50:
						want, code = fmt.Sprintf("v%d.%d", id, n), http.StatusNoContent
						w = serve(sv, http.MethodPut, "/kv/"+key, want)
					case roll < 85:
						if ok {
							code = http.StatusOK
						}
						w = serve(sv, http.MethodGet, "/kv/"+key, "")
					default:
						if ok {
							code = http.StatusNoContent
						}
						w = serve(sv, http.MethodDelete, "/kv/"+key, "")
					}
					switch {
					case w.Code == http.StatusServiceUnavailable:
						rejects[id]++ // no effect, model unchanged
					case w.Code != code || code == http.StatusOK && w.Body.String() != want:
						t.Errorf("p=%.2f client %d: op %d on %s -> %d %q, want %d %q",
							prob, id, roll, key, w.Code, w.Body, code, want)
					default:
						lats[id] = append(lats[id], time.Since(t0))
						if roll < 50 {
							shadow[key] = want
						} else if roll >= 85 {
							delete(shadow, key)
						}
					}
				}
			}()
		}
		wg.Wait()

		all := slices.Concat(lats...)
		slices.Sort(all)
		var p50, p99 time.Duration
		if len(all) > 0 {
			p50, p99 = all[len(all)/2], all[len(all)*99/100]
		}
		st := store.Heap().Stats()
		m := sv.Metrics()
		var rej uint64
		for _, r := range rejects {
			rej += r
		}
		t.Logf("p=%.2f: admitted=%d rejected=%d p50=%s p99=%s sheds=%d deadlines=%d spurious=%d stalls=%d",
			prob, len(all), rej, p50, p99, m.Sheds.Load(), m.DeadlineHits.Load(), st.SpuriousAborts(), st.FallbackStalls)
		if prob > 0 {
			rejected += rej
			if p99 > p99Bound {
				t.Errorf("p=%.2f: admitted p99 %s exceeds bound %s", prob, p99, p99Bound)
			}
		}

		// Quiesced: every surviving key must still read back, then drain
		// them all and sweep the heap for leaks and stuck metadata.
		for _, shadow := range shadows {
			for _, k := range slices.Sorted(maps.Keys(shadow)) {
				if val, ok, err := store.Get(bg, []byte(k)); err != nil || !ok || string(val) != shadow[k] {
					t.Errorf("p=%.2f post-run: key %s = %q,%v,%v; model %q", prob, k, val, ok, err, shadow[k])
				} else if existed, err := store.Delete(bg, []byte(k)); err != nil || !existed {
					t.Errorf("p=%.2f post-run: drain DELETE %s = %v,%v", prob, k, existed, err)
				}
			}
		}
		sweepClean(t, store, baseline)
	}
	if rejected == 0 {
		t.Error("overloaded server never shed a request (expected 503s at nonzero injection)")
	}
}
