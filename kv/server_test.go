package kv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sv := NewServer(NewStore(Config{Slots: 1024}))
	ts := httptest.NewServer(sv)
	t.Cleanup(ts.Close)
	return sv, ts
}

func doReq(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func TestHTTPRoundTrip(t *testing.T) {
	_, ts := testServer(t)

	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/kv/missing", nil); resp.StatusCode != 404 {
		t.Fatalf("GET missing: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/kv/greeting", []byte("hello")); resp.StatusCode != 204 {
		t.Fatalf("PUT: %d", resp.StatusCode)
	}
	resp, body := doReq(t, http.MethodGet, ts.URL+"/kv/greeting", nil)
	if resp.StatusCode != 200 || string(body) != "hello" {
		t.Fatalf("GET: %d %q", resp.StatusCode, body)
	}
	// Keys may contain slashes ({key...} wildcard).
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/kv/a/nested/key", []byte("deep")); resp.StatusCode != 204 {
		t.Fatalf("PUT nested: %d", resp.StatusCode)
	}
	if _, body := doReq(t, http.MethodGet, ts.URL+"/kv/a/nested/key", nil); string(body) != "deep" {
		t.Fatalf("GET nested: %q", body)
	}
	if resp, _ := doReq(t, http.MethodDelete, ts.URL+"/kv/greeting", nil); resp.StatusCode != 204 {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodDelete, ts.URL+"/kv/greeting", nil); resp.StatusCode != 404 {
		t.Fatalf("DELETE again: %d", resp.StatusCode)
	}
}

func TestHTTPTTL(t *testing.T) {
	_, ts := testServer(t)
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/kv/blink?ttl=30ms", []byte("v")); resp.StatusCode != 204 {
		t.Fatalf("PUT ttl: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/kv/blink", nil); resp.StatusCode != 200 {
		t.Fatalf("GET before expiry: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, _ := doReq(t, http.MethodGet, ts.URL+"/kv/blink", nil)
		if resp.StatusCode == 404 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ttl key never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/kv/k?ttl=bogus", []byte("v")); resp.StatusCode != 400 {
		t.Fatalf("bad ttl: %d", resp.StatusCode)
	}
}

func TestHTTPScan(t *testing.T) {
	_, ts := testServer(t)
	want := map[string]string{}
	for i := 0; i < 25; i++ {
		k, v := fmt.Sprintf("s%02d", i), fmt.Sprintf("v%d", i)
		want[k] = v
		if resp, _ := doReq(t, http.MethodPut, ts.URL+"/kv/"+k, []byte(v)); resp.StatusCode != 204 {
			t.Fatalf("seed PUT: %d", resp.StatusCode)
		}
	}
	got := map[string]string{}
	cursor := uint64(0)
	for {
		resp, body := doReq(t, http.MethodGet, fmt.Sprintf("%s/scan?cursor=%d&limit=10", ts.URL, cursor), nil)
		if resp.StatusCode != 200 {
			t.Fatalf("scan: %d %s", resp.StatusCode, body)
		}
		var page scanResponse
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("scan json: %v", err)
		}
		for _, p := range page.Pairs {
			got[string(p.Key)] = string(p.Value)
		}
		if page.Done {
			break
		}
		cursor = page.Next
	}
	if len(got) != len(want) {
		t.Fatalf("scan over HTTP: %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("scan %q: %q want %q", k, got[k], v)
		}
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/scan?cursor=zap", nil); resp.StatusCode != 400 {
		t.Fatalf("bad cursor: %d", resp.StatusCode)
	}
}

// TestHTTPScanAbsurdLimit: ?limit= is the client's to choose, and a page is
// still at most the slots one Scan covers — answered 200, not sized by the
// limit.
func TestHTTPScanAbsurdLimit(t *testing.T) {
	store := NewStore(Config{Slots: 4 * scanSlotWindow})
	for i := 0; i < 3*scanSlotWindow-100; i++ {
		mustPut(t, store, fmt.Sprintf("k%05d", i), "v")
	}
	ts := httptest.NewServer(NewServer(store))
	defer ts.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, body := doReq(t, http.MethodGet, ts.URL+"/scan?limit=2000000000", nil)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != 200 {
		t.Fatalf("scan with an absurd limit: %d %s", resp.StatusCode, body)
	}
	var page scanResponse
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("scan json: %v", err)
	}
	if len(page.Pairs) == 0 || len(page.Pairs) > scanSlotWindow || page.Next != scanSlotWindow || page.Done {
		t.Fatalf("page: %d pairs, next %d, done %v; want 1..%d pairs, next %d, not done",
			len(page.Pairs), page.Next, page.Done, scanSlotWindow, scanSlotWindow)
	}
	// Request, page, JSON both ways and this test's own decode: a few hundred
	// KiB. A page or arena sized by the limit would be gigabytes.
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("the request allocated %d bytes for a %d-pair page", got, len(page.Pairs))
	}
}

func TestHTTPValueTooLargeAndFull(t *testing.T) {
	sv := NewServer(NewStore(Config{Slots: 16, MaxValueBytes: 64}))
	ts := httptest.NewServer(sv)
	defer ts.Close()

	big := bytes.Repeat([]byte("x"), 65)
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/kv/big", big); resp.StatusCode != 400 {
		t.Fatalf("oversized PUT: %d", resp.StatusCode)
	}
	var sawFull bool
	for i := 0; i < 16; i++ {
		resp, _ := doReq(t, http.MethodPut, ts.URL+fmt.Sprintf("/kv/f%d", i), []byte("v"))
		if resp.StatusCode == http.StatusInsufficientStorage {
			sawFull = true
			break
		}
		if resp.StatusCode != 204 {
			t.Fatalf("PUT f%d: %d", i, resp.StatusCode)
		}
	}
	if !sawFull {
		t.Fatal("never saw 507 at the load-factor ceiling")
	}
}

func TestHTTPStatsAndMetrics(t *testing.T) {
	sv, ts := testServer(t)
	doReq(t, http.MethodPut, ts.URL+"/kv/m", []byte("v"))
	doReq(t, http.MethodGet, ts.URL+"/kv/m", nil)
	doReq(t, http.MethodGet, ts.URL+"/kv/absent", nil) // 404 -> 4xx counter

	resp, body := doReq(t, http.MethodGet, ts.URL+"/stats", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats json: %v (%s)", err, body)
	}
	if st.Heap["commits"] == nil || st.Store["count"] == nil {
		t.Fatalf("stats missing layers: %s", body)
	}
	if n := st.Store["count"].(float64); n != 1 {
		t.Fatalf("stats count: %v", n)
	}
	m := sv.Metrics().Snapshot()
	if m.Requests < 4 {
		t.Fatalf("requests counter: %d", m.Requests)
	}
	if m.Errors4xx < 1 {
		t.Fatalf("4xx counter: %d", m.Errors4xx)
	}
	if m.MeanLatencyUs <= 0 {
		t.Fatalf("mean latency: %v", m.MeanLatencyUs)
	}
}

func TestRecoveryMiddleware(t *testing.T) {
	var m Metrics
	var logged bool
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("heap exhausted (simulated)")
	}), WithMetrics(&m), WithRecovery(&m, func(string, ...any) { logged = true }))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("panic -> %d, want 503", resp.StatusCode)
	}
	if m.Panics.Load() != 1 || !logged {
		t.Fatalf("panic not recorded: panics=%d logged=%v", m.Panics.Load(), logged)
	}
	if m.Errors5xx.Load() != 1 {
		t.Fatalf("5xx not counted: %d", m.Errors5xx.Load())
	}
}

// TestGracefulShutdown is the satellite: a Serve-managed server under live
// concurrent traffic is told to stop; every in-flight request must complete
// or abort cleanly (a real status or a connection error — never a hang or a
// torn response), Serve must return nil, and the job pipeline must drain.
// Run under -race this also proves shutdown has no unsynchronized state.
func TestGracefulShutdown(t *testing.T) {
	store := NewStore(Config{Slots: 4096, PoolThreads: 8})
	sv := NewServer(store, WithJobs(JobsConfig{Interval: 5 * time.Millisecond, Workers: 2}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- sv.Serve(ctx, ln) }()

	// Wait for the server to accept.
	waitUntil(t, "server up", func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == 200
	})

	// Concurrent traffic: writers with TTLs (feeding the expiry pipeline),
	// readers, scanners. They run until their requests start failing with
	// connection errors — which is only legal AFTER cancel is requested.
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		cancelAt    time.Time
		earlyErrors []string
	)
	stop := make(chan struct{})
	client := &http.Client{Timeout: 10 * time.Second}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var resp *http.Response
				var err error
				switch g % 3 {
				case 0:
					req, _ := http.NewRequest(http.MethodPut,
						fmt.Sprintf("%s/kv/w%d-%d?ttl=50ms", base, g, i%64),
						strings.NewReader("payload"))
					resp, err = client.Do(req)
				case 1:
					resp, err = client.Get(fmt.Sprintf("%s/kv/w0-%d", base, i%64))
				default:
					resp, err = client.Get(base + "/scan?limit=16")
				}
				if err != nil {
					mu.Lock()
					if cancelAt.IsZero() {
						earlyErrors = append(earlyErrors, err.Error())
					}
					mu.Unlock()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					mu.Lock()
					earlyErrors = append(earlyErrors, fmt.Sprintf("status %d", resp.StatusCode))
					mu.Unlock()
					return
				}
			}
		}(g)
	}

	time.Sleep(100 * time.Millisecond) // let traffic and sweeps overlap
	mu.Lock()
	cancelAt = time.Now()
	mu.Unlock()
	cancel()

	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	close(stop)
	wg.Wait()

	if len(earlyErrors) > 0 {
		t.Fatalf("requests failed before shutdown was requested: %v", earlyErrors)
	}
	// The engine is still coherent after shutdown: counters match a scan.
	n := 0
	for cursor := uint64(0); cursor < store.Slots(); {
		pairs, next, err := store.Scan(bg, cursor, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		n += len(pairs)
		cursor = next
	}
	if live := store.Len(); n > live {
		// Scan can read fewer than Len (lazy TTL) but never more.
		t.Fatalf("post-shutdown scan found %d entries, Len says %d", n, live)
	}
	// Serve's deferred jobs.Wait already returned, so the pipeline is fully
	// drained; a second listener can reuse the store immediately.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() { done2 <- sv.Serve(ctx2, ln2) }()
	waitUntil(t, "server restart", func() bool {
		resp, err := http.Get("http://" + ln2.Addr().String() + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return true
	})
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second Serve: %v", err)
	}
}

// TestShutdownAbortsIdleKeepalives: Shutdown must not wait out ShutdownGrace
// when the only connections are idle keepalives.
func TestShutdownQuickWhenIdle(t *testing.T) {
	sv := NewServer(NewStore(Config{Slots: 256}))
	sv.ShutdownGrace = 30 * time.Second // would be noticed if waited out
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sv.Serve(ctx, ln) }()
	waitUntil(t, "server up", func() bool {
		resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return true
	})
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle shutdown took too long")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("idle shutdown took %s", d)
	}
}
