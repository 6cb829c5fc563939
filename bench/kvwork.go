package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/htm"
	"repro/kv"
)

// kvWorkload describes one of the three key-value workloads.
type kvWorkload struct {
	name    string
	mix     kvMix
	http    bool // over loopback through kv.Server; false = direct kv.Store calls
	durable bool // kv.Open with a WAL synced every batch to the model device, SnapshotEvery 4096
}

var kvWorkloads = []kvWorkload{
	{name: "http-read", mix: kvMix{get: 95, put: 5, keys: 4096, slots: kv.DefaultSlots}, http: true},
	{name: "http-durable-write", mix: kvMix{get: 40, put: 50, del: 10, keys: 4096, slots: kv.DefaultSlots}, http: true, durable: true},
	{name: "store-mixed", mix: kvMix{get: 60, put: 25, del: 10, scan: 5, keys: 8192, zipfS: 1.1, slots: kv.DefaultSlots}},
}

const (
	scanLimit     = 32
	snapshotEvery = 4096
	seedWriters   = 8 // concurrent seeders, so a durable store group-commits its seeding
)

// kvInputs is everything generated from the seed for one KV workload; it is
// built once per run and shared by repeated set-ups.
type kvInputs struct {
	seed uint64
	keys [][]byte
	ops  [][]kvOp // one ring per client
}

func genKVInputs(wl kvWorkload, seed uint64, clients int) *kvInputs {
	in := &kvInputs{seed: seed, keys: genKeys(seed, wl.mix.keys), ops: make([][]kvOp, clients)}
	for c := range in.ops {
		in.ops[c] = genKVOps(seed, c, clients, wl.mix)
	}
	return in
}

// kvEnv is one built system: store, optional server on loopback, clients.
type kvEnv struct {
	wl      kvWorkload
	in      *kvInputs
	store   *kv.Store
	srv     *kv.Server
	clients []*kvClient

	addr     string
	cancel   context.CancelFunc
	serveErr chan error

	walDir string
	tfs    *timingFS // traced durable runs only
	tr     *tracer   // non-nil = traced server wrapper

	goroutines int // count before set-up, restored by teardown
}

// setupKV builds the system under test: heap and store (kv.Open for durable),
// every key seeded at version 1, and for HTTP workloads the server accepting
// on 127.0.0.1:0 in this process. tr non-nil selects the traced variant:
// request spans around the server and, for durable stores, the timing FS.
func setupKV(wl kvWorkload, in *kvInputs, outDir string, tr *tracer) (*kvEnv, error) {
	e := &kvEnv{wl: wl, in: in, tr: tr, goroutines: runtime.NumGoroutine()}
	cfg := kv.Config{}
	if wl.durable {
		dir, err := makeTempDir(outDir, "wal-")
		if err != nil {
			return nil, err
		}
		e.walDir = dir
		device := modelDevice(len(in.ops))
		cfg.Durability = &kv.Durability{Dir: dir, SnapshotEvery: snapshotEvery, FS: device}
		if tr != nil {
			e.tfs = newTimingFS(device, tr)
			cfg.Durability.FS = e.tfs
		}
	}
	store, err := kv.Open(cfg)
	if err != nil {
		removeTempDir(e.walDir)
		return nil, fmt.Errorf("open store: %w", err)
	}
	e.store = store
	if err := e.seedStore(); err != nil {
		return nil, errors.Join(err, e.teardown())
	}
	for c := range in.ops {
		e.clients = append(e.clients, newKVClient(e, c))
	}
	if !wl.http {
		return e, nil
	}
	e.srv = kv.NewServer(store, kv.WithJobs(kv.JobsConfig{})) // kvserver's defaults: jobs on, no admission
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, e.teardown())
	}
	e.addr = ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	e.serveErr = make(chan error, 1)
	if tr == nil {
		go func() { e.serveErr <- e.srv.Serve(ctx, ln) }()
	} else {
		go func() { e.serveErr <- e.serveTraced(ctx, ln) }()
	}
	for _, c := range e.clients {
		c.initHTTP()
	}
	if err := e.clients[0].waitHealthy(); err != nil {
		return nil, errors.Join(err, e.teardown())
	}
	return e, nil
}

func (e *kvEnv) seedStore() error {
	errs := make([]error, seedWriters)
	var wg sync.WaitGroup
	for g := 0; g < seedWriters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var val [valueBytes]byte
			for k := g; k < len(e.in.keys); k += seedWriters {
				encodeValue(val[:], e.in.seed, uint32(k), 1)
				if err := e.store.Put(context.Background(), e.in.keys[k], val[:], 0); err != nil {
					errs[g] = fmt.Errorf("seed key %d: %w", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// serveTraced is kv.Server.Serve with one difference: the handler is wrapped
// so each request carrying an X-Bench-Op header leaves a server span. The
// steps and their order are Serve's: jobs, serve, drain, stop jobs, close.
func (e *kvEnv) serveTraced(ctx context.Context, ln net.Listener) error {
	jobsCtx, stopJobs := context.WithCancel(context.Background())
	jobs := kv.StartJobs(jobsCtx, e.store, kv.JobsConfig{})
	defer func() {
		stopJobs()
		jobs.Wait()
	}()
	hs := &http.Server{Handler: tracedHandler{next: e.srv, tr: e.tr}}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), e.srv.ShutdownGrace)
	defer cancel()
	if err := hs.Shutdown(grace); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return e.store.Close()
}

const opHeader = "X-Bench-Op"

type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

var serverSpanByMethod = map[string]string{
	http.MethodGet:    spanNames["server"][opGet],
	http.MethodPut:    spanNames["server"][opPut],
	http.MethodDelete: spanNames["server"][opDelete],
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(opHeader)
	if id == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := now()
	h.next.ServeHTTP(w, r)
	t1 := now()
	op, _ := strconv.ParseUint(id, 10, 32)
	h.tr.add(serverSpanByMethod[r.Method], t0, t1, -1, uint32(op))
}

// teardown stops everything the set-up started and checks that nothing is
// left: Serve returned nil, the port refuses connections, the heap's metadata
// is quiescent, the WAL directory is gone and the goroutine count is back to
// what it was before set-up.
func (e *kvEnv) teardown() error {
	var errs []error
	if e.cancel != nil {
		e.cancel()
		select {
		case err := <-e.serveErr:
			if err != nil {
				errs = append(errs, fmt.Errorf("serve returned %w", err))
			}
		case <-time.After(15 * time.Second):
			errs = append(errs, errors.New("serve did not return within 15s of cancel"))
		}
	}
	for _, c := range e.clients {
		if c != nil && c.tp != nil {
			c.tp.CloseIdleConnections()
		}
	}
	if err := e.store.Close(); err != nil {
		errs = append(errs, fmt.Errorf("close store: %w", err))
	}
	errs = append(errs, sweepClean(e.store.Heap()))
	if e.walDir != "" {
		errs = append(errs, removeTempDir(e.walDir))
	}
	if e.addr != "" {
		if conn, err := net.DialTimeout("tcp", e.addr, 200*time.Millisecond); err == nil {
			conn.Close()
			errs = append(errs, fmt.Errorf("%s still accepts connections after shutdown", e.addr))
		}
	}
	errs = append(errs, waitGoroutines(e.goroutines))
	return errors.Join(errs...)
}

// sweepClean requires a quiescent heap: no word locked or fallback-tagged, no
// stripe error, and the allocation bits agreeing with the live-word count.
func sweepClean(h *htm.Heap) error {
	ms, st := h.SweepMeta(), h.Stats()
	if ms.Locked != 0 || ms.FallbackTagged != 0 || ms.StripeErrors != 0 || ms.Allocated != st.LiveWords {
		return fmt.Errorf("heap not quiescent: locked=%d fallback-tagged=%d stripe-errors=%d allocated=%d live=%d",
			ms.Locked, ms.FallbackTagged, ms.StripeErrors, ms.Allocated, st.LiveWords)
	}
	return nil
}

// waitGoroutines waits for the goroutine count to fall back to want;
// connection and timer goroutines exit a moment after their owner closes.
func waitGoroutines(want int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			return fmt.Errorf("%d goroutines running, %d before set-up:\n%s", n, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// --- clients -----------------------------------------------------------------

// kvClient is one closed-loop client. Its ring position and its record of
// what it last wrote persist across the windows of one run.
type kvClient struct {
	id  int
	n   uint32 // clients in all: key k belongs to client k%n, at index k/n of ver and present
	env *kvEnv
	ops []kvOp
	pos int
	seq uint32

	// Last acknowledged state of the keys this client owns.
	ver     []uint32
	present []bool

	val [valueBytes]byte // PUT body scratch

	hc       *http.Client
	tp       *http.Transport
	urls     []*url.URL
	body     bytes.Buffer
	traceCtx context.Context
	conns    uint64
	reused   uint64
}

func newKVClient(e *kvEnv, id int) *kvClient {
	of := len(e.in.ops)
	n := len(e.in.keys) / of
	c := &kvClient{id: id, n: uint32(of), env: e, ops: e.in.ops[id], ver: make([]uint32, n), present: make([]bool, n)}
	for i := range c.ver {
		c.ver[i], c.present[i] = 1, true // the seeding wrote version 1 of every key
	}
	return c
}

func (c *kvClient) owns(key uint32) bool { return int(key%c.n) == c.id }

// opID is unique per request across clients: it joins a client span to the
// server span of the same request.
func (c *kvClient) opID() uint32 { return uint32(c.id)<<28 | c.seq&(1<<28-1) }

func (c *kvClient) initHTTP() {
	c.tp = &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	c.hc = &http.Client{Transport: c.tp}
	c.urls = make([]*url.URL, len(c.env.in.keys))
	for i, k := range c.env.in.keys {
		c.urls[i] = &url.URL{Scheme: "http", Host: c.env.addr, Path: "/kv/" + string(k)}
	}
	c.traceCtx = httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			c.conns++
			if info.Reused {
				c.reused++
			}
		},
	})
}

func (c *kvClient) waitHealthy() error {
	u := "http://" + c.env.addr + "/healthz"
	var last error
	for i := 0; i < 200; i++ {
		resp, err := c.hc.Get(u)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		last = err
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("server never became healthy: %w", last)
}

// executor is one rung of the ladder: the same client loop drives the store
// directly, the handler without a socket, or the server over loopback.
type executor interface {
	level() string // span prefix
	everyOp() bool // time every op (HTTP) or 1 in 16 (in-process)
	get(c *kvClient, key uint32) (val []byte, found bool, err error)
	put(c *kvClient, key uint32, val []byte) error
	del(c *kvClient, key uint32) (existed bool, err error)
	scan(c *kvClient, cursor uint64) ([]kv.Pair, error)
}

type storeExec struct{ s *kv.Store }

func (storeExec) level() string { return "store" }
func (storeExec) everyOp() bool { return false }
func (x storeExec) get(c *kvClient, key uint32) ([]byte, bool, error) {
	return x.s.Get(context.Background(), c.env.in.keys[key])
}
func (x storeExec) put(c *kvClient, key uint32, val []byte) error {
	return x.s.Put(context.Background(), c.env.in.keys[key], val, 0)
}
func (x storeExec) del(c *kvClient, key uint32) (bool, error) {
	return x.s.Delete(context.Background(), c.env.in.keys[key])
}
func (x storeExec) scan(c *kvClient, cursor uint64) ([]kv.Pair, error) {
	pairs, _, err := x.s.Scan(context.Background(), cursor, scanLimit)
	return pairs, err
}

// httpExec sends each op as one request on the client's keep-alive
// connection; traced, the request carries its op id and an httptrace hook.
type httpExec struct{ traced bool }

func (httpExec) level() string { return "client" }
func (httpExec) everyOp() bool { return true }

func (x httpExec) do(c *kvClient, method string, key uint32, val []byte) (int, error) {
	req := &http.Request{Method: method, URL: c.urls[key], Host: c.env.addr, Header: http.Header{},
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
	if val != nil {
		req.Body = io.NopCloser(bytes.NewReader(val))
		req.ContentLength = int64(len(val))
	}
	if x.traced {
		req.Header[opHeader] = []string{strconv.FormatUint(uint64(c.opID()), 10)}
		req = req.WithContext(c.traceCtx)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func (x httpExec) get(c *kvClient, key uint32) ([]byte, bool, error) {
	status, err := x.do(c, http.MethodGet, key, nil)
	return getOutcome(status, c.body.Bytes(), err)
}
func (x httpExec) put(c *kvClient, key uint32, val []byte) error {
	status, err := x.do(c, http.MethodPut, key, val)
	return putOutcome(status, err)
}
func (x httpExec) del(c *kvClient, key uint32) (bool, error) {
	status, err := x.do(c, http.MethodDelete, key, nil)
	return delOutcome(status, err)
}
func (httpExec) scan(*kvClient, uint64) ([]kv.Pair, error) {
	return nil, errors.New("scan is not part of the HTTP workloads")
}

func getOutcome(status int, body []byte, err error) ([]byte, bool, error) {
	switch {
	case err != nil:
		return nil, false, err
	case status == http.StatusOK:
		return body, true, nil
	case status == http.StatusNotFound:
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("GET answered %d", status)
}

func putOutcome(status int, err error) error {
	if err == nil && status != http.StatusNoContent {
		err = fmt.Errorf("PUT answered %d", status)
	}
	return err
}

func delOutcome(status int, err error) (bool, error) {
	switch {
	case err != nil:
		return false, err
	case status == http.StatusNoContent:
		return true, nil
	case status == http.StatusNotFound:
		return false, nil
	}
	return false, fmt.Errorf("DELETE answered %d", status)
}

// handlerExec calls the server's handler chain with a recorder and no
// socket: what is left of an HTTP op once the wire is taken away.
type handlerExec struct{ h http.Handler }

func (handlerExec) level() string { return "handler" }
func (handlerExec) everyOp() bool { return true }

func (x handlerExec) do(c *kvClient, method string, key uint32, val []byte) (int, []byte) {
	var body io.Reader
	if val != nil {
		body = bytes.NewReader(val)
	}
	req := httptest.NewRequest(method, c.urls[key].Path, body)
	rec := httptest.NewRecorder()
	x.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func (x handlerExec) get(c *kvClient, key uint32) ([]byte, bool, error) {
	status, body := x.do(c, http.MethodGet, key, nil)
	return getOutcome(status, body, nil)
}
func (x handlerExec) put(c *kvClient, key uint32, val []byte) error {
	status, _ := x.do(c, http.MethodPut, key, val)
	return putOutcome(status, nil)
}
func (x handlerExec) del(c *kvClient, key uint32) (bool, error) {
	status, _ := x.do(c, http.MethodDelete, key, nil)
	return delOutcome(status, nil)
}
func (handlerExec) scan(*kvClient, uint64) ([]kv.Pair, error) {
	return nil, errors.New("scan is not part of the HTTP workloads")
}

// runWindow drives every client through ex for d and merges what they saw.
func (e *kvEnv) runWindow(ex executor, d time.Duration, tr *tracer) *windowResult {
	b := newStartBarrier(len(e.clients))
	recs := make([]*recorder, len(e.clients))
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[c.id] = c.run(ex, b, d, tr)
		}()
	}
	b.release()
	wg.Wait()
	return mergeRecorders(d, recs...)
}

// run is the closed loop: next op from the ring, execute, check, repeat until
// the window closes. Checks run after the op's end time is taken.
func (c *kvClient) run(ex executor, b *startBarrier, d time.Duration, tr *tracer) *recorder {
	r := newRecorder(d, tr, opGet, opPut, opDelete, opScan)
	mask, level, seed := sampleMask, ex.level(), c.env.in.seed
	if ex.everyOp() {
		mask = 0
	}
	r.begin(b.arrive())
	for i := 0; ; i++ {
		o := c.ops[c.pos&(ringLen-1)]
		own := o.key / c.n
		if o.kind == opPut {
			encodeValue(c.val[:], seed, o.key, c.ver[own]+1)
		}
		timed := i&mask == 0
		var t0 int64
		if timed {
			t0 = now()
			if t0 >= r.end {
				break
			}
			r.at(t0)
		}
		c.pos++
		c.seq++
		r.attempted++
		var err error
		switch o.kind {
		case opGet:
			val, found, gerr := ex.get(c, o.key)
			if timed {
				r.observe(level, opGet, t0, now(), c.opID())
			}
			if err = gerr; err == nil {
				err = c.checkGet(o.key, val, found)
			}
		case opPut:
			err = ex.put(c, o.key, c.val[:])
			if timed {
				r.observe(level, opPut, t0, now(), c.opID())
			}
			if err == nil {
				c.ver[own]++
				c.present[own] = true
			}
		case opDelete:
			existed, derr := ex.del(c, o.key)
			if timed {
				r.observe(level, opDelete, t0, now(), c.opID())
			}
			if err = derr; err == nil {
				if existed != c.present[own] {
					err = fmt.Errorf("delete of key %d reported existed=%v, its writer last left present=%v", o.key, existed, c.present[own])
				}
				c.present[own] = false
			}
		case opScan:
			pairs, serr := ex.scan(c, uint64(o.cursor))
			if timed {
				r.observe(level, opScan, t0, now(), c.opID())
			}
			if err = serr; err == nil {
				err = c.checkScan(pairs)
			}
		}
		if err != nil {
			r.fail("client %d %s key %d: %v", c.id, kindNames[o.kind], o.key, err)
		} else {
			r.sliceOps[r.si]++
			r.kindOps[o.kind]++
		}
	}
	return r
}

// checkGet: a found value must be one this seed wrote for this key. The key's
// own writer must also see exactly what it last wrote (or deleted); another
// client may see any version, and a miss only where the mix deletes.
func (c *kvClient) checkGet(key uint32, val []byte, found bool) error {
	own := key / c.n
	if !found {
		if c.owns(key) && c.present[own] {
			return errors.New("missing, but its writer's last acknowledged op was a put")
		}
		if c.env.wl.mix.del == 0 {
			return errors.New("missing in a workload that never deletes")
		}
		return nil
	}
	ver, err := verifyValue(val, c.env.in.seed, key)
	if err != nil {
		return err
	}
	if c.owns(key) && (!c.present[own] || ver != c.ver[own]) {
		return fmt.Errorf("read version %d, its writer last acknowledged version %d present=%v", ver, c.ver[own], c.present[own])
	}
	return nil
}

func (c *kvClient) checkScan(pairs []kv.Pair) error {
	if len(pairs) > scanLimit {
		return fmt.Errorf("scan returned %d pairs, limit %d", len(pairs), scanLimit)
	}
	for _, p := range pairs {
		idx, err := strconv.ParseUint(string(p.Key[1:5]), 16, 32)
		if err != nil || int(idx) >= len(c.env.in.keys) || !bytes.Equal(p.Key, c.env.in.keys[idx]) {
			return fmt.Errorf("scan returned a key this seed never wrote: %q", p.Key)
		}
		if _, err := verifyValue(p.Value, c.env.in.seed, uint32(idx)); err != nil {
			return fmt.Errorf("scan pair %q: %w", p.Key, err)
		}
	}
	return nil
}

// userBytes is the key+value bytes of the live entries.
func (e *kvEnv) userBytes() uint64 {
	return uint64(e.store.Len()) * uint64(len(e.in.keys[0])+valueBytes)
}

// recoverFromSynced is the durability check. It copies only what fsync has
// covered into a fresh directory, opens a store on it and requires every key
// to be in the state its writer last had acknowledged. It returns the number
// of keys that are not, and how long the kv.Open took.
func (e *kvEnv) recoverFromSynced(outDir string) (lost int, openTime time.Duration, err error) {
	dst, err := makeTempDir(outDir, "crash-")
	if err != nil {
		return 0, 0, err
	}
	defer removeTempDir(dst)
	if err := e.tfs.crashCopy(e.walDir, dst); err != nil {
		return 0, 0, fmt.Errorf("crash copy: %w", err)
	}
	t0 := time.Now()
	rs, err := kv.Open(kv.Config{Durability: &kv.Durability{Dir: dst}})
	openTime = time.Since(t0)
	if err != nil {
		return 0, openTime, fmt.Errorf("recover from synced bytes: %w", err)
	}
	defer rs.Close()
	for k, key := range e.in.keys {
		c := e.clients[k%len(e.clients)]
		own := uint32(k) / c.n
		val, found, err := rs.Get(context.Background(), key)
		if err != nil {
			return 0, openTime, err
		}
		ok := found == c.present[own]
		if ok && found {
			ver, verr := verifyValue(val, e.in.seed, uint32(k))
			ok = verr == nil && ver == c.ver[own]
		}
		if !ok {
			lost++
		}
	}
	return lost, openTime, nil
}

// sampleInFlight polls Store.InFlight until stop is closed and returns the
// maximum seen.
func sampleInFlight(s *kv.Store, stop <-chan struct{}) <-chan int {
	out := make(chan int, 1)
	go func() {
		peak := 0
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
				peak = max(peak, s.InFlight())
			}
		}
	}()
	return out
}

// --- temp directories --------------------------------------------------------

// tempDirs lists every directory this process has made and not yet removed,
// so the watchdog can remove them before it exits.
var tempDirs = struct {
	sync.Mutex
	live map[string]bool
}{live: map[string]bool{}}

func makeTempDir(parent, prefix string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(parent, prefix)
	if err != nil {
		return "", err
	}
	tempDirs.Lock()
	tempDirs.live[dir] = true
	tempDirs.Unlock()
	return dir, nil
}

func removeTempDir(dir string) error {
	if dir == "" {
		return nil
	}
	tempDirs.Lock()
	delete(tempDirs.live, dir)
	tempDirs.Unlock()
	return os.RemoveAll(dir)
}

func removeAllTempDirs() {
	tempDirs.Lock()
	defer tempDirs.Unlock()
	for dir := range tempDirs.live {
		os.RemoveAll(dir)
	}
}
