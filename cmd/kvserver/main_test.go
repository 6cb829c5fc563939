package main

// These tests run the real server binary — their own test binary, re-executed
// with childEnv set — and drive it over HTTP and signals. The crash test
// SIGKILLs it at seeded points under live write load, tears and corrupts its
// commit log, and checks that recovery preserved every acknowledged write:
// the durability contract of kv/wal, end to end through real processes, the
// real filesystem and real fsyncs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// childEnv marks a re-executed test binary as the server.
const childEnv = "KVSERVER_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// hc keeps an idle connection per concurrent writer (the default keeps two),
// so the crash test's write storm does not churn through ephemeral ports.
var hc = &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 8}}

// do issues one request and returns its status and body.
func do(method, url, body string) (int, string, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// output collects a server's log and hands the address of its readiness line
// to ready, once.
type output struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan<- string
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf.Write(p)
	if o.ready != nil {
		_, rest, _ := strings.Cut(o.buf.String(), "serving on http://")
		if addr, _, ok := strings.Cut(rest, " "); ok {
			o.ready <- addr
			o.ready = nil
		}
	}
	return len(p), nil
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

type proc struct {
	cmd   *exec.Cmd
	out   *output
	base  string        // http://host:port, once ready
	ready time.Duration // spawn to readiness line, which includes recovery
	done  chan struct{} // closed once the process is reaped
}

// spawn starts the server on a free loopback port; args come after -addr, so
// they may override it. The process is SIGKILLed at test end if still alive.
func spawn(t *testing.T, ready chan<- string, args ...string) *proc {
	t.Helper()
	p := &proc{out: &output{ready: ready}, done: make(chan struct{})}
	p.cmd = exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// A race-enabled child would otherwise sleep 1 s at every exit.
	p.cmd.Env = append(os.Environ(), childEnv+"=1", "GORACE="+os.Getenv("GORACE")+" atexit_sleep_ms=0")
	p.cmd.Stdout, p.cmd.Stderr = p.out, p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.cmd.Wait(); close(p.done) }()
	t.Cleanup(p.kill)
	return p
}

// start spawns the server and waits for its readiness line.
func start(t *testing.T, args ...string) *proc {
	t.Helper()
	ready := make(chan string, 1)
	t0 := time.Now()
	p := spawn(t, ready, args...)
	select {
	case addr := <-ready:
		p.base, p.ready = "http://"+addr, time.Since(t0)
	case <-p.done:
		t.Fatalf("server exited before readiness (%s); output:\n%s", p.cmd.ProcessState, p.out)
	case <-time.After(30 * time.Second):
		t.Fatalf("server not ready after 30s; output:\n%s", p.out)
	}
	return p
}

// kill SIGKILLs the server — the crash primitive — and reaps it.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// wait returns the exit status of a server that exits on its own (-1 if a
// signal killed it).
func (p *proc) wait(t *testing.T) int {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		p.kill()
		t.Fatalf("no exit within 30s; output:\n%s", p.out)
	}
	return p.cmd.ProcessState.ExitCode()
}

// term sends SIGTERM and requires the graceful-shutdown exit status 0.
func (p *proc) term(t *testing.T) {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	if code := p.wait(t); code != 0 {
		t.Errorf("exit %d after SIGTERM, want 0; output:\n%s", code, p.out)
	}
}

// walStats is the /stats "wal" section.
type walStats struct {
	Failures uint64 `json:"failures"`
	Recovery struct {
		Clean           bool   `json:"clean"`
		SnapshotEntries uint64 `json:"snapshot_entries"`
		LogRecords      uint64 `json:"log_records"`
		TruncatedBytes  int64  `json:"truncated_bytes"`
	} `json:"recovery"`
}

func (p *proc) walStats(t *testing.T) walStats {
	t.Helper()
	var decoded struct{ Wal *walStats }
	status, body, err := do(http.MethodGet, p.base+"/stats", "")
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal([]byte(body), &decoded)
	}
	if err != nil || decoded.Wal == nil {
		t.Fatalf("/stats wal section: status %d, %v\n%s", status, err, body)
	}
	return *decoded.Wal
}

// want issues one request and requires its status (and body, if wantBody is
// not empty).
func (p *proc) want(t *testing.T, status int, method, path, body, wantBody string) {
	t.Helper()
	got, b, err := do(method, p.base+path, body)
	if err != nil || got != status || wantBody != "" && !strings.Contains(b, wantBody) {
		t.Errorf("%s %s = %d %q, %v; want %d %q", method, path, got, b, err, status, wantBody)
	}
}

// TestServeRoutesThenListenFailure serves every route over real HTTP, shuts
// down with SIGTERM, then fails to start on an occupied port: that failed
// start must leave the clean-shutdown marker in place.
func TestServeRoutesThenListenFailure(t *testing.T) {
	dir := t.TempDir()
	p := start(t, "-wal-dir", dir)
	p.want(t, http.StatusOK, http.MethodGet, "/healthz", "", "")
	p.want(t, http.StatusNoContent, http.MethodPut, "/kv/alpha", "one", "")
	p.want(t, http.StatusNoContent, http.MethodPut, "/kv/beta", "two", "")
	p.want(t, http.StatusOK, http.MethodGet, "/kv/alpha", "", "one")
	p.want(t, http.StatusOK, http.MethodGet, "/scan?limit=10", "", `"pairs"`)
	p.want(t, http.StatusNoContent, http.MethodDelete, "/kv/beta", "", "")
	p.want(t, http.StatusNotFound, http.MethodGet, "/kv/beta", "", "")
	p.want(t, http.StatusNotFound, http.MethodDelete, "/kv/beta", "", "")
	p.want(t, http.StatusOK, http.MethodGet, "/stats", "", `"store"`)
	p.term(t)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if p := spawn(t, nil, "-wal-dir", dir, "-addr", ln.Addr().String()); p.wait(t) != 1 {
		t.Errorf("start on an occupied port: exit %d, want 1; output:\n%s", p.cmd.ProcessState.ExitCode(), p.out)
	}

	p = start(t, "-wal-dir", dir)
	if st := p.walStats(t); !st.Recovery.Clean {
		t.Errorf("recovery after a failed listen not clean: %+v", st)
	}
	p.want(t, http.StatusOK, http.MethodGet, "/kv/alpha", "", "one")
	p.term(t)
}

// TestFlagSurface pins the server's flags to the ones the knob census kept
// (ROADMAP.md, direction 8): each backs a kv.Config, kv.Durability,
// kv.JobsConfig or htm.FaultPlan field or a server option, so adding or
// reviving one has to be a deliberate diff here too. It reads the names from
// the real binary's -h output.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "admission", "fault-access", "fault-begin", "fault-commit",
		"fault-seed", "fault-stall", "fsync", "global-fallback", "heap-words",
		"job-workers", "max-retries", "max-value", "pool", "req-timeout",
		"segment-bytes", "slots", "snapshot-every", "sweep", "verbose", "wal-dir",
	}
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("kvserver -h: %v; output:\n%s", err, out)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ := strings.Cut(rest, " ")
			got = append(got, name)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("kvserver flags:\n got %v\nwant %v", got, want)
	}
}

// TestSIGTERMAtReadiness signals each of 10 starts the moment its readiness
// line appears. Every one must drain and exit 0, and each durable start must
// find the previous one's clean-shutdown marker.
func TestSIGTERMAtReadiness(t *testing.T) {
	dir := t.TempDir()
	p := start(t, "-wal-dir", dir)
	// A logged write, so a lost marker cannot pass for a fresh directory.
	p.want(t, http.StatusNoContent, http.MethodPut, "/kv/k", "v", "")
	p.term(t)
	for i := range 10 {
		args := []string{"-wal-dir", dir}
		if i%2 == 1 {
			args = nil // in-memory leg
		}
		p := start(t, args...)
		p.term(t)
		if args != nil && !strings.Contains(p.out.String(), "clean start from") {
			t.Errorf("start %d: previous SIGTERM left no clean marker; output:\n%s", i, p.out)
		}
	}
	p = start(t, "-wal-dir", dir)
	if st := p.walStats(t); !st.Recovery.Clean {
		t.Errorf("recovery after the last SIGTERM not clean: %+v", st)
	}
}

// TestCrashRecovery runs the crash scenario: seeded SIGKILL/restart cycles
// under write load, a garbage tail, a chopped tail, a SIGTERM round-trip and
// mid-log corruption. Any lost acknowledged write, any read of a value never
// written, or any broken shutdown or refuse-to-start contract fails it.
func TestCrashRecovery(t *testing.T) {
	cycles, clients, keys := 5, 4, 24
	if testing.Short() {
		cycles, clients, keys = 2, 2, 8
	}
	c := &crashRun{
		t:    t,
		dir:  t.TempDir(),
		rng:  rand.New(rand.NewPCG(1, 0)),
		args: []string{"-slots", "4096", "-snapshot-every", "400", "-segment-bytes", "32768"},
	}
	for id := range clients {
		st := &clientState{id: id, conf: map[string]string{}, cand: map[string]map[string]bool{}, hist: map[string]map[string]bool{}}
		for k := range keys {
			st.keys = append(st.keys, fmt.Sprintf("c%d-k%02d", id, k))
		}
		c.states = append(c.states, st)
	}

	// Kill cycles: the seeded delay lands the SIGKILL inside the write storm,
	// away from both the idle start and a drained end.
	c.start()
	var lost uint64
	for cycle := 1; cycle <= cycles; cycle++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var acked atomic.Uint64
		for _, st := range c.states {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st.write(c.p.base, rand.New(rand.NewPCG(uint64(cycle), uint64(st.id))), cycle, stop, &acked)
			}()
		}
		time.Sleep(time.Duration(120+c.rng.IntN(130)) * time.Millisecond)
		c.p.kill()
		close(stop)
		wg.Wait()
		c.start()
		ws := c.p.walStats(t)
		verified, l := c.verify(false)
		lost += l
		t.Logf("cycle %d: acked=%d verified=%d lost=%d replayed=%d+%d recover=%s",
			cycle, acked.Load(), verified, l, ws.Recovery.SnapshotEntries, ws.Recovery.LogRecords, c.p.ready.Round(time.Microsecond))
	}

	// Garbage appended to the live tail must be truncated away with zero
	// acknowledged loss.
	c.p.kill()
	garbage := make([]byte, 64+c.rng.IntN(192))
	for i := range garbage {
		garbage[i] = byte(c.rng.Uint32())
	}
	path, _ := c.lastSegment()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err == nil {
		_, err = f.Write(garbage)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	c.start()
	ws := c.p.walStats(t)
	if ws.Recovery.TruncatedBytes < int64(len(garbage)) {
		t.Errorf("torn: appended %dB of garbage but recovery truncated only %dB", len(garbage), ws.Recovery.TruncatedBytes)
	}
	verified, l := c.verify(false)
	lost += l
	t.Logf("torn: verified=%d lost=%d truncated=%dB", verified, l, ws.Recovery.TruncatedBytes)

	// Chop the tail mid-record: acknowledged tail records may be lost — that
	// is the point — but no read may return a value the test did not write.
	c.p.kill()
	path, size := c.lastSegment()
	chop := int64(0)
	if size > 0 {
		chop = 1 + int64(c.rng.IntN(int(min(64, size))))
		if err := os.Truncate(path, size-chop); err != nil {
			t.Fatal(err)
		}
	}
	c.start()
	c.verify(true)
	t.Logf("chop: cut %dB of %dB", chop, size)

	// SIGTERM exits 0, the next start reports a clean recovery, and nothing
	// is lost.
	c.p.term(t)
	c.start()
	if st := c.p.walStats(t); !st.Recovery.Clean || st.Failures > 0 {
		t.Errorf("after SIGTERM: recovery clean=%v, %d durability failures", st.Recovery.Clean, st.Failures)
	}
	verified, l = c.verify(false)
	lost += l
	t.Logf("clean restart: verified=%d lost=%d", verified, l)
	c.p.term(t)
	t.Logf("lost acknowledged writes: %d", lost)

	// Mid-log corruption in a fresh log must refuse startup with exit 3 and
	// an actionable message. Snapshots off and tiny segments so the writes
	// span several segment files; the corruption lands in the first.
	dir := t.TempDir()
	args := append(c.args, "-wal-dir", dir, "-snapshot-every", "0", "-segment-bytes", "2048")
	p := start(t, args...)
	for i := range 220 {
		p.want(t, http.StatusNoContent, http.MethodPut, fmt.Sprintf("/kv/m%03d", i), fmt.Sprintf("midlog-value-%06d", i), "")
	}
	p.kill()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("midlog: %d segments, want at least 2", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil || len(data) == 0 {
		t.Fatalf("midlog: read %s: %d bytes, %v", segs[0], len(data), err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if p := spawn(t, nil, args...); p.wait(t) != 3 || !strings.Contains(p.out.String(), "unrecoverable") {
		t.Errorf("midlog: corrupted restart exit %d, want 3 with an actionable message; output:\n%s",
			p.cmd.ProcessState.ExitCode(), p.out)
	}
}

// crashRun owns the durability directory, the server process and the
// clients' shadow state across kill cycles.
type crashRun struct {
	t      *testing.T
	dir    string
	rng    *rand.Rand // kill timing and tail damage
	args   []string
	states []*clientState
	p      *proc
}

func (c *crashRun) start() {
	c.t.Helper()
	c.p = start(c.t, append(c.args, "-wal-dir", c.dir)...)
}

func (c *crashRun) lastSegment() (string, int64) {
	c.t.Helper()
	segs, _ := filepath.Glob(filepath.Join(c.dir, "wal-*.seg"))
	if len(segs) == 0 {
		c.t.Fatalf("no commit-log segments in %s", c.dir)
	}
	fi, err := os.Stat(segs[len(segs)-1])
	if err != nil {
		c.t.Fatal(err)
	}
	return segs[len(segs)-1], fi.Size()
}

// verify reads back every key each client owns and checks it against the
// shadow state, then resyncs the shadows to the observed (now durable)
// state. In chop mode acknowledged losses are tolerated but any value never
// written is a violation.
func (c *crashRun) verify(chop bool) (verified, lost uint64) {
	c.t.Helper()
	for _, st := range c.states {
		for _, key := range st.keys {
			status, val, err := do(http.MethodGet, c.p.base+"/kv/"+key, "")
			present := status == http.StatusOK
			if err != nil || !present && status != http.StatusNotFound {
				c.t.Errorf("client %d: GET %s = %d, %v", st.id, key, status, err)
				continue
			}
			verified++
			confVal, confirmed := st.conf[key]
			var ok bool
			switch {
			case chop:
				ok = !present || st.hist[key][val]
			case present:
				ok = confirmed && val == confVal || st.cand[key][val]
			default:
				ok = !confirmed || st.cand[key][candDeleted]
			}
			if !ok {
				lost++
				c.t.Errorf("client %d key %s: observed %q (present=%v), confirmed %q (confirmed=%v), %d candidate(s)",
					st.id, key, val, present, confVal, confirmed, len(st.cand[key]))
			}
			if present {
				st.conf[key] = val
			} else {
				delete(st.conf, key)
			}
			delete(st.cand, key)
		}
	}
	return verified, lost
}

// candDeleted marks "absent" as a candidate post-crash state for a key whose
// DELETE received no acknowledgment.
const candDeleted = "\x00deleted"

// clientState is one writer's shadow of its disjoint key partition.
//
//   - conf holds the last acknowledged durable state per key (absence means
//     confirmed-absent): the server appends to the commit log before it
//     responds, so an acknowledged op must survive any later crash.
//   - cand holds the states unacknowledged ops may have left behind
//     (connection killed mid-request, 5xx): each may or may not have
//     committed. Candidates clear only after a restart, when the observed
//     state is known durable — a still-running handler of a timed-out
//     request could otherwise commit after a later acknowledged op.
//   - hist holds every value ever attempted, the corruption bound: no read
//     may ever return a value outside it.
type clientState struct {
	id         int
	keys       []string
	conf       map[string]string
	cand, hist map[string]map[string]bool
	serial     int
}

func note(m map[string]map[string]bool, key, val string) {
	if m[key] == nil {
		m[key] = make(map[string]bool)
	}
	m[key][val] = true
}

// write PUTs (75%) and DELETEs keys of st's partition until stop closes.
func (st *clientState) write(base string, r *rand.Rand, cycle int, stop <-chan struct{}, acked *atomic.Uint64) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		key := st.keys[r.IntN(len(st.keys))]
		if r.IntN(100) < 75 {
			st.serial++
			val := fmt.Sprintf("s%d.c%d.%d", cycle, st.id, st.serial)
			note(st.hist, key, val)
			if status, _, err := do(http.MethodPut, base+"/kv/"+key, val); err == nil && status == http.StatusNoContent {
				st.conf[key] = val
				acked.Add(1)
			} else {
				note(st.cand, key, val)
			}
		} else if status, _, err := do(http.MethodDelete, base+"/kv/"+key, ""); err == nil && status == http.StatusNoContent {
			delete(st.conf, key)
			acked.Add(1)
		} else {
			// 404 (nothing logged) or an ambiguous failure: the key may
			// show up absent after the crash.
			note(st.cand, key, candDeleted)
		}
	}
}
