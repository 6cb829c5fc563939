// Command crashkv is the crash-consistency harness: it repeatedly SIGKILLs a
// real kvserver process at seeded points under live write load, restarts it,
// and verifies that recovery preserved every acknowledged write — the
// durability contract of the kv/wal commit log, checked end-to-end through
// the real binary, the real filesystem and real fsyncs.
//
// Three phases, all driven by one seed:
//
//  1. Kill cycles: concurrent clients PUT/DELETE against the server; after a
//     seeded delay the process is SIGKILLed mid-flight, restarted, and every
//     key is read back. Each client tracks its confirmed state (last
//     acknowledged op per key) plus the candidate states of operations whose
//     responses were lost in the crash; an observed value outside that set
//     is a lost acknowledged write or a corrupt read — both fatal.
//  2. Torn writes: seeded garbage is appended to the live tail segment (the
//     server must truncate it and lose nothing), then the tail is chopped
//     mid-record (losses are expected but every surviving value must be one
//     the harness actually wrote — corruption is never acceptable).
//  3. Mid-log corruption: a byte is flipped inside a non-final segment of a
//     fresh log; the server must refuse to start with exit status 3 and an
//     actionable message rather than serve state it cannot trust.
//
// The phase ends with a SIGTERM: the exit status must be 0 and the next
// start must report a clean recovery (the shutdown marker round-trip).
//
// The summary line `crash-verdict: ...` contains only seed-deterministic
// fields; CI runs the harness twice with the same seed and diffs the lines.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/harness"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Uint64("seed", 1, "kill-timing and workload seed (replay a run by its seed)")
	cycles := flag.Int("cycles", 6, "SIGKILL/restart cycles in phase 1")
	clients := flag.Int("clients", 4, "concurrent writer clients during each cycle")
	keysPer := flag.Int("keys", 24, "keys owned by each client")
	server := flag.String("server", "", "kvserver binary to exercise (empty = go build ./cmd/kvserver)")
	dataDir := flag.String("dir", "", "durability directory (empty = temp dir, removed on exit)")
	quick := flag.Bool("quick", false, "reduced run: 5 cycles and shorter kill windows")
	flag.Parse()

	if *quick && *cycles > 5 {
		*cycles = 5
	}
	if *cycles < 1 || *clients < 1 || *keysPer < 1 {
		fmt.Fprintln(os.Stderr, "crashkv: -cycles, -clients and -keys must be positive")
		return 2
	}

	bin := *server
	if bin == "" {
		tmp, err := os.MkdirTemp("", "crashkv-bin-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashkv: %v\n", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		bin = filepath.Join(tmp, "kvserver")
		build := exec.Command("go", "build", "-o", bin, "./cmd/kvserver")
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "crashkv: build kvserver: %v\n%s", err, out)
			return 1
		}
	}

	dir := *dataDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "crashkv-wal-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashkv: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
	}

	h := &crashHarness{
		bin:    bin,
		dir:    dir,
		seed:   *seed,
		quick:  *quick,
		rng:    newRNG(*seed),
		states: newClientStates(*clients, *keysPer),
		serverArgs: []string{
			"-addr", "127.0.0.1:0",
			"-slots", "4096",
			"-snapshot-every", "400",
			"-segment-bytes", "32768",
		},
	}

	failures := 0
	fail := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "crashkv: VIOLATION: "+format+"\n", a...)
		failures++
	}

	// Phase 1: seeded SIGKILL/restart cycles under load.
	if err := h.start(); err != nil {
		fmt.Fprintf(os.Stderr, "crashkv: initial start: %v\n", err)
		return 1
	}
	var lostAcked uint64
	for c := 1; c <= *cycles; c++ {
		pt, viols, err := h.killCycle(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashkv: cycle %d: %v\n", c, err)
			h.stop()
			return 1
		}
		for _, v := range viols {
			fail("cycle %d: %s", c, v)
		}
		lostAcked += pt.Lost
		h.points = append(h.points, pt)
		fmt.Printf("# cycle %d: acked=%d verified=%d lost=%d replayed=%d+%d recover=%s\n",
			c, pt.Acked, pt.Verified, pt.Lost, pt.SnapEntries, pt.LogRecords, pt.Recover.Round(time.Microsecond))
	}

	// Phase 2a: garbage appended to the live tail must be truncated away
	// with zero acknowledged loss.
	tornOK := true
	pt, viols, err := h.garbageTail()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashkv: torn phase: %v\n", err)
		h.stop()
		return 1
	}
	for _, v := range viols {
		fail("torn: %s", v)
		tornOK = false
	}
	lostAcked += pt.Lost
	h.points = append(h.points, pt)
	fmt.Printf("# torn: verified=%d lost=%d truncated=%dB recover=%s\n",
		pt.Verified, pt.Lost, pt.TruncatedBytes, pt.Recover.Round(time.Microsecond))

	// Phase 2b: chop the tail mid-record. Acked tail records may be lost —
	// that is the point — but no read may ever return a value the harness
	// did not write.
	if viols, err := h.chopTail(); err != nil {
		fmt.Fprintf(os.Stderr, "crashkv: chop phase: %v\n", err)
		h.stop()
		return 1
	} else {
		for _, v := range viols {
			fail("chop: %s", v)
			tornOK = false
		}
	}

	// Graceful-shutdown round-trip: SIGTERM exits 0, the next start reports
	// a clean recovery, and the state is byte-identical.
	cleanExitOK, cleanRecoveryOK := true, true
	if code, err := h.term(); err != nil || code != 0 {
		fail("SIGTERM exit: code=%d err=%v", code, err)
		cleanExitOK = false
	}
	if err := h.start(); err != nil {
		fmt.Fprintf(os.Stderr, "crashkv: restart after clean shutdown: %v\n", err)
		return 1
	}
	if st, err := h.fetchStats(); err != nil {
		fail("stats after clean shutdown: %v", err)
		cleanRecoveryOK = false
	} else {
		if st.Recovery == nil || !st.Recovery.Clean {
			fail("recovery after SIGTERM not reported clean: %+v", st.Recovery)
			cleanRecoveryOK = false
		}
		if st.Failures > 0 {
			fail("server reported %d durability failures", st.Failures)
		}
	}
	verified, lost, vv := h.verify(false)
	for _, v := range vv {
		fail("clean restart: %s", v)
	}
	if lost > 0 {
		lostAcked += lost
		cleanRecoveryOK = false
	}
	fmt.Printf("# clean restart: verified=%d lost=%d\n", verified, lost)
	if code, err := h.term(); err != nil || code != 0 {
		fail("final SIGTERM exit: code=%d err=%v", code, err)
		cleanExitOK = false
	}

	// Phase 3: mid-log corruption in a fresh directory must refuse startup
	// with exit status 3.
	midlogOK, midlogDesc := h.midlog()
	if !midlogOK {
		fail("midlog: %s", midlogDesc)
	}
	fmt.Printf("# midlog: %s\n", midlogDesc)

	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "FAIL"
	}
	fmt.Printf("crash-verdict: seed=%d cycles=%d lost-acked=%d torn=%s midlog=%s clean-exit=%s clean-recovery=%s\n",
		*seed, *cycles, lostAcked, verdict(tornOK && lostAcked == 0), verdict(midlogOK),
		verdict(cleanExitOK), verdict(cleanRecoveryOK))

	for _, t := range harness.DurabilityTables(h.points) {
		fmt.Println(t.Render())
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "crashkv: FAILED with %d violation(s)\n", failures)
		return 1
	}
	fmt.Println("# crashkv: all phases passed")
	return 0
}

// crashHarness owns the server lifecycle, the durability directory and the
// clients' shadow state across kill cycles.
type crashHarness struct {
	bin        string
	dir        string
	seed       uint64
	quick      bool
	serverArgs []string
	rng        *rng
	states     []*clientState
	proc       *proc
	points     []harness.DurabilityPoint
}

func (h *crashHarness) args(dir string, extra ...string) []string {
	out := append([]string{}, h.serverArgs...)
	out = append(out, "-wal-dir", dir)
	return append(out, extra...)
}

func (h *crashHarness) start() error {
	p, err := startServer(h.bin, h.args(h.dir))
	if err != nil {
		return err
	}
	h.proc = p
	return nil
}

func (h *crashHarness) stop() {
	if h.proc != nil {
		h.proc.kill()
		h.proc = nil
	}
}

func (h *crashHarness) term() (int, error) {
	p := h.proc
	h.proc = nil
	return p.term()
}

// killCycle drives the clients, SIGKILLs the server after a seeded delay,
// restarts it and verifies every key against the shadow state.
func (h *crashHarness) killCycle(cycle int) (harness.DurabilityPoint, []string, error) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var acked atomic.Uint64
	runWorkload(h.proc.base, h.states, h.seed, cycle, stop, &wg, &acked)

	// The seeded delay positions the kill inside the write storm; the jitter
	// range keeps it away from both the idle start and a drained end.
	lo, span := uint64(250), uint64(250)
	if h.quick {
		lo, span = 120, 130
	}
	time.Sleep(time.Duration(lo+h.rng.next()%span) * time.Millisecond)
	h.proc.kill()
	close(stop)
	wg.Wait()

	if err := h.start(); err != nil {
		return harness.DurabilityPoint{}, nil, fmt.Errorf("restart: %w", err)
	}
	st, err := h.fetchStats()
	if err != nil {
		return harness.DurabilityPoint{}, nil, err
	}
	verified, lost, viols := h.verify(false)
	pt := harness.DurabilityPoint{
		Cycle:    cycle,
		Acked:    acked.Load(),
		Verified: verified,
		Lost:     lost,
		Recover:  h.proc.ready,
	}
	if st.Recovery != nil {
		pt.LogRecords = st.Recovery.LogRecords
		pt.SnapEntries = st.Recovery.SnapshotEntries
		pt.TruncatedBytes = st.Recovery.TruncatedBytes
	}
	return pt, viols, nil
}

// garbageTail kills the idle server, appends seeded garbage to the tail
// segment and checks that restart truncates it with zero acknowledged loss.
func (h *crashHarness) garbageTail() (harness.DurabilityPoint, []string, error) {
	h.stop()
	path, _, err := lastSegment(h.dir)
	if err != nil {
		return harness.DurabilityPoint{}, nil, err
	}
	garbage := make([]byte, 64+h.rng.next()%192)
	for i := range garbage {
		garbage[i] = byte(h.rng.next())
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return harness.DurabilityPoint{}, nil, err
	}
	if _, err := f.Write(garbage); err != nil {
		f.Close()
		return harness.DurabilityPoint{}, nil, err
	}
	f.Close()

	if err := h.start(); err != nil {
		return harness.DurabilityPoint{}, nil, fmt.Errorf("restart after garbage append: %w", err)
	}
	st, err := h.fetchStats()
	if err != nil {
		return harness.DurabilityPoint{}, nil, err
	}
	verified, lost, viols := h.verify(false)
	pt := harness.DurabilityPoint{
		Label:    "torn",
		Verified: verified,
		Lost:     lost,
		Recover:  h.proc.ready,
	}
	if st.Recovery != nil {
		pt.LogRecords = st.Recovery.LogRecords
		pt.SnapEntries = st.Recovery.SnapshotEntries
		pt.TruncatedBytes = st.Recovery.TruncatedBytes
		if st.Recovery.TruncatedBytes < int64(len(garbage)) {
			viols = append(viols, fmt.Sprintf(
				"appended %dB of garbage but recovery truncated only %dB",
				len(garbage), st.Recovery.TruncatedBytes))
		}
	} else {
		viols = append(viols, "no recovery info in /stats after garbage append")
	}
	return pt, viols, nil
}

// chopTail kills the idle server, truncates the tail segment mid-record and
// checks the no-corruption contract: a chopped log may lose its tail, but
// every surviving value must be one the harness wrote.
func (h *crashHarness) chopTail() ([]string, error) {
	h.stop()
	path, size, err := lastSegment(h.dir)
	if err != nil {
		return nil, err
	}
	if size > 0 {
		chop := int64(1)
		if size > 2 {
			chop = 1 + int64(h.rng.next()%uint64(minInt64(64, size-1)))
		}
		if err := os.Truncate(path, size-chop); err != nil {
			return nil, err
		}
	}
	if err := h.start(); err != nil {
		return nil, fmt.Errorf("restart after tail chop: %w", err)
	}
	_, _, viols := h.verify(true)
	return viols, nil
}

// midlog builds a fresh multi-segment log, flips one byte in a non-final
// segment and asserts the server refuses to start with exit status 3.
func (h *crashHarness) midlog() (bool, string) {
	dir, err := os.MkdirTemp("", "crashkv-midlog-")
	if err != nil {
		return false, err.Error()
	}
	defer os.RemoveAll(dir)

	// Snapshots off and tiny segments so the sequential puts span several
	// segment files; the corruption must land before the final one.
	args := h.args(dir, "-snapshot-every", "0", "-segment-bytes", "2048")
	p, err := startServer(h.bin, args)
	if err != nil {
		return false, fmt.Sprintf("start: %v", err)
	}
	hc := newHTTPClient()
	for i := 0; i < 220; i++ {
		key := fmt.Sprintf("m%03d", i)
		if status, err := httpPut(hc, p.base, key, fmt.Sprintf("midlog-value-%06d", i)); err != nil || status != http.StatusNoContent {
			p.kill()
			return false, fmt.Sprintf("seed PUT %s: status=%d err=%v", key, status, err)
		}
	}
	p.kill()

	segs, err := segmentNames(dir)
	if err != nil {
		return false, err.Error()
	}
	if len(segs) < 2 {
		return false, fmt.Sprintf("expected >=2 segments, got %d (segment-bytes too large?)", len(segs))
	}
	first := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(first)
	if err != nil {
		return false, err.Error()
	}
	if len(data) == 0 {
		return false, "first segment is empty"
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(first, data, 0o644); err != nil {
		return false, err.Error()
	}

	code, out, err := runExpectExit(h.bin, args)
	if err != nil {
		return false, fmt.Sprintf("corrupted restart: %v", err)
	}
	if code != 3 {
		return false, fmt.Sprintf("corrupted restart exited %d, want 3\n%s", code, out)
	}
	if !strings.Contains(out, "unrecoverable") {
		return false, fmt.Sprintf("exit 3 without actionable message:\n%s", out)
	}
	return true, fmt.Sprintf("corrupt %s refused with exit 3", segs[0])
}

func (h *crashHarness) fetchStats() (*statsWal, error) {
	hc := newHTTPClient()
	resp, err := hc.Get(h.proc.base + "/stats")
	if err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	var decoded struct {
		Wal *statsWal `json:"wal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	if decoded.Wal == nil {
		return nil, fmt.Errorf("/stats has no wal section (server not durable?)")
	}
	return decoded.Wal, nil
}

// verify reads back every key each client owns and checks it against the
// shadow state, then resyncs the shadows to the observed (now durable)
// state. In chop mode acknowledged losses are tolerated but any value the
// harness never wrote is a violation.
func (h *crashHarness) verify(chop bool) (verified, lost uint64, viols []string) {
	hc := newHTTPClient()
	for _, st := range h.states {
		for _, key := range st.keys {
			val, present, err := httpGet(hc, h.proc.base, key)
			if err != nil {
				viols = append(viols, fmt.Sprintf("client %d: GET %s: %v", st.id, key, err))
				continue
			}
			verified++
			confVal, confirmed := st.conf[key]
			var ok bool
			if chop {
				ok = !present || st.hist[key][val]
			} else if present {
				ok = (confirmed && val == confVal) || st.cand[key][val]
			} else {
				ok = !confirmed || st.cand[key][candDeleted]
			}
			if !ok {
				lost++
				viols = append(viols, fmt.Sprintf(
					"client %d key %s: observed %q (present=%v), confirmed %q (confirmed=%v), %d candidate(s)",
					st.id, key, val, present, confVal, confirmed, len(st.cand[key])))
			}
			if present {
				st.conf[key] = val
			} else {
				delete(st.conf, key)
			}
			delete(st.cand, key)
		}
	}
	return verified, lost, viols
}

// --- client shadow model ---

// candDeleted marks "absent" as a candidate post-crash state for a key whose
// DELETE received no acknowledgment.
const candDeleted = "\x00deleted"

// clientState is one writer's shadow of its disjoint key partition.
//
//   - conf holds the last acknowledged durable state per key (absence means
//     confirmed-absent): the server appends to the commit log before it
//     responds, so an acknowledged op must survive any later crash.
//   - cand holds the possible states left behind by unacknowledged ops
//     (connection killed mid-request, 5xx): each such op may or may not have
//     committed, so post-crash the key may legitimately show any of them.
//     Candidates are only cleared after a restart, when the observed state is
//     known durable — a still-running handler from a timed-out request could
//     otherwise commit after a later acknowledged op.
//   - hist holds every value ever attempted, the corruption bound: no read
//     may ever return a value outside it.
type clientState struct {
	id     int
	keys   []string
	conf   map[string]string
	cand   map[string]map[string]bool
	hist   map[string]map[string]bool
	serial int
}

func newClientStates(clients, keysPer int) []*clientState {
	states := make([]*clientState, clients)
	for c := range states {
		st := &clientState{
			id:   c,
			conf: make(map[string]string),
			cand: make(map[string]map[string]bool),
			hist: make(map[string]map[string]bool),
		}
		for k := 0; k < keysPer; k++ {
			st.keys = append(st.keys, fmt.Sprintf("c%d-k%02d", c, k))
		}
		states[c] = st
	}
	return states
}

func (st *clientState) note(m map[string]map[string]bool, key, val string) {
	if m[key] == nil {
		m[key] = make(map[string]bool)
	}
	m[key][val] = true
}

// runWorkload starts one goroutine per client hammering PUT/DELETE until
// stop closes. Clients own disjoint keys, so each shadow is single-writer.
func runWorkload(base string, states []*clientState, seed uint64, cycle int, stop <-chan struct{}, wg *sync.WaitGroup, acked *atomic.Uint64) {
	wg.Add(len(states))
	for _, st := range states {
		go func(st *clientState) {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			r := newRNG(seed ^ uint64(cycle)*0x9e3779b9 ^ uint64(st.id+1)*0x85ebca6b)
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := st.keys[r.next()%uint64(len(st.keys))]
				if r.next()%100 < 75 {
					st.serial++
					val := fmt.Sprintf("s%d.c%d.%d", cycle, st.id, st.serial)
					st.note(st.hist, key, val)
					status, err := httpPut(hc, base, key, val)
					if err == nil && status == http.StatusNoContent {
						st.conf[key] = val
						acked.Add(1)
					} else {
						st.note(st.cand, key, val)
					}
				} else {
					status, err := httpDelete(hc, base, key)
					if err == nil && status == http.StatusNoContent {
						delete(st.conf, key)
						acked.Add(1)
					} else {
						// 404 (nothing logged) or an ambiguous failure: the
						// key may show up absent after the crash.
						st.note(st.cand, key, candDeleted)
					}
				}
			}
		}(st)
	}
}

// --- server process management ---

// lineWatcher tees the server's output, watching for the readiness line to
// extract the chosen address. Feeding it directly to cmd.Stderr avoids the
// pipe-drain-before-Wait dance.
type lineWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	line  bytes.Buffer
	ready chan string
	fired bool
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for _, b := range p {
		if b != '\n' {
			w.line.WriteByte(b)
			continue
		}
		s := w.line.String()
		w.line.Reset()
		if w.fired {
			continue
		}
		const marker = "serving on http://"
		if i := strings.Index(s, marker); i >= 0 {
			addr := s[i+len(marker):]
			if j := strings.IndexByte(addr, ' '); j >= 0 {
				addr = addr[:j]
			}
			w.fired = true
			w.ready <- addr
		}
	}
	return len(p), nil
}

func (w *lineWatcher) dump() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

type proc struct {
	cmd     *exec.Cmd
	base    string
	ready   time.Duration
	watcher *lineWatcher
	done    chan error
}

func startServer(bin string, args []string) (*proc, error) {
	w := &lineWatcher{ready: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = w
	cmd.Stderr = w
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case addr := <-w.ready:
		return &proc{
			cmd:     cmd,
			base:    "http://" + addr,
			ready:   time.Since(t0),
			watcher: w,
			done:    done,
		}, nil
	case err := <-done:
		return nil, fmt.Errorf("server exited before readiness (%v); output:\n%s", err, w.dump())
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-done
		return nil, fmt.Errorf("server not ready after 30s; output:\n%s", w.dump())
	}
}

// kill SIGKILLs the server — the crash primitive — and reaps it.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// term sends SIGTERM and returns the exit status (the graceful-shutdown
// contract says 0).
func (p *proc) term() (int, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return -1, err
	}
	select {
	case err := <-p.done:
		if err == nil {
			return 0, nil
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), nil
		}
		return -1, err
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return -1, fmt.Errorf("no exit within 30s of SIGTERM; output:\n%s", p.watcher.dump())
	}
}

// runExpectExit runs the server expecting it to exit on its own (the
// refuse-to-start path) and returns its status and combined output.
func runExpectExit(bin string, args []string) (int, string, error) {
	var out bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		return -1, "", err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return 0, out.String(), nil
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), out.String(), nil
		}
		return -1, out.String(), err
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-done
		return -1, out.String(), fmt.Errorf("server still running 30s after corrupted start")
	}
}

// --- stats and segment-file helpers ---

// statsWal mirrors the /stats "wal" section of kvserver.
type statsWal struct {
	Failures uint64        `json:"failures"`
	Seq      uint64        `json:"seq"`
	Recovery *recoveryInfo `json:"recovery"`
}

type recoveryInfo struct {
	Clean           bool   `json:"clean"`
	SnapshotEntries uint64 `json:"snapshot_entries"`
	LogRecords      uint64 `json:"log_records"`
	Applied         uint64 `json:"applied"`
	TruncatedBytes  int64  `json:"truncated_bytes"`
	Entries         int    `json:"entries"`
}

func segmentNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func lastSegment(dir string) (string, int64, error) {
	names, err := segmentNames(dir)
	if err != nil {
		return "", 0, err
	}
	if len(names) == 0 {
		return "", 0, fmt.Errorf("no commit-log segments in %s", dir)
	}
	path := filepath.Join(dir, names[len(names)-1])
	fi, err := os.Stat(path)
	if err != nil {
		return "", 0, err
	}
	return path, fi.Size(), nil
}

// --- HTTP helpers ---

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Second,
		Transport: &http.Transport{},
	}
}

func httpPut(hc *http.Client, base, key, val string) (int, error) {
	req, err := http.NewRequest(http.MethodPut, base+"/kv/"+key, strings.NewReader(val))
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func httpDelete(hc *http.Client, base, key string) (int, error) {
	req, err := http.NewRequest(http.MethodDelete, base+"/kv/"+key, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func httpGet(hc *http.Client, base, key string) (string, bool, error) {
	resp, err := hc.Get(base + "/kv/" + key)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", false, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return string(body), true, nil
	case http.StatusNotFound:
		return "", false, nil
	default:
		return "", false, fmt.Errorf("GET %s -> %d %s", key, resp.StatusCode, body)
	}
}

// --- misc ---

// rng is the xorshift64 generator used across the repo's harnesses, with a
// splitmix64 scramble so adjacent seeds diverge immediately.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return &rng{s: z}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.s = x
	return x
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
