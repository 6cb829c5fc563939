package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/kv/wal"
)

func TestPercentileAndTenBeyondRule(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}, {0, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64(nil), 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	// p99 of n samples has n/100 samples beyond it: ten need n >= 1000.
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {999, 0.90}, {100, 0.90}, {99, 0.50}, {0, 0.50}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSteadyIsTheMeanOfTheQuietQuarter(t *testing.T) {
	// Eight slices, two of them quiet: a neighbour slowed the other six.
	rates := []float64{60, 100, 55, 70, 98, 65, 50, 40}
	if got := steady(rates, true); got != 99 {
		t.Errorf("steady rate = %v, want 99, the mean of the two highest", got)
	}
	times := []float64{9, 5.5, 12, 5.0, 8, 7, 20, 11}
	if got := steady(times, false); got != 5.25 {
		t.Errorf("steady time = %v, want 5.25, the mean of the two lowest", got)
	}
	if got := steady([]float64{3, 1, 2}, false); got != 1 {
		t.Errorf("steady of three = %v, want the lowest", got)
	}
	for _, c := range []struct {
		d    time.Duration
		want int
	}{{200 * time.Millisecond, minSlices}, {20 * time.Second, 80}, {10 * time.Minute, maxSlices}} {
		if got := slicesFor(c.d); got != c.want {
			t.Errorf("slicesFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// A window's rate is its quiet blocks', whatever happened to the rest:
	// four blocks of eight quarter-second slices, one of them undisturbed.
	w := &windowResult{seconds: 8, sliceOps: make([]uint64, 4*blockSlices)}
	for s := range w.sliceOps {
		w.sliceOps[s] = 10
		if s/blockSlices == 2 {
			w.sliceOps[s] = 25
		}
	}
	if got := w.opsPerSec(); got != 100 {
		t.Errorf("opsPerSec = %v, want 100 (200 ops in the quiet two-second block)", got)
	}
	short := &windowResult{seconds: 1, sliceOps: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 5}}
	if got := short.opsPerSec(); got != 50 {
		t.Errorf("opsPerSec of a window shorter than two blocks = %v, want 50, its plain rate", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"two disjoint", []interval{{160, 170}, {110, 120}}, 80},
		{"overlapping pair counts its union once", []interval{{110, 150}, {130, 170}}, 40},
		{"nested child adds nothing", []interval{{110, 180}, {120, 130}}, 30},
		{"sticking out is clipped", []interval{{90, 110}, {190, 250}}, 80},
		{"covering child", []interval{{0, 300}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}

	tr := &tracer{buf: make([]span, 8)}
	root := tr.add("client.get", 0, 100, -1, 7)
	tr.add("server.get", 30, 60, -1, 7)
	tr.add("server.get", 30, 60, -1, 8) // another request: must not attach
	tr.linkByOp("client", "server")
	if got := tr.spans()[1].Parent; got != root {
		t.Fatalf("server span parent = %d, want %d", got, root)
	}
	if got := tr.spans()[2].Parent; got != -1 {
		t.Fatalf("unrelated server span got parent %d", got)
	}
	if got := tr.selfTimes()["client.get"]; !reflect.DeepEqual(got, []int64{70}) {
		t.Fatalf("client self times = %v, want [70]", got)
	}
	if i := tr.add("x", 0, 1, -1, 0); i != 3 {
		t.Fatalf("slot %d, want 3", i)
	}
	for i := 0; i < 10; i++ {
		tr.add("x", 0, 1, -1, 0)
	}
	if got := tr.dropped.Load(); got != 6 || len(tr.spans()) != 8 {
		t.Fatalf("dropped %d spans and kept %d, want 6 and 8", got, len(tr.spans()))
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	m := kvWorkloads[2].mix // store-mixed: Zipf, all four kinds
	a, b := genKVOps(7, 1, 2, m), genKVOps(7, 1, 2, m)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client gave different rings")
	}
	if reflect.DeepEqual(a, genKVOps(8, 1, 2, m)) || reflect.DeepEqual(a, genKVOps(7, 0, 2, m)) {
		t.Fatal("another seed or client gave the same ring")
	}
	if !slices.ContainsFunc(genKVOps(7, 0, 1, m), func(o kvOp) bool { return o.kind == opPut && o.key%2 == 1 }) {
		t.Fatal("a client on its own never writes an odd key: it must own every key")
	}
	var kinds [nKinds]int
	hits := make([]int, m.keys)
	for _, o := range a {
		kinds[o.kind]++
		hits[o.key]++
		if (o.kind == opPut || o.kind == opDelete) && o.key%2 != 1 {
			t.Fatalf("client 1 of 2 mutates key %d, which client %d owns", o.key, o.key%2)
		}
		if int(o.key) >= m.keys || int(o.cursor) >= m.slots {
			t.Fatalf("op out of range: %+v", o)
		}
	}
	for k, pct := range map[opKind]int{opGet: m.get, opPut: m.put, opDelete: m.del, opScan: m.scan} {
		if got := float64(kinds[k]) / ringLen * 100; math.Abs(got-float64(pct)) > 1 {
			t.Errorf("%s is %.1f%% of the ring, want %d%%", kindNames[k], got, pct)
		}
	}
	if hits[0]+hits[1] < 20*(hits[100]+hits[101]) {
		t.Errorf("Zipf s=1.1 should favour the first keys: ranks 0-1 hit %d times, ranks 100-101 %d", hits[0]+hits[1], hits[100]+hits[101])
	}

	if !reflect.DeepEqual(genKeys(3, 64), genKeys(3, 64)) || reflect.DeepEqual(genKeys(3, 64), genKeys(4, 64)) {
		t.Fatal("keys must be a function of the seed")
	}
	ring := genCoinRing(5, 0)
	n := 0
	for _, enq := range ring {
		if enq {
			n++
		}
	}
	if n != ringLen/2 || !reflect.DeepEqual(ring, genCoinRing(5, 0)) {
		t.Fatalf("coin ring holds %d enqueues of %d, or is not deterministic", n, ringLen)
	}
}

func TestValueEncodeVerify(t *testing.T) {
	var v [valueBytes]byte
	encodeValue(v[:], 42, 17, 3)
	if ver, err := verifyValue(v[:], 42, 17); err != nil || ver != 3 {
		t.Fatalf("round trip: version %d, err %v", ver, err)
	}
	var again [valueBytes]byte
	encodeValue(again[:], 42, 17, 3)
	if v != again {
		t.Fatal("the same (seed, key, version) gave different bytes")
	}
	if _, err := verifyValue(v[:], 42, 18); err == nil {
		t.Error("a value for key 17 verified as key 18")
	}
	if _, err := verifyValue(v[:], 43, 17); err == nil {
		t.Error("a value of seed 42 verified under seed 43")
	}
	if _, err := verifyValue(v[:valueBytes-1], 42, 17); err == nil {
		t.Error("a truncated value verified")
	}
	v[50] ^= 1
	if _, err := verifyValue(v[:], 42, 17); err == nil {
		t.Error("a value with a flipped bit verified")
	}
}

func TestTimingFSSyncedPrefix(t *testing.T) {
	src, dst := t.TempDir(), filepath.Join(t.TempDir(), "crash")
	fs := newTimingFS(wal.OSFS{}, nil)
	write := func(f wal.File, s string) {
		t.Helper()
		if _, err := f.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := fs.OpenAppend(filepath.Join(src, "wal-00000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	write(seg, "synced....")
	if err := seg.Sync(); err != nil {
		t.Fatal(err)
	}
	write(seg, "unsynced tail")

	never, _ := fs.Create(filepath.Join(src, "never-synced"))
	write(never, "gone after a power cut")

	tmp, _ := fs.Create(filepath.Join(src, "snap-00000001.snap.tmp"))
	write(tmp, "snapshot")
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	write(tmp, "+tail")
	tmp.Close()
	if err := fs.Rename(filepath.Join(src, "snap-00000001.snap.tmp"), filepath.Join(src, "snap-00000001.snap")); err != nil {
		t.Fatal(err)
	}

	if err := fs.crashCopy(src, dst); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	entries, _ := os.ReadDir(dst)
	for _, e := range entries {
		data, _ := os.ReadFile(filepath.Join(dst, e.Name()))
		got[e.Name()] = string(data)
	}
	want := map[string]string{"wal-00000000.seg": "synced....", "snap-00000001.snap": "snapshot"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crash copy holds %q, want %q", got, want)
	}
	if fs.bytes != uint64(len("synced....unsynced tailgone after a power cutsnapshot+tail")) || fs.snapshotBytes != uint64(len("snapshot+tail")) {
		t.Errorf("byte counts: all %d, snapshot %d", fs.bytes, fs.snapshotBytes)
	}
	if len(fs.syncNs) != 2 || len(fs.writeNs) != 5 {
		t.Errorf("timed %d syncs and %d writes, want 2 and 5", len(fs.syncNs), len(fs.writeNs))
	}

	// Create truncates: the old synced length must not survive it.
	re, _ := fs.Create(filepath.Join(src, "wal-00000000.seg"))
	write(re, "new")
	if n := fs.syncedLen(filepath.Join(src, "wal-00000000.seg")); n != 0 {
		t.Errorf("synced length after truncating create = %d, want 0", n)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("quartile spread %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Fatalf("quartile spread %v, want %v", got, want)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestBenchmarkJSONMeetsItsContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 || len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json has %d keys and %d bytes", len(keys), len(data))
	}
	sp := loadTestSpec(t)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(sp.Workloads) != 5 || sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("%d workloads, run_seconds %d", len(sp.Workloads), sp.RunSeconds)
	}
	for _, w := range sp.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup || len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("setup_s declared: %v; %d end-to-end, %d per-layer metrics", hasSetup, len(sp.EndToEnd), len(sp.PerLayer))
	}
	for _, m := range append(sp.PerLayer, sp.EndToEnd...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
	}
}

// TestEveryWorkloadShortWindow runs all five workloads, untraced and traced,
// on a 200 ms window: every end-to-end metric must come out of every workload
// above zero, every per-layer metric out of at least one, nothing undeclared,
// every correctness and leak check clean (teardown's checks are part of each
// run), and nothing left in the output directory but the span files.
func TestEveryWorkloadShortWindow(t *testing.T) {
	sp := loadTestSpec(t)
	out := t.TempDir()
	cfg := runConfig{seed: 3, window: 200 * time.Millisecond, setups: 1, out: out}
	layerSeen := map[string]bool{}
	for _, name := range sp.workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			res, err := runOne(name, cfg, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, checks %q", name, traced, res.attempted, res.failed, res.errs)
			}
			for m := range res.metrics {
				if !declaredIn(sp, m) {
					t.Errorf("%s trace=%v: metric %s is not declared in BENCHMARK.json", name, traced, m)
				}
				layerSeen[m] = true
			}
			if traced {
				if res.metrics["trace.spans"] <= 0 || len(res.ladders) == 0 {
					t.Errorf("%s: traced run recorded %v spans and %d ladders", name, res.metrics["trace.spans"], len(res.ladders))
				}
				if _, ok := res.metrics["trace.overhead_pct"]; !ok {
					t.Errorf("%s: trace.overhead_pct missing", name)
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				continue
			}
			if len(res.metrics) != len(sp.EndToEnd) {
				t.Errorf("%s: %d end-to-end metrics measured, %d declared", name, len(res.metrics), len(sp.EndToEnd))
			}
			for _, d := range sp.EndToEnd {
				if v := res.metrics[d.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive number", name, d.Name, v)
				}
			}
		}
	}
	for _, d := range sp.PerLayer {
		if !layerSeen[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
	entries, _ := os.ReadDir(out)
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "trace-") {
			t.Errorf("left behind in the output directory: %s", e.Name())
		}
	}
	if v := quartileSpread([]float64{1, 1, 1, 1}); v != 0 {
		t.Errorf("spread of equal values = %v", v)
	}
}

// TestResultLine drives the command as BENCHMARK.json's driver does and
// parses the last line of its output.
func TestResultLine(t *testing.T) {
	sp := loadTestSpec(t)
	for _, trace := range []string{"0", "1"} {
		outFile, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = outFile
		code := run([]string{"--workload", "queue-reclaim", "--seed", "9", "--seconds", "0.1", "--trace", trace,
			"-setups", "1", "-spec", "../BENCHMARK.json", "-out", t.TempDir()})
		os.Stdout = stdout
		outFile.Close()
		if code != 0 {
			t.Fatalf("trace=%s: exit code %d", trace, code)
		}
		data, _ := os.ReadFile(outFile.Name())
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var got struct {
			Correct   *bool
			Attempted *uint64
			Failed    *uint64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("trace=%s: last line is not the result object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Fatalf("trace=%s: result %s", trace, lines[len(lines)-1])
		}
		want := sp.EndToEnd
		if trace == "1" {
			want = sp.PerLayer
		}
		if len(got.Metrics) != len(want) {
			t.Fatalf("trace=%s: %d metrics in the result, %d declared", trace, len(got.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := got.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace=%s: metric %s missing or with the wrong unit: %+v", trace, d.Name, m)
			}
		}
	}
	if code := run([]string{"-workload", "no-such", "-spec", "../BENCHMARK.json", "-out", t.TempDir()}); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	// A failed check must reach the exit code.
	bad := newRunResult("queue-reclaim")
	bad.attempted = 1
	bad.check(os.ErrInvalid)
	if code := report(sp, bad, true, false); code != 1 {
		t.Errorf("a run with a failed check reported exit code %d, want 1", code)
	}
}
