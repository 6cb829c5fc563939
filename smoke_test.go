package repro

// Smoke tests for the demo surface: every example and command must build and
// exit cleanly, so CI catches drift between the libraries and the binaries
// that showcase them. Binaries are DISCOVERED from cmd/ and examples/, not
// hand-listed — adding a binary without a smoke run is impossible; the runs
// map only overrides how a binary is exercised.

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// discoverPackages returns "./dir/name" for every subdirectory of the given
// roots (each is a main package in this repo's layout).
func discoverPackages(t *testing.T, roots ...string) []string {
	t.Helper()
	var pkgs []string
	for _, root := range roots {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatalf("reading %s: %v", root, err)
		}
		for _, e := range entries {
			if e.IsDir() {
				pkgs = append(pkgs, "./"+filepath.ToSlash(filepath.Join(root, e.Name())))
			}
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("discovered no binaries")
	}
	return pkgs
}

func TestSmokeExamplesAndCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every demo binary")
	}
	// Per-binary invocations, one subtest each. Anything not listed here runs
	// once with -help: flag's ExitOnError usage path exits 0 and prints the
	// flag set, so a discovered server binary still proves it builds, parses
	// its flags, and says something — without needing a live counterpart.
	runsFor := map[string][][]string{
		"./examples/quickstart":  {{}},
		"./examples/queue":       {{}},
		"./examples/adaptive":    {{}},
		"./examples/reclamation": {{}},
		// Every paper figure, then every fallback figure, at the smallest
		// sweep the flags allow.
		"./cmd/figures": {
			{"all", "-quick", "-duration", "10ms", "-threads", "4"},
			{"fallback", "-quick", "-duration", "10ms", "-threads", "4"},
			{"-help"},
		},
		// A real (tiny) chaos run: deterministic shadow-model phase plus the
		// overload sweep, exit 0 = model, sweep and determinism checks passed.
		// Runs with the sharded clock and a pinned (observe-only) tuner so the
		// determinism contract is exercised at shards>1 with the tuner's
		// sampling goroutine live on every test invocation (CI also runs it
		// unsharded, and runs the pinned same-seed pair under -race).
		"./cmd/chaoskv": {{"-seed", "1", "-ops", "300", "-duration", "30ms", "-clients", "4", "-clock-shards", "2", "-adapt-pinned"}},
		// A real (tiny) crash run: two SIGKILL/restart cycles plus the torn
		// and mid-log phases against a real kvserver process; exit 0 = zero
		// acknowledged-write loss and the refuse-to-start contract held.
		"./cmd/crashkv": {{"-quick", "-seed", "1", "-cycles", "2", "-clients", "2", "-keys", "8"}},
	}

	pkgs := discoverPackages(t, "cmd", "examples")
	for _, pkg := range pkgs {
		runs, ok := runsFor[pkg]
		if !ok {
			runs = [][]string{{"-help"}}
		}
		for _, args := range runs {
			name := pkg[2:]
			if len(runs) > 1 {
				name += "/" + args[0]
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
				defer cancel()
				cmd := exec.CommandContext(ctx, "go", append([]string{"run", pkg}, args...)...)
				out, err := cmd.CombinedOutput()
				if err != nil {
					t.Fatalf("go run %s %v failed: %v\n%s", pkg, args, err, out)
				}
				if len(out) == 0 {
					t.Errorf("go run %s produced no output", pkg)
				}
			})
		}
	}
}
