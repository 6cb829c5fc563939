package harness

import (
	"fmt"
	"time"
)

// Durability-run reduction: cmd/crashkv SIGKILLs a real kvserver process at
// seeded points and measures what recovery costs and preserves. This file
// owns the figure shapes (unit-tagged titles like every other figure); the
// binary only supplies numbers.

// DurabilityPoint is one kill/restart cycle's measurement.
type DurabilityPoint struct {
	// Cycle numbers the kill/restart cycle (1-based); 0 marks auxiliary
	// phases (torn-write injection).
	Cycle int
	// Label overrides the X label for auxiliary phases ("torn").
	Label string
	// Acked counts mutations acknowledged to clients before the kill (the
	// writes recovery must preserve); Verified the keys checked after
	// restart; Lost the acknowledged writes that did NOT survive — the
	// number the whole subsystem exists to keep at zero.
	Acked    uint64
	Verified uint64
	Lost     uint64
	// Recover is the restart-to-ready time: process spawn to the readiness
	// line, which includes snapshot+log replay.
	Recover time.Duration
	// LogRecords/SnapEntries is what recovery replayed (from /stats).
	LogRecords  uint64
	SnapEntries uint64
	// TruncatedBytes is the torn tail recovery cut (nonzero only when the
	// kill landed mid-write or the torn phase injected garbage).
	TruncatedBytes int64
}

func (p DurabilityPoint) xlabel() string {
	if p.Label != "" {
		return p.Label
	}
	return fmt.Sprintf("cycle=%d", p.Cycle)
}

func durabilityXs(points []DurabilityPoint) []string {
	xs := make([]string, len(points))
	for i, p := range points {
		xs[i] = p.xlabel()
	}
	return xs
}

// DurabilityRecoveryTable is the recovery-cost curve: restart-to-ready time
// per cycle as the log/snapshot state grows.
func DurabilityRecoveryTable(points []DurabilityPoint) *Table {
	t := &Table{
		Title:  "Crash durability: restart-to-ready time [ns/op]",
		XLabel: "kill",
		Xs:     durabilityXs(points),
	}
	s := Series{Label: "recover"}
	for _, p := range points {
		s.Ys = append(s.Ys, float64(p.Recover))
	}
	t.Series = append(t.Series, s)
	return t
}

// DurabilityReplayTable records what each recovery replayed and — the
// headline — how many acknowledged writes it lost. Counts scale with kill
// timing, so the table is informational ([count]); the LOST series must
// nonetheless be zero everywhere, which crashkv enforces with its exit code.
func DurabilityReplayTable(points []DurabilityPoint) *Table {
	t := &Table{
		Title:  "Crash durability: replayed state and acked-write loss [count]",
		XLabel: "kill",
		Xs:     durabilityXs(points),
	}
	series := []struct {
		label string
		get   func(DurabilityPoint) float64
	}{
		{"acked writes", func(p DurabilityPoint) float64 { return float64(p.Acked) }},
		{"keys verified", func(p DurabilityPoint) float64 { return float64(p.Verified) }},
		{"LOST acked writes", func(p DurabilityPoint) float64 { return float64(p.Lost) }},
		{"log records replayed", func(p DurabilityPoint) float64 { return float64(p.LogRecords) }},
		{"snapshot entries", func(p DurabilityPoint) float64 { return float64(p.SnapEntries) }},
		{"torn bytes truncated", func(p DurabilityPoint) float64 { return float64(p.TruncatedBytes) }},
	}
	for _, sp := range series {
		s := Series{Label: sp.label}
		for _, p := range points {
			s.Ys = append(s.Ys, sp.get(p))
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// DurabilityTables bundles the crash figures in render order.
func DurabilityTables(points []DurabilityPoint) []*Table {
	return []*Table{
		DurabilityRecoveryTable(points),
		DurabilityReplayTable(points),
	}
}
