package harness

import (
	"fmt"
	"sort"
	"time"
)

// Chaos-run reduction: cmd/chaoskv drives a KV service under seeded fault
// injection and measures how gracefully it degrades. This file owns the
// figure shapes (unit-tagged titles like every other figure); the binary only
// supplies numbers.

// ChaosPoint is one measured point of the overload sweep: the service driven
// at one injection probability for a fixed window.
type ChaosPoint struct {
	// Prob is the per-site injection probability driven at this point.
	Prob float64
	// Admitted counts requests that reached the engine and completed;
	// Rejected counts 503s (shed at admission or abandoned at the deadline).
	Admitted uint64
	Rejected uint64
	// Elapsed is the measured wall-clock window.
	Elapsed time.Duration
	// P50/P99 are admitted-request latency percentiles.
	P50, P99 time.Duration
	// Sheds is the governor's refusal count, Deadlines the operations
	// abandoned at the request deadline.
	Sheds     uint64
	Deadlines uint64
	// Spurious and Stalls count the injected events the engine observed
	// (injected aborts, fallback lock-holder stalls).
	Spurious uint64
	Stalls   uint64
}

// AdmittedOpsPerUs is the completed-request throughput at this point.
func (p ChaosPoint) AdmittedOpsPerUs() float64 {
	us := float64(p.Elapsed.Microseconds())
	if us <= 0 {
		return 0
	}
	return float64(p.Admitted) / us
}

// chaosXs renders the sweep's X axis (injection probabilities).
func chaosXs(points []ChaosPoint) []string {
	xs := make([]string, len(points))
	for i, p := range points {
		xs[i] = fmt.Sprintf("p=%.2f", p.Prob)
	}
	return xs
}

// ChaosThroughputTable is the degradation curve: admitted throughput as the
// injection probability rises.
func ChaosThroughputTable(points []ChaosPoint) *Table {
	t := &Table{
		Title:  "Chaos overload: admitted throughput vs injection [ops/us]",
		XLabel: "inject",
		Xs:     chaosXs(points),
	}
	s := Series{Label: "admitted"}
	for _, p := range points {
		s.Ys = append(s.Ys, p.AdmittedOpsPerUs())
	}
	t.Series = append(t.Series, s)
	return t
}

// ChaosLatencyTable is the bounded-latency claim: percentiles of ADMITTED
// requests only. Shed and abandoned requests answer fast 503s and are
// excluded — the table shows what clients that got through experienced.
func ChaosLatencyTable(points []ChaosPoint) *Table {
	t := &Table{
		Title:  "Chaos overload: admitted latency percentiles [ns/op]",
		XLabel: "inject",
		Xs:     chaosXs(points),
	}
	p50 := Series{Label: "p50"}
	p99 := Series{Label: "p99"}
	for _, p := range points {
		p50.Ys = append(p50.Ys, float64(p.P50))
		p99.Ys = append(p99.Ys, float64(p.P99))
	}
	t.Series = append(t.Series, p50, p99)
	return t
}

// ChaosSheddingTable records where the rejected traffic went and how much
// adversity was injected. Counts scale with run duration, so the table is
// informational ([count]).
func ChaosSheddingTable(points []ChaosPoint) *Table {
	t := &Table{
		Title:  "Chaos overload: rejected requests and injected events [count]",
		XLabel: "inject",
		Xs:     chaosXs(points),
	}
	series := []struct {
		label string
		get   func(ChaosPoint) uint64
	}{
		{"rejected 503s", func(p ChaosPoint) uint64 { return p.Rejected }},
		{"admission sheds", func(p ChaosPoint) uint64 { return p.Sheds }},
		{"deadline abandons", func(p ChaosPoint) uint64 { return p.Deadlines }},
		{"spurious aborts", func(p ChaosPoint) uint64 { return p.Spurious }},
		{"fallback stalls", func(p ChaosPoint) uint64 { return p.Stalls }},
	}
	for _, sp := range series {
		s := Series{Label: sp.label}
		for _, p := range points {
			s.Ys = append(s.Ys, float64(sp.get(p)))
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// ChaosTables bundles the three chaos figures in render order.
func ChaosTables(points []ChaosPoint) []*Table {
	return []*Table{
		ChaosThroughputTable(points),
		ChaosLatencyTable(points),
		ChaosSheddingTable(points),
	}
}

// LatencyPercentile returns the q-quantile (0 ≤ q ≤ 1) of samples, sorting
// them in place. Zero samples yield zero.
func LatencyPercentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(q * float64(len(samples)))
	if i >= len(samples) {
		i = len(samples) - 1
	}
	return samples[i]
}
