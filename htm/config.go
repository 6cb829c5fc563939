package htm

// Rock-like defaults. RockStoreBufferSize is the size of the store buffer on
// Sun's Rock prototype, which bounds the number of distinct words a
// transaction may write (paper §3.4: "we could not use step sizes greater
// than 32, which is the size of Rock's store buffer").
const (
	RockStoreBufferSize = 32

	defaultHeapWords  = 1 << 20
	defaultMaxRetries = 256
	defaultMaxReadSet = 1 << 16
)

// MaxClockShards caps Config.ClockShards. 256 shards spend 8 bits of the
// 61-bit version field on the shard ID, leaving 53 bits of per-shard tick —
// still unreachable within any simulated run.
const MaxClockShards = 256

// MaxStripeShift caps Config.StripeShift: 2^8 = 256-word stripes. Beyond that
// the allocator's stripe alignment wastes more arena than any conflict-rate
// saving is worth.
const MaxStripeShift = 8

// FallbackOwnerBits is the width of the owner thread ID recorded in a word's
// metadata while the fine-grained TLE fallback holds its lock. The merged
// metadata word spends bit 0 on the lock, bit 1 on the allocated flag and the
// top bit on the fallback tag, leaving 61 bits of version field to carry the
// owner while the word is held (the displaced version is preserved in the
// owner's lock-set). Thread IDs are masked to this width; IDs are assigned
// sequentially, so two live threads collide only after 2^61 NewThread calls.
// The owner ID exists for self-deadlock detection and debuggability — no
// correctness decision reads it.
const FallbackOwnerBits = 61

// fallbackOwnerMask truncates a thread ID to the owner field's width.
const fallbackOwnerMask = 1<<FallbackOwnerBits - 1

// Config parameterizes a simulated Heap and its transaction engine. The zero
// value selects Rock-like defaults via NewHeap.
type Config struct {
	// Words is the arena capacity in 64-bit words. Defaults to 1<<20.
	Words int

	// StoreBufferSize bounds the number of distinct words a single
	// transaction may write before aborting with AbortOverflow. Defaults to
	// RockStoreBufferSize (32). Set to a negative value for an unbounded
	// store buffer (a "future HTM", paper §6).
	StoreBufferSize int

	// MaxReadSet bounds the transactional read set; exceeding it aborts with
	// AbortCapacity. Rock tracks reads in the L1 cache, which is large
	// relative to the store buffer, so the default is generous (1<<16).
	// Set to a negative value for an unbounded read set.
	MaxReadSet int

	// NoSandbox disables Rock-style sandboxing. By default a transaction that
	// dereferences freed or nil memory aborts with AbortIllegal; with NoSandbox
	// such an access panics, modeling a segmentation fault on HTM designs
	// without sandboxing.
	NoSandbox bool

	// AllowAllocInTxn permits Txn.Alloc and Txn.Free. Rock could not run the
	// CAS-based malloc inside transactions (paper §6), so the paper's
	// algorithms pre-allocate outside transactions; this switch models a
	// TM-aware allocator on a future HTM.
	AllowAllocInTxn bool

	// MaxRetries is the number of attempts Thread.Atomic makes before either
	// engaging the TLE fallback lock (EnableTLE) or panicking. Defaults to
	// 256.
	MaxRetries int

	// EnableTLE enables the transactional-lock-elision fallback described in
	// paper §6: after MaxRetries failed attempts the operation completes on
	// a pessimistic software path instead of retrying forever. By default
	// that path acquires the per-word metadata locks of exactly the words it
	// touches (fine-grained fallback), so fallback operations with disjoint
	// footprints — and hardware transactions on unrelated words — proceed
	// concurrently. Which path fallback operations take is a runtime mode
	// (Heap.FallbackMode, switchable under load with Heap.SetFallbackMode);
	// GlobalFallback picks the mode the heap starts in.
	EnableTLE bool

	// GlobalFallback starts the heap in ModeGlobal, the §6 global-lock
	// fallback the paper describes: the fallback operation takes one
	// process-wide lock, every hardware transaction waits out the critical
	// section at begin and validates the lock's sequence number at commit. It
	// serializes all fallback operations and stalls all hardware commits for
	// the duration, but is the faithful Rock-era baseline and wins when every
	// fallback footprint is shared. It selects only the INITIAL mode —
	// Heap.SetFallbackMode (typically driven by a Tuner) can change it at any
	// time. Only meaningful with EnableTLE.
	GlobalFallback bool

	// NoMaxLive disables exact high-water tracking, removing the last
	// globally shared counters from the allocation fast path. Stats then
	// derives LiveWords from the per-thread cells and MaxLiveWords becomes
	// the largest live count observed at any Stats snapshot. Both are exact
	// when snapshots are taken at quiescence; a mid-run snapshot can tear
	// across cells and over- or under-state them. Throughput-only runs set
	// this; space-measured runs must leave it unset.
	NoMaxLive bool

	// ClockShards is the number of independent version-clock shards (see
	// DESIGN.md "Sharded clock & striped metadata"). Each committing writer
	// ticks only its thread's home shard (cache-line padded), so disjoint
	// commits stop serializing on one clock word; readers validate against a
	// per-shard snapshot taken at begin. 0 or 1 selects the single global
	// clock, whose semantics and version encoding are bit-for-bit those of the
	// pre-shard engine. Values are rounded up to a power of two and capped at
	// MaxClockShards.
	ClockShards int

	// StripeShift makes one metadata word govern a 2^StripeShift-word stripe
	// instead of a single word: a commit acquires one CAS per touched stripe,
	// the fine-grained fallback locks stripes, and alloc/free version whole
	// stripes. Distinct words in one stripe conflict falsely (counted by
	// Stats.StripeConflicts); the allocator stripe-aligns blocks so no stripe
	// is ever shared between blocks, which preserves the per-word liveness
	// sandbox at block granularity (words in a live block's alignment slack
	// read as live zeros instead of faulting). 0 — the default — is the exact
	// pre-stripe per-word engine. Capped at MaxStripeShift.
	StripeShift int

	// FallbackSpins bounds how long the fine-grained TLE fallback spins on a
	// locked word it reached OUT OF ADDRESS ORDER before engaging the
	// deadlock-avoidance release-and-retry protocol (drop the whole lock-set,
	// re-run the body). In-order acquisitions spin indefinitely — they cannot
	// deadlock. 0 selects the default (128, see defaultFallbackSpins);
	// negative releases-and-retries immediately on any out-of-order collision
	// (maximally paranoid, maximally re-execution-happy). It is the initial
	// value of a runtime knob: Heap.SetFallbackSpins overrides it, and every
	// fine-grained fallback attempt reads the live value as it starts. Only
	// meaningful with EnableTLE, and only while the mode is ModeFine.
	FallbackSpins int

	// Faults attaches a seeded fault-injection plan (see FaultPlan). nil — the
	// default — injects nothing and costs one pointer check per transactional
	// operation. The same Config value (plan included) reproduces the same
	// injected fault sequence for equal executions.
	Faults *FaultPlan

	// YieldEvery makes a running transaction yield the processor after every
	// N transactional accesses (0 = never). On hosts with fewer cores than
	// simulated threads, goroutines otherwise run whole transactions within
	// one scheduler quantum and cross-thread conflicts almost never occur;
	// yielding mid-transaction restores the property that a transaction
	// occupies a window of real time during which other "cores" run, so the
	// conflict/abort gradient the paper sweeps is reproduced. Benchmarks set
	// this; unit tests of engine semantics leave it 0.
	YieldEvery int

	// trackMaxLive is the derived internal form of !NoMaxLive: exact
	// LiveWords/MaxLiveWords maintenance on the alloc/free path (a globally
	// shared live counter plus a CAS high-water loop per allocation), which
	// is what the paper's space figures need. Set by withDefaults so the
	// zero Config is exact.
	trackMaxLive bool

	// sandboxed is the derived internal form of !NoSandbox, set by
	// withDefaults so the zero Config is Rock-like.
	sandboxed bool
}

func (c Config) withDefaults() Config {
	if c.Words <= 0 {
		c.Words = defaultHeapWords
	}
	if c.StoreBufferSize == 0 {
		c.StoreBufferSize = RockStoreBufferSize
	}
	if c.MaxReadSet == 0 {
		c.MaxReadSet = defaultMaxReadSet
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = defaultMaxRetries
	}
	if c.ClockShards < 1 {
		c.ClockShards = 1
	}
	if c.ClockShards > MaxClockShards {
		c.ClockShards = MaxClockShards
	}
	for c.ClockShards&(c.ClockShards-1) != 0 {
		c.ClockShards++ // round up to a power of two
	}
	if c.StripeShift < 0 {
		c.StripeShift = 0
	}
	if c.StripeShift > MaxStripeShift {
		c.StripeShift = MaxStripeShift
	}
	c.sandboxed = !c.NoSandbox
	c.trackMaxLive = !c.NoMaxLive
	return c
}

// fallbackSpins resolves the FallbackSpins knob: the out-of-order try-lock
// spin bound used by the fine-grained fallback's deadlock avoidance.
func (c Config) fallbackSpins() int {
	switch {
	case c.FallbackSpins > 0:
		return c.FallbackSpins
	case c.FallbackSpins < 0:
		return 0
	default:
		return defaultFallbackSpins
	}
}

// dedupBypassThreshold is the read-set length at which an attempt switches
// from bypass to filtered mode: bypassReadCap, but never above MaxReadSet/2 —
// which is what preserves the guarantee that a transaction whose distinct read
// set fits MaxReadSet never aborts with AbortCapacity (after compaction,
// capacity aborts depend only on the distinct read set).
func (c Config) dedupBypassThreshold() int {
	if mrs := c.MaxReadSet; mrs >= 0 && mrs/2 < bypassReadCap {
		return mrs / 2
	}
	return bypassReadCap
}
