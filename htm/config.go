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

// FallbackOwnerBits is the width of the owner thread ID recorded in a word's
// metadata while a TLE fallback run holds its lock. The merged
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
	// Words is the arena's address space in 64-bit words. Defaults to 1<<20.
	// It is a budget: the words and their line metadata (one word per 8)
	// are address space, and a page of either costs memory only once it is
	// touched. A race build, or one off Linux, makes both up front.
	Words int

	// StoreBufferSize bounds the number of distinct words a single
	// transaction may write before aborting with AbortOverflow. Defaults to
	// RockStoreBufferSize (32). Set to a negative value for an unbounded
	// store buffer (a "future HTM", paper §6).
	StoreBufferSize int

	// MaxReadSet bounds the transactional read set, in distinct 8-word
	// lines; reading more distinct lines aborts with AbortCapacity. Rock
	// tracks reads per cache line in the L1 cache, which is large relative to
	// the store buffer, so the default is generous (1<<16 lines). Any value
	// <= 0 selects the default.
	MaxReadSet int

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
	// a pessimistic software path instead of retrying forever. That path
	// acquires the metadata locks of exactly the lines it touches. Unless
	// GlobalFallback is set nothing else is taken, so fallback operations
	// with disjoint footprints — and hardware transactions on unrelated
	// lines — proceed concurrently, and a run that meets another's line lock
	// sleeps until that line is released.
	EnableTLE bool

	// GlobalFallback selects, for the heap's lifetime, the §6 global-lock
	// fallback the paper describes: each fallback attempt also holds one
	// process-wide lock, and every hardware transaction waits out the
	// critical section at begin and validates the lock's sequence number at
	// extend and commit. The run still takes the line locks of what it
	// touches. It serializes all fallback operations and stalls all hardware
	// commits for the duration, but is the faithful Rock-era baseline, and
	// it is the choice for a heap whose fallback footprints are known to be
	// shared, where fine-grained runs queue on one another's line locks or
	// release and re-run their bodies. A heap without it never loads the
	// global lock's sequence on a hardware attempt. Only meaningful with
	// EnableTLE.
	GlobalFallback bool

	// NoMaxLive disables exact high-water tracking, removing the last
	// globally shared counters from the allocation fast path. Stats then
	// derives LiveWords from the per-thread cells and MaxLiveWords becomes
	// the largest live count observed at any Stats snapshot. Both are exact
	// when snapshots are taken at quiescence; a mid-run snapshot can tear
	// across cells and over- or under-state them. Throughput-only runs set
	// this; space-measured runs must leave it unset.
	NoMaxLive bool

	// Faults attaches the environment (see FaultPlan): seeded fault injection
	// and the yield model (FaultPlan.YieldEvery). nil — the default — injects
	// nothing, never yields and costs one pointer check per transactional
	// access. The same Config value (plan included) reproduces the same
	// injected fault sequence for equal executions.
	Faults *FaultPlan

	// trackMaxLive is the derived internal form of !NoMaxLive: exact
	// LiveWords/MaxLiveWords maintenance on the alloc/free path (a globally
	// shared live counter plus a CAS high-water loop per allocation), which
	// is what the paper's space figures need. Set by withDefaults so the
	// zero Config is exact.
	trackMaxLive bool
}

func (c Config) withDefaults() Config {
	if c.Words <= 0 {
		c.Words = defaultHeapWords
	}
	if c.StoreBufferSize == 0 {
		c.StoreBufferSize = RockStoreBufferSize
	}
	if c.MaxReadSet <= 0 {
		c.MaxReadSet = defaultMaxReadSet
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = defaultMaxRetries
	}
	c.trackMaxLive = !c.NoMaxLive
	return c
}
