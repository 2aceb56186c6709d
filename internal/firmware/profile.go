// Package firmware models the NIC's event-driven, frame-level parallel
// firmware: the event dispatch loop, the per-frame processing handlers
// (fetch send BD, send frame, fetch receive BD, receive frame), and the two
// frame-ordering implementations the paper compares — lock-based software
// ordering and the atomic set/update RMW instructions.
//
// Handlers execute on the cpu cores as operation streams whose instruction
// and memory-access budgets come from two sources: the ideal per-task costs
// reconstructed from the paper's prose (229/206 MIPS and 2.6/2.2 Gb/s at
// 812,744 frames/s give 282/253 instructions and 100/85 accesses per frame),
// and the ordering-kernel costs measured by executing real assembly on the
// ISA interpreter (package fwkernels). Lock contention is not a constant: it
// emerges from cores spinning on real lock words through the crossbar.
package firmware

import (
	"math/rand"
	"slices"
	"sync"

	"repro/internal/cpu"
	"repro/internal/fwkernels"
)

// Scratchpad memory map (byte addresses). Word interleaving spreads each
// region across all banks; distinct locks land in distinct banks. Per-frame
// state is wide (512 B across the processing stages) and the rings are long,
// so metadata accesses are dominated by first touches — the paper's finding
// that "there is little locality in network interface firmware".
const (
	RegionEvents   = 0x00000 // event structures, 32 B each (512-entry ring)
	RegionSendBD   = 0x04000 // fetched send BDs, 16 B each (2048-entry ring)
	RegionRecvBD   = 0x0c000 // fetched receive BDs
	RegionSendDesc = 0x14000 // per-frame send state, 512 B each (160-entry ring)
	RegionRecvDesc = 0x28000 // per-frame receive state
	RegionFlags    = 0x3c000 // status bit arrays
	RegionLocks    = 0x3d000 // lock words
	RegionPtrs     = 0x3e000 // hardware progress pointers and mailboxes
)

// Per-frame descriptor geometry: each in-flight frame owns a 512-byte state
// entry, subdivided per processing stage so different cores write disjoint
// lines as the frame migrates between handlers.
const (
	DescStride             = 512
	DescEntries            = 160 // 80 KB ring per direction
	DescStagePrep          = 0
	DescStageDone          = 160
	DescStageDoneStore     = 224
	DescStageComplete      = 320
	DescStageCompleteStore = 384
	DescDMA                = 480
)

// Lock word addresses. Consecutive words interleave across banks.
const (
	LockSendBD   = RegionLocks + 0x00
	LockRecvBD   = RegionLocks + 0x04
	LockTxAlloc  = RegionLocks + 0x08
	LockRxPool   = RegionLocks + 0x0c
	LockSendOrd  = RegionLocks + 0x10
	LockRecvOrd  = RegionLocks + 0x14
	LockEventQ   = RegionLocks + 0x18
	LockHostNtfy = RegionLocks + 0x1c
)

// Hardware pointer addresses polled by the dispatch loop.
const (
	PtrMailbox    = RegionPtrs + 0x00
	PtrDMARead    = RegionPtrs + 0x04
	PtrDMAWrite   = RegionPtrs + 0x08
	PtrMACTx      = RegionPtrs + 0x0c
	PtrMACRx      = RegionPtrs + 0x10
	PtrRecvBDPool = RegionPtrs + 0x14
)

// Flag array bases. Each array holds FlagBits bits (512 bytes).
const (
	FlagsSend = RegionFlags + 0x000
	FlagsRecv = RegionFlags + 0x200
)

// FlagBits is the size of each status bit array; it must cover every frame
// in flight.
const FlagBits = 4096

// MaxRxQueues bounds the RSS receive-queue count. Per-queue status-flag
// arrays subdivide the fixed FlagsRecv region evenly, so the count must be
// a power of two, and 16 queues still leave 256 flag bits per queue —
// comfortably above each queue's share of in-flight frames.
const MaxRxQueues = 16

// RecvFlagBits returns the per-queue status-flag capacity with nq receive
// queues: FlagBits with one queue (the whole legacy array), FlagBits/nq
// otherwise.
func RecvFlagBits(nq int) int { return FlagBits / nq }

// FlagsRecvQ returns the base address of receive queue q's status-flag
// subarray within the FlagsRecv region. Queue 0 of a single-queue build is
// the legacy FlagsRecv array itself.
func FlagsRecvQ(q, nq int) uint32 {
	return FlagsRecv + uint32(q)*uint32(FlagBits/nq/8)
}

// Per-queue receive lock words. Queue 0 uses the legacy words — a
// single-queue build touches exactly the seed addresses — and each
// additional queue gets its own trio at RegionLocks+0x40 onward, so queues
// never contend on one another's receive locks.

// LockRecvBDQ returns queue q's receive-BD fetch lock.
func LockRecvBDQ(q int) uint32 {
	if q == 0 {
		return LockRecvBD
	}
	return RegionLocks + 0x40 + uint32(q-1)*12
}

// LockRxPoolQ returns queue q's receive-pool lock.
func LockRxPoolQ(q int) uint32 {
	if q == 0 {
		return LockRxPool
	}
	return RegionLocks + 0x40 + uint32(q-1)*12 + 4
}

// LockRecvOrdQ returns queue q's receive-ordering lock.
func LockRecvOrdQ(q int) uint32 {
	if q == 0 {
		return LockRecvOrd
	}
	return RegionLocks + 0x40 + uint32(q-1)*12 + 8
}

// PtrRecvBDPoolQ returns queue q's receive-pool progress pointer.
func PtrRecvBDPoolQ(q int) uint32 {
	if q == 0 {
		return PtrRecvBDPool
	}
	return RegionPtrs + 0x20 + uint32(q-1)*4
}

// IsFrameMetadata reports whether a scratchpad address holds frame metadata
// (buffer descriptors, per-frame state, event structures) as opposed to
// synchronization state (locks, status-flag arrays) or hardware registers
// (progress pointers). The paper's Figure 3 coherence traces "were filtered
// to include only frame metadata".
func IsFrameMetadata(addr uint32) bool {
	return addr < RegionFlags
}

// Ordering selects the frame-ordering implementation.
type Ordering int

// Ordering implementations.
const (
	// SoftwareOnly uses lock-protected load/store sequences to set status
	// flags and scan for committable runs.
	SoftwareOnly Ordering = iota
	// RMWEnhanced uses the paper's atomic set and update instructions.
	RMWEnhanced
)

// String names the ordering mode as the paper does.
func (o Ordering) String() string {
	if o == RMWEnhanced {
		return "RMW-enhanced"
	}
	return "Software-only"
}

// Parallelism selects the firmware organization.
type Parallelism int

// Firmware organizations.
const (
	// FrameParallel is the paper's contribution: a distributed event queue
	// in which any core processes any pending work unit.
	FrameParallel Parallelism = iota
	// TaskParallel is the Tigon-II event-register baseline: at most one core
	// runs a given event type at a time (paper Figure 4).
	TaskParallel
)

// String names the organization.
func (p Parallelism) String() string {
	if p == TaskParallel {
		return "task-parallel"
	}
	return "frame-parallel"
}

// TaskCost is an operation budget: Instr total instructions of which Loads
// are scratchpad reads and Stores scratchpad writes (the rest are ALU and
// branch work).
type TaskCost struct {
	Instr  int
	Loads  int
	Stores int
}

// scale multiplies a cost by f, rounding to nearest.
func (c TaskCost) scale(f float64) TaskCost {
	return TaskCost{
		Instr:  int(float64(c.Instr)*f + 0.5),
		Loads:  int(float64(c.Loads)*f + 0.5),
		Stores: int(float64(c.Stores)*f + 0.5),
	}
}

// add sums two costs.
func (c TaskCost) add(o TaskCost) TaskCost {
	return TaskCost{c.Instr + o.Instr, c.Loads + o.Loads, c.Stores + o.Stores}
}

// Accesses returns loads+stores.
func (c TaskCost) Accesses() int { return c.Loads + c.Stores }

// Profile is the full per-task cost model of one firmware build.
type Profile struct {
	// Ideal task costs (Table 1). Batch costs cover one descriptor-fetch
	// DMA: 32 send BDs (16 frames) or 16 receive BDs (16 frames).
	FetchSendBDBatch  TaskCost // per batch of 32 send BDs
	SendFramePrep     TaskCost // per frame: read BDs, allocate, program DMA
	SendFrameDone     TaskCost // per frame: DMA completion processing
	SendFrameComplete TaskCost // per frame: transmit completion, host notify
	FetchRecvBDBatch  TaskCost // per batch of 16 receive BDs
	RecvFramePrep     TaskCost // per frame: buffer match, program DMA + descriptor
	RecvFrameDone     TaskCost // per frame: DMA completion processing
	RecvFrameComplete TaskCost // per frame: commit bookkeeping

	// Parallelization overheads (Table 5 rows "Dispatch and Ordering" and
	// "Locking").
	DispatchPerEvent TaskCost // build one event structure and claim it
	PollPass         TaskCost // one pass over the hardware pointers
	CommitPerEvent   TaskCost // commit-scan fixed cost (excluding ordering ops)

	// Reentrancy/synchronization overhead of the frame-level parallel
	// firmware, charged per frame for each additional active core. The
	// paper's firmware applies "synchronization to all data shared between
	// different tasks"; its measured per-frame instruction count grows
	// roughly 35% from one to six cores (derivable from the 800 MHz
	// single-core operating point against Table 3's six-core 0.72 IPC at
	// line rate). SyncOrder is the share the atomic set/update instructions
	// eliminate; SyncLock is the share that remains lock-based under RMW.
	SyncOrderSend TaskCost // per frame per extra core, send direction
	SyncLockSend  TaskCost
	SyncOrderRecv TaskCost
	SyncLockRecv  TaskCost

	// ExtensionPerFrame is extra per-frame processing layered onto the
	// frame handlers, modeling the extended services the paper motivates
	// programmability with (TCP offload, iSCSI, NIC-side caching,
	// intrusion detection). Zero in every baseline configuration.
	ExtensionPerFrame TaskCost

	// Ordering-kernel costs measured on the interpreter.
	Kernels fwkernels.Results

	Ordering    Ordering
	Parallelism Parallelism

	// EventBatch bounds frames per event.
	EventBatch int

	// HazardFrac is the fraction of instructions followed by a one-cycle
	// pipeline hazard (statically mispredicted branches and load-use
	// bubbles), calibrated to the paper's 0.10 IPC loss.
	HazardFrac float64

	// Code footprints (bytes) per handler, for instruction-cache behavior.
	// The firmware's total footprint is small (the paper: instruction
	// misses cost only 0.01 IPC even though tasks migrate between cores).
	CodeDispatch  uint32
	CodeFetchBD   uint32
	CodeSendFrame uint32
	CodeRecvFrame uint32
	CodeOrdering  uint32
}

// SendBDsPerBatch and RecvBDsPerBatch are the descriptor-fetch DMA batch
// sizes from the paper (32 and 16 descriptors; a sent frame takes two
// descriptors, a receive buffer one).
const (
	SendBDsPerBatch = 32
	RecvBDsPerBatch = 16
	SendBDWords     = 4 // 16-byte descriptors
	RecvBDWords     = 4
	FramesPerSendBD = SendBDsPerBatch / 2
)

// DefaultProfile returns the calibrated firmware cost model. overhead scales
// the parallelization-overhead costs; 1.0 reproduces the paper's six-core
// 200 MHz software-only operating point.
func DefaultProfile(ord Ordering) Profile {
	p := Profile{
		// Ideal send path: 282 instructions, 100 accesses per frame.
		FetchSendBDBatch:  TaskCost{224, 24, 62}, // 14 instr, 6 accesses per frame
		SendFramePrep:     TaskCost{150, 24, 21}, // incl. reading 2 BDs (8 words)
		SendFrameDone:     TaskCost{60, 9, 8},    //
		SendFrameComplete: TaskCost{58, 9, 7},    // total 282/100 per frame
		// Ideal receive path: 253 instructions, 85 accesses per frame.
		FetchRecvBDBatch:  TaskCost{160, 18, 40}, // 10 instr, 4 accesses per frame
		RecvFramePrep:     TaskCost{140, 21, 19}, //
		RecvFrameDone:     TaskCost{55, 8, 7},    //
		RecvFrameComplete: TaskCost{48, 7, 8},    // total 253/85 per frame

		// Frame-level parallelism "requires some additional overhead to
		// build event data structures": inspecting several hardware
		// pointers, allocating and filling the event structure, and
		// inserting it into the shared queue. This fixed per-event cost is
		// what fragments across many cores (smaller batches per event) and
		// amortizes on few cores (larger batches).
		DispatchPerEvent: TaskCost{140, 30, 24},
		PollPass:         TaskCost{12, 3, 0},
		CommitPerEvent:   TaskCost{48, 12, 8},

		SyncOrderSend: TaskCost{24, 7, 5},
		SyncLockSend:  TaskCost{7, 2, 2},
		SyncOrderRecv: TaskCost{7, 2, 1},
		SyncLockRecv:  TaskCost{16, 5, 4},

		Kernels:     fwkernels.MustMeasure(64, 8),
		Ordering:    ord,
		Parallelism: FrameParallel,
		EventBatch:  16,
		HazardFrac:  0.28,

		CodeDispatch:  1024,
		CodeFetchBD:   1024,
		CodeSendFrame: 2816,
		CodeRecvFrame: 2816,
		CodeOrdering:  1024,
	}
	return p
}

// streamSource is the state one firmware's stream builders share: the
// generator that draws hazards past the memo, and the free list of streams
// whose op buffers later builders reuse. A firmware runs its builders one
// at a time (each is built before the next draws), so they can share it.
type streamSource struct {
	rng  *rand.Rand    // reseeded once per stream that outruns its memo entry
	bits []uint64      // the live builder's draws, memoized prefix included
	free []*cpu.Stream // completed streams, recycled by builder
}

// builder starts a stream with the given hazard seed and fraction, reusing
// a recycled stream and its op buffer when one is free.
func (src *streamSource) builder(seed int64, hazardFrac float64) streamBuilder {
	b := streamBuilder{src: src, seed: seed, hf: hazardFrac}
	if n := len(src.free); n > 0 {
		b.s = src.free[n-1]
		src.free = src.free[:n-1]
		b.ops = b.s.Ops[:0]
	}
	return b
}

// streamBuilder assembles op streams with evenly interleaved memory
// operations and deterministic pseudo-random addresses within a region.
type streamBuilder struct {
	ops  []cpu.Op
	s    *cpu.Stream // recycled stream for build to fill, or nil
	src  *streamSource
	seed int64
	hf   float64
	draw int          // hazard draws consumed so far
	ent  *hazardEntry // memoized draws (nil until the first draw)
	full bool         // the memo had no room for this seed at lookup
	live bool         // draws past ent come from src.rng
}

// hazard returns the next deterministic hazard draw: exactly the value
// rand.New(rand.NewSource(seed)).Float64() < hf would yield for this draw
// index. Streams are seeded from an incrementing counter, so the same seeds
// recur in every simulation a process runs (benchmark iterations, suite
// sweeps); seeding Go's generator costs ~2000 multiplies, so the draw
// sequence is memoized process-wide per (seed, fraction) and replayed as a
// bitset. A stream that runs past its memo entry seeds the firmware's
// generator once, skips the memoized draws once, draws live until build,
// and build publishes the longer entry.
func (b *streamBuilder) hazard() bool {
	i := b.draw
	b.draw++
	if !b.live {
		if b.ent == nil {
			b.ent, b.full = hazardLookup(b.seed, b.hf)
		}
		if i < b.ent.n {
			return b.ent.bits[i>>6]>>(uint(i)&63)&1 != 0
		}
		b.goLive()
	}
	return b.liveDraw(i)
}

// goLive seeds the shared generator for this stream and skips the draws the
// memo entry already holds, whose bits seed the live bit buffer.
func (b *streamBuilder) goLive() {
	src := b.src
	if src.rng == nil {
		src.rng = rand.New(rand.NewSource(b.seed))
	} else {
		src.rng.Seed(b.seed)
	}
	for j := 0; j < b.ent.n; j++ {
		src.rng.Float64()
	}
	src.bits = append(src.bits[:0], b.ent.bits...)
	b.live = true
}

// liveDraw draws hazard i from the generator and records it in the live bit
// buffer. Entry lengths are multiples of 64, so draw i lands in word i>>6.
func (b *streamBuilder) liveDraw(i int) bool {
	src := b.src
	if i&63 == 0 {
		src.bits = append(src.bits, 0)
	}
	if src.rng.Float64() < b.hf {
		src.bits[i>>6] |= 1 << (uint(i) & 63)
		return true
	}
	return false
}

// publish extends the live draws to the next memo length — at least double
// the entry it outran, in whole chunks — and stores them as the seed's entry.
func (b *streamBuilder) publish() {
	target := max(2*b.ent.n, b.draw)
	target = (target + hazardChunk - 1) / hazardChunk * hazardChunk
	for i := b.draw; i < target; i++ {
		b.liveDraw(i)
	}
	hazardStore(b.seed, b.hf, b.src.bits, target)
}

// hazardKey identifies one memoized draw sequence.
type hazardKey struct {
	seed int64
	hf   float64
}

// hazardEntry is an immutable prefix of a draw sequence. Extension swaps in
// a fresh entry under the cache lock, so readers never see mutation.
type hazardEntry struct {
	bits []uint64
	n    int
}

var (
	hazardMu    sync.RWMutex
	hazardCache = map[hazardKey]*hazardEntry{} //nic:guardedby hazardMu
)

// noDraws is the entry of a seed the memo does not hold.
var noDraws = &hazardEntry{}

const (
	// hazardChunk is the draw-count granularity of cached entries; most
	// streams draw far fewer (a poll pass draws ~9).
	hazardChunk = 128
	// hazardCacheMax bounds the cache; beyond it new seeds draw live and are
	// not published. 1<<20 entries ≈ tens of MB, far above any suite's seed
	// count.
	hazardCacheMax = 1 << 20
)

// hazardLookup returns the memoized draws for the given seed and fraction
// (noDraws when there are none) and whether the memo is too full to take
// the seed.
func hazardLookup(seed int64, hf float64) (e *hazardEntry, full bool) {
	hazardMu.RLock()
	defer hazardMu.RUnlock()
	e = hazardCache[hazardKey{seed, hf}]
	if e == nil {
		return noDraws, len(hazardCache) >= hazardCacheMax
	}
	return e, false
}

// hazardStore publishes the first n draws in bits as the entry for seed and
// fraction, unless the memo already holds as many or has no room for a new
// seed. Every entry is a prefix of the same sequence, so when builders race
// to extend one seed, the longest entry wins.
func hazardStore(seed int64, hf float64, bits []uint64, n int) {
	k := hazardKey{seed, hf}
	hazardMu.Lock()
	defer hazardMu.Unlock()
	e := hazardCache[k]
	if e != nil && e.n >= n || e == nil && len(hazardCache) >= hazardCacheMax {
		return
	}
	hazardCache[k] = &hazardEntry{bits: slices.Clone(bits[:n/64]), n: n}
}

// cost appends a TaskCost worth of work: c.Instr instructions with the
// memory accesses spread evenly through the ALU work and loads/stores mixed
// proportionally. addrFn supplies the address for the i-th memory access.
func (b *streamBuilder) cost(c TaskCost, addrFn func(i int) uint32) {
	mem := c.Loads + c.Stores
	total := c.Instr
	if total < mem {
		total = mem
	}
	b.ops = slices.Grow(b.ops, total)
	memDone := 0
	loadsLeft, storesLeft := c.Loads, c.Stores
	loadAcc := 0
	for n := 0; n < total; n++ {
		if mem > 0 && memDone*total < mem*(n+1) {
			addr := addrFn(memDone)
			loadAcc += c.Loads
			if storesLeft == 0 || (loadsLeft > 0 && loadAcc >= mem) {
				loadAcc -= mem
				b.load(addr)
				loadsLeft--
			} else {
				b.store(addr)
				storesLeft--
			}
			memDone++
			continue
		}
		op := cpu.Op{Kind: cpu.OpALU}
		if b.hazard() {
			op.Hazard = 1
		}
		b.ops = append(b.ops, op)
	}
}

// cost2 is cost with separate address generators for loads and stores, so
// read-only structures (fetched descriptors) are never written by cores.
func (b *streamBuilder) cost2(c TaskCost, loadFn, storeFn func(i int) uint32) {
	start := len(b.ops)
	b.cost(c, func(i int) uint32 { return 0 })
	li, si := 0, 0
	for j := start; j < len(b.ops); j++ {
		switch b.ops[j].Kind {
		case cpu.OpLoad:
			b.ops[j].Addr = loadFn(li)
			li++
		case cpu.OpStore:
			b.ops[j].Addr = storeFn(si)
			si++
		}
	}
}

// alu appends n plain ALU ops.
func (b *streamBuilder) alu(n int) {
	b.ops = slices.Grow(b.ops, n)
	for i := 0; i < n; i++ {
		b.ops = append(b.ops, cpu.Op{Kind: cpu.OpALU})
	}
}

// load appends one load.
func (b *streamBuilder) load(addr uint32) {
	b.ops = append(b.ops, cpu.Op{Kind: cpu.OpLoad, Addr: addr})
}

// store appends one store.
func (b *streamBuilder) store(addr uint32) {
	b.ops = append(b.ops, cpu.Op{Kind: cpu.OpStore, Addr: addr})
}

// lock appends a spinlock acquire.
func (b *streamBuilder) lock(addr uint32, onAcquire func()) {
	b.ops = append(b.ops, cpu.Op{Kind: cpu.OpLock, Addr: addr, OnComplete: onAcquire})
}

// unlock appends a lock release.
func (b *streamBuilder) unlock(addr uint32, onRelease func()) {
	b.ops = append(b.ops, cpu.Op{Kind: cpu.OpUnlock, Addr: addr, OnComplete: onRelease})
}

// rmw appends one atomic set/update transaction.
func (b *streamBuilder) rmw(addr uint32, onComplete func()) {
	b.ops = append(b.ops, cpu.Op{Kind: cpu.OpRMW, Addr: addr, OnComplete: onComplete})
}

// then appends a zero-cost completion action to the last op.
func (b *streamBuilder) then(f func()) {
	if len(b.ops) == 0 {
		b.ops = append(b.ops, cpu.Op{Kind: cpu.OpALU})
	}
	last := &b.ops[len(b.ops)-1]
	if last.OnComplete == nil {
		last.OnComplete = f
		return
	}
	prev := last.OnComplete
	last.OnComplete = func() { prev(); f() }
}

// build finalizes the stream, publishing any live draws to the memo.
func (b *streamBuilder) build(name string, codeBase, codeLen uint32, acct int, onDone func()) *cpu.Stream {
	if b.live && !b.full {
		b.publish()
	}
	s := b.s
	if s == nil {
		s = new(cpu.Stream)
	}
	*s = cpu.Stream{
		Name: name, CodeBase: codeBase, CodeLen: codeLen,
		Ops: b.ops, AcctID: acct, OnDone: onDone,
	}
	return s
}
