// Package cpu models the NIC's processing cores: single-issue, five-stage,
// in-order pipelines with a one-entry store buffer, private instruction
// caches, and scratchpad access through the shared crossbar.
//
// The core is a timing model. It executes operation streams produced by the
// firmware layer: each Op is one dynamic instruction, tagged with its memory
// behavior (scratchpad load/store, atomic RMW, spinlock acquire/release) and
// pipeline hazards. Functional state that several cores race on (lock words,
// status-flag arrays, hardware pointers) lives in the scratchpad and is
// manipulated when the corresponding memory transaction completes, so races
// resolve exactly as the crossbar serializes them.
//
// Stall attribution follows the paper's Table 3: instruction-cache miss
// stalls, load stalls (the mandatory extra cycle of a two-cycle scratchpad
// load), scratchpad conflict stalls (crossbar arbitration and store-buffer
// structural waits), and pipeline stalls (hazards such as statically
// mispredicted branches, plus lock-spin branches).
package cpu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// OpKind classifies one dynamic instruction in a stream.
type OpKind uint8

// Operation kinds.
const (
	OpALU    OpKind = iota
	OpLoad          // scratchpad read
	OpStore         // scratchpad write (buffered; does not stall)
	OpRMW           // atomic set/update: one scratchpad transaction
	OpLock          // spin until the lock word at Addr is acquired
	OpUnlock        // release the lock word at Addr
)

// Op is one dynamic instruction.
type Op struct {
	Kind OpKind
	// Addr is the scratchpad byte address for memory operations. Stores
	// must not target lock words or flag arrays; those are owned by
	// OpLock/OpUnlock and OpRMW.
	Addr uint32
	// Hazard adds pipeline stall cycles after this instruction (statically
	// mispredicted branch annulment and similar unavoidable bubbles).
	Hazard uint8
	// OnComplete, if set, runs when the operation's memory transaction
	// completes (immediately after execution for OpALU); firmware uses it
	// to apply functional side effects at the timing-correct instant.
	OnComplete func()
}

// A Stream is a handler invocation: a code region (for instruction-cache
// behavior) plus the dynamic operations.
type Stream struct {
	Name     string
	CodeBase uint32
	CodeLen  uint32 // bytes; the PC walks the region sequentially, wrapping
	Ops      []Op
	// AcctID attributes this stream's cycles to a per-function bucket
	// (Table 6); negative means unattributed.
	AcctID int
	// OnDone runs when the final operation has completed.
	OnDone func()
}

// Stats aggregates a core's cycle accounting.
type Stats struct {
	Cycles         uint64
	Instructions   uint64
	IMissStalls    uint64
	LoadStalls     uint64
	ConflictStalls uint64
	PipelineStalls uint64
	IdleCycles     uint64
	SpinLoads      uint64 // lock-spin ll's issued (contention indicator)
	RMWs           uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.Instructions += o.Instructions
	s.IMissStalls += o.IMissStalls
	s.LoadStalls += o.LoadStalls
	s.ConflictStalls += o.ConflictStalls
	s.PipelineStalls += o.PipelineStalls
	s.IdleCycles += o.IdleCycles
	s.SpinLoads += o.SpinLoads
	s.RMWs += o.RMWs
}

type coreState uint8

const (
	stFetch    coreState = iota // next op needs an icache lookup
	stWaitFill                  // stalled on instruction fill
	stWaitMem                   // stalled on a load/RMW/lock transaction
	stHazard                    // burning pipeline hazard cycles
	stPlain                     // retiring non-memory lock-sequence instructions
)

// lock microsequence phases
const (
	lkNone    = 0
	lkLL      = 1 // ll outstanding
	lkBranch  = 2 // ll returned free; retire bnez + delay slot, then sc
	lkSC      = 3 // sc outstanding
	lkCheck   = 4 // sc returned; retire beqz (+nop on success)
	lkBackoff = 5 // spinning a short delay loop before retrying the ll
)

// spinBackoff is the delay-loop length after observing a held lock; it keeps
// spinning cores from saturating the lock word's scratchpad bank.
const spinBackoff = 6

// Core is one processing core.
type Core struct {
	ID int

	sp     *mem.Scratchpad
	xbar   *mem.Crossbar
	port   int
	icache *mem.ICache
	imem   *mem.InstrMemory

	// NextWork supplies the next handler invocation when the core is idle;
	// nil result means idle this cycle. The firmware layer installs it.
	NextWork func() *Stream
	// Gate, when non-nil, is consulted every cycle; false vetoes execution
	// (fault injection: stuck cores execute nothing, slowed cores only on a
	// subset of cycles). Vetoed cycles count only toward Cycles.
	Gate func(cycle uint64) bool
	// TraceMem, when set, observes every completed scratchpad transaction
	// (for the Figure 3 coherence traces).
	TraceMem func(trace.MemRef)
	// OnStreamBegin/OnStreamEnd, when set, observe stream occupancy: begin
	// fires when the core picks a stream up, end when the stream completes on
	// this core or is evicted by Preempt (the rescuing core begins it again).
	// Observers must not mutate the stream.
	OnStreamBegin func(*Stream)
	OnStreamEnd   func(*Stream)
	// Recycle, when set, takes back each stream that completes normally on
	// this core, after its OnDone has run; the core holds no reference to it
	// afterwards. A stream evicted by Preempt is never handed back, since
	// its remainder aliases its Ops.
	Recycle func(*Stream)

	cur   *Stream
	opIdx int
	pcOff uint32

	// One crossbar transaction is outstanding per core at a time (waiting
	// ops stall the pipeline; buffered stores block the next issue via the
	// port-busy check), so the completion callback is a single pre-bound
	// closure dispatching on xcb — not a fresh allocation per memory op.
	xcb      xbarCb
	xcbAddr  uint32
	xcbDone  func()
	xbarDone func(waited uint64)
	onFill   func() // pre-bound instruction-fill completion

	state     coreState
	hazardCtr uint8
	plainCtr  uint8
	memDone   bool
	fillDone  bool
	firstWait bool // distinguishes the mandatory load-stall cycle

	lockPhase int
	lockVal   uint32

	// Per-bucket attribution, indexed by Stream.AcctID: total cycles,
	// retired instructions, scratchpad accesses, and the lock-sequence
	// subsets of cycles and instructions (the paper's Table 5 and Table 6
	// "Locking" rows).
	FuncCycles     []uint64
	FuncInstr      []uint64
	FuncMem        []uint64
	FuncLockCycles []uint64
	FuncLockInstr  []uint64

	Stats Stats
}

// New creates a core attached to the shared memory system. funcBuckets sizes
// the per-function cycle attribution table.
func New(id int, sp *mem.Scratchpad, xbar *mem.Crossbar, port int, icache *mem.ICache, imem *mem.InstrMemory, funcBuckets int) *Core {
	c := &Core{
		ID: id, sp: sp, xbar: xbar, port: port, icache: icache, imem: imem,
		FuncCycles:     make([]uint64, funcBuckets),
		FuncInstr:      make([]uint64, funcBuckets),
		FuncMem:        make([]uint64, funcBuckets),
		FuncLockCycles: make([]uint64, funcBuckets),
		FuncLockInstr:  make([]uint64, funcBuckets),
	}
	c.xbarDone = c.onXbarDone
	c.onFill = func() { c.fillDone = true }
	return c
}

// xbarCb tags the kind of crossbar transaction the core has outstanding, for
// the shared completion callback.
type xbarCb uint8

const (
	cbLoad xbarCb = iota
	cbRMW
	cbStore
	cbLL
	cbUnlock
	cbSC
)

// onXbarDone is the completion callback for every core-issued crossbar
// transaction; it reproduces exactly what the former per-op closures did,
// using the transaction state recorded at submit time.
func (c *Core) onXbarDone(_ uint64) {
	addr, done := c.xcbAddr, c.xcbDone
	c.xcbDone = nil
	switch c.xcb {
	case cbLoad:
		c.sp.Read32(addr)
		if c.TraceMem != nil {
			c.TraceMem(trace.MemRef{Proc: c.ID, Addr: addr, Write: false})
		}
		if done != nil {
			done()
		}
		c.memDone = true
	case cbRMW:
		// One atomic transaction; the functional flag update is carried by
		// OnComplete against quiet bit-array state.
		c.sp.Read32(addr)
		if c.TraceMem != nil {
			c.TraceMem(trace.MemRef{Proc: c.ID, Addr: addr, Write: true})
		}
		if done != nil {
			done()
		}
		c.memDone = true
	case cbStore:
		// The store's functional payload (if any) is carried by OnComplete;
		// the word itself is not clobbered, since status flags share words
		// with generic store traffic.
		c.sp.CountWrite(addr)
		if c.TraceMem != nil {
			c.TraceMem(trace.MemRef{Proc: c.ID, Addr: addr, Write: true})
		}
		if done != nil {
			done()
		}
	case cbLL:
		c.lockVal = c.sp.Read32(addr)
		if c.TraceMem != nil {
			c.TraceMem(trace.MemRef{Proc: c.ID, Addr: addr, Write: false})
		}
		c.memDone = true
	case cbUnlock:
		c.sp.Write32(addr, 0)
		if c.TraceMem != nil {
			c.TraceMem(trace.MemRef{Proc: c.ID, Addr: addr, Write: true})
		}
		if done != nil {
			done()
		}
	case cbSC:
		// Atomic at completion: the crossbar delivers one transaction per
		// bank per cycle, so concurrent sc's serialize here.
		if c.sp.Read32(addr) == 0 {
			c.sp.Write32(addr, 1)
			c.lockVal = 1 // success
		} else {
			c.lockVal = 0 // failure
		}
		if c.TraceMem != nil {
			c.TraceMem(trace.MemRef{Proc: c.ID, Addr: addr, Write: true})
		}
		c.memDone = true
	}
}

// submit records the outstanding transaction and hands the shared callback to
// the crossbar.
func (c *Core) submit(kind xbarCb, addr uint32, write bool, done func()) {
	c.xcb = kind
	c.xcbAddr = addr
	c.xcbDone = done
	c.xbar.Submit(c.port, c.sp.Bank(addr), write, c.xbarDone)
}

// acct returns the current stream's attribution bucket, or -1.
func (c *Core) acct() int {
	if c.cur != nil && c.cur.AcctID >= 0 && c.cur.AcctID < len(c.FuncCycles) {
		return c.cur.AcctID
	}
	return -1
}

// inLockSeq reports whether the current op is part of a lock sequence.
func (c *Core) inLockSeq() bool {
	if c.cur == nil || c.opIdx >= len(c.cur.Ops) {
		return false
	}
	k := c.cur.Ops[c.opIdx].Kind
	return k == OpLock || k == OpUnlock
}

// Busy reports whether the core is executing a stream.
func (c *Core) Busy() bool { return c.cur != nil }

// Tick advances the core one CPU-domain cycle.
//
//nic:hotpath
func (c *Core) Tick(cycle uint64) {
	c.Stats.Cycles++
	if c.Gate != nil && !c.Gate(cycle) {
		return
	}

	if c.cur == nil {
		if c.NextWork != nil {
			if s := c.NextWork(); s != nil && len(s.Ops) > 0 {
				c.cur = s
				c.opIdx = 0
				c.pcOff = 0
				c.state = stFetch
				c.lockPhase = lkNone
				if c.OnStreamBegin != nil {
					c.OnStreamBegin(s)
				}
			}
		}
		if c.cur == nil {
			c.Stats.IdleCycles++
			return
		}
	}
	if a := c.acct(); a >= 0 {
		c.FuncCycles[a]++
		if c.inLockSeq() {
			c.FuncLockCycles[a]++
		}
	}

	// State transitions loop until this cycle is consumed (every branch of
	// the switch either returns after consuming the cycle or continues to
	// more bookkeeping).
	for {
		switch c.state {
		case stHazard:
			c.Stats.PipelineStalls++
			c.hazardCtr--
			if c.hazardCtr == 0 {
				c.advance()
			}
			return

		case stPlain:
			// One non-memory instruction of the lock sequence per cycle.
			c.retire()
			c.plainCtr--
			if c.plainCtr > 0 {
				return
			}
			switch c.lockPhase {
			case lkBranch:
				c.lockPhase = lkSC
				c.state = stFetch
			case lkCheck:
				c.lockPhase = lkNone
				op := &c.cur.Ops[c.opIdx]
				if op.OnComplete != nil {
					op.OnComplete() // lock acquired
				}
				c.finishOp(op)
			case lkBackoff:
				c.lockPhase = lkNone // retry the ll
				c.state = stFetch
			default:
				//nic:alloc unreachable unless the state machine is corrupt
				panic(fmt.Sprintf("cpu: core %d: stPlain in lock phase %d", c.ID, c.lockPhase))
			}
			return

		case stWaitMem:
			if !c.memDone {
				if c.firstWait {
					c.Stats.LoadStalls++
					c.firstWait = false
				} else {
					c.Stats.ConflictStalls++
				}
				return
			}
			// Transaction completed in an earlier cycle's crossbar tick.
			op := &c.cur.Ops[c.opIdx]
			switch c.lockPhase {
			case lkLL:
				if c.lockVal != 0 {
					// Lock held: bnez taken costs this cycle, then a short
					// backoff delay loop before the retry.
					c.retire()
					c.lockPhase = lkBackoff
					c.plainCtr = spinBackoff
					c.state = stPlain
					return
				}
				// Free: retire bnez this cycle, delay slot next, then sc.
				c.retire()
				c.lockPhase = lkBranch
				c.plainCtr = 1
				c.state = stPlain
				return
			case lkSC:
				if c.lockVal == 0 {
					// sc failed: beqz taken costs this cycle; retry from ll.
					c.retire()
					c.lockPhase = lkNone
					c.state = stFetch
					return
				}
				// Acquired: retire beqz this cycle, nop next.
				c.retire()
				c.lockPhase = lkCheck
				c.plainCtr = 1
				c.state = stPlain
				return
			default:
				// Plain load/RMW: the stall cycles are over; execute the
				// next instruction this cycle.
				c.finishOp(op)
				if c.cur == nil || c.state != stFetch {
					return
				}
				continue
			}

		case stWaitFill:
			if !c.fillDone {
				c.Stats.IMissStalls++
				return
			}
			c.icache.Fill(c.cur.CodeBase + c.pcOff)
			c.state = stFetch
			continue

		case stFetch:
			pc := c.cur.CodeBase + c.pcOff
			if !c.icache.Lookup(pc) {
				c.fillDone = false
				c.imem.RequestFill(c.ID, c.onFill)
				c.state = stWaitFill
				c.Stats.IMissStalls++
				return
			}
			c.execute()
			return
		}
	}
}

// execute runs one op's issue cycle. It always consumes the cycle.
func (c *Core) execute() {
	op := &c.cur.Ops[c.opIdx]
	switch op.Kind {
	case OpALU:
		c.retire()
		if op.OnComplete != nil {
			op.OnComplete()
		}
		c.finishOp(op)

	case OpLoad, OpRMW:
		if c.xbar.Busy(c.port) {
			c.Stats.ConflictStalls++ // store buffer draining
			return
		}
		c.retire()
		c.countMem()
		c.memDone = false
		c.firstWait = true
		if op.Kind == OpLoad {
			c.submit(cbLoad, op.Addr, false, op.OnComplete)
		} else {
			c.Stats.RMWs++
			c.submit(cbRMW, op.Addr, true, op.OnComplete)
		}
		c.state = stWaitMem

	case OpStore:
		if c.xbar.Busy(c.port) {
			c.Stats.ConflictStalls++
			return
		}
		c.retire()
		c.countMem()
		c.submit(cbStore, op.Addr, true, op.OnComplete)
		// Buffered: the core does not wait for the store.
		c.finishOp(op)

	case OpLock:
		if c.xbar.Busy(c.port) {
			c.Stats.ConflictStalls++
			return
		}
		if c.lockPhase == lkSC {
			c.issueSC(op)
			return
		}
		c.retire() // the ll
		c.Stats.SpinLoads++
		c.countMem()
		c.memDone = false
		c.firstWait = true
		c.submit(cbLL, op.Addr, false, nil)
		c.lockPhase = lkLL
		c.state = stWaitMem

	case OpUnlock:
		if c.xbar.Busy(c.port) {
			c.Stats.ConflictStalls++
			return
		}
		c.retire()
		c.countMem()
		c.submit(cbUnlock, op.Addr, true, op.OnComplete)
		c.finishOp(op)
	}
}

// scPhase runs when an OpLock reaches the sc step: issue the store
// conditional. Called from the fetch path via lockPhase.
func (c *Core) issueSC(op *Op) {
	c.retire() // the sc
	c.countMem()
	c.memDone = false
	c.firstWait = true
	c.submit(cbSC, op.Addr, true, nil)
	c.state = stWaitMem
}

// retire counts one retired instruction and advances the synthetic PC.
func (c *Core) retire() {
	c.Stats.Instructions++
	if a := c.acct(); a >= 0 {
		c.FuncInstr[a]++
		if c.inLockSeq() {
			c.FuncLockInstr[a]++
		}
	}
	c.pcOff += 4
	if c.cur != nil && c.cur.CodeLen > 0 && c.pcOff >= c.cur.CodeLen {
		c.pcOff = 0
	}
}

// countMem attributes one scratchpad access to the current bucket.
func (c *Core) countMem() {
	if a := c.acct(); a >= 0 {
		c.FuncMem[a]++
	}
}

// finishOp applies hazards and advances past a completed op.
func (c *Core) finishOp(op *Op) {
	if op.Hazard > 0 {
		c.hazardCtr = op.Hazard
		c.state = stHazard
		return
	}
	c.advance()
}

// advance moves to the next op or completes the stream.
func (c *Core) advance() {
	c.opIdx++
	if c.opIdx >= len(c.cur.Ops) {
		done := c.cur.OnDone
		cur := c.cur
		c.cur = nil
		c.state = stFetch
		if c.OnStreamEnd != nil {
			c.OnStreamEnd(cur)
		}
		if done != nil {
			done()
		}
		if c.Recycle != nil {
			c.Recycle(cur)
		}
		return
	}
	c.state = stFetch
}

// Preempt evicts the core's current stream so a supervisor can re-dispatch it
// on another core (stuck-core takeover). It returns the remainder of the
// stream — the operations that have not yet taken functional effect — or nil
// when the core was idle. ok=false means the core cannot be preempted right
// now: a store-conditional is in flight, so whether the lock was acquired is
// not yet known; the caller should retry shortly.
//
// The remainder is constructed so that every functional side effect happens
// exactly once: operations whose memory transaction is in flight or complete
// are skipped (the crossbar callback fires their OnComplete regardless of
// preemption), while operations that never issued — including a lock
// microsequence that had not yet won its sc — are re-issued verbatim.
// Preempting inside a held critical section is safe: the lock word stays set
// and the remainder still contains the matching OpUnlock.
func (c *Core) Preempt() (*Stream, bool) {
	if c.cur == nil {
		return nil, true
	}
	// sc outstanding: the lock outcome is unknown until the transaction
	// completes, so neither skipping nor re-issuing the OpLock is sound.
	if c.state == stWaitMem && c.lockPhase == lkSC && !c.memDone {
		return nil, false
	}

	resume := c.opIdx // first op of the remainder
	op := &c.cur.Ops[c.opIdx]
	switch c.state {
	case stHazard:
		// Op executed; only hazard bubbles remained.
		resume++
	case stPlain:
		switch c.lockPhase {
		case lkCheck:
			// sc succeeded: the lock is held but OnComplete has not run.
			if op.OnComplete != nil {
				op.OnComplete()
			}
			resume++
		default: // lkBranch, lkBackoff: lock not acquired — retry the ll.
		}
	case stWaitMem:
		switch c.lockPhase {
		case lkNone:
			// Plain load/RMW in flight or complete: the crossbar callback
			// runs OnComplete itself; do not run it again.
			resume++
		case lkLL:
			// ll outstanding: nothing functional happened; retry.
		case lkSC: // memDone, else refused above
			if c.lockVal != 0 {
				if op.OnComplete != nil {
					op.OnComplete()
				}
				resume++
			}
			// else sc failed: retry the ll.
		}
	case stFetch, stWaitFill:
		// Current op never issued; re-issue it.
	}

	out := &Stream{
		Name:     c.cur.Name,
		CodeBase: c.cur.CodeBase,
		CodeLen:  c.cur.CodeLen,
		Ops:      c.cur.Ops[resume:],
		AcctID:   c.cur.AcctID,
		OnDone:   c.cur.OnDone,
	}
	if len(out.Ops) == 0 {
		// Every op took effect; keep a one-op stub so OnDone still runs on
		// the rescuing core.
		out.Ops = []Op{{Kind: OpALU}}
	}
	if c.OnStreamEnd != nil {
		c.OnStreamEnd(c.cur)
	}
	c.cur = nil
	c.state = stFetch
	c.lockPhase = lkNone
	c.hazardCtr = 0
	c.plainCtr = 0
	return out, true
}
