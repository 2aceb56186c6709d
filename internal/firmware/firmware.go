package firmware

import (
	"fmt"

	"repro/internal/assist"
	"repro/internal/cpu"
	"repro/internal/fifo"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Attribution buckets (cpu.Stream.AcctID). Locking is attributed within
// buckets by the core's lock-sequence counters, giving the paper's eight
// Table 5/6 rows: {Fetch BD, Frame, Dispatch+Ordering, Locking} × direction.
const (
	AcctFetchSendBD = iota
	AcctSendFrame
	AcctSendOrder
	AcctFetchRecvBD
	AcctRecvFrame
	AcctRecvOrder
	AcctIdle
	NumAcct
)

// AcctNames labels the buckets.
var AcctNames = [NumAcct]string{
	"Fetch Send BD", "Send Frame", "Send Dispatch and Ordering",
	"Fetch Receive BD", "Receive Frame", "Receive Dispatch and Ordering",
	"Idle Poll",
}

// Event types, for the task-parallel baseline's event register and for
// dispatch statistics.
type evType int

const (
	evFetchSendBD evType = iota
	evSendPrep
	evSendDone
	evSendCommit
	evSendComplete
	evFetchRecvBD
	evRecvPrep
	evRecvDone
	evRecvCommit
	evRecvComplete
	numEvTypes
)

// Assists bundles the four hardware engines the firmware drives.
type Assists struct {
	DMARead  *assist.DMARead
	DMAWrite *assist.DMAWrite
	MACTx    *assist.MACTx
	MACRx    *assist.MACRx
}

// slotRing is a fixed-slot SDRAM buffer allocator. Slot size is deliberately
// not a multiple of 8 bytes so successive frames start at shifting
// misaligned offsets, reproducing the paper's note that frames "frequently
// are not stored ... such that they start and/or end on even 8-byte
// boundaries".
type slotRing struct {
	base     uint32
	slotSize uint32
	free     []int
}

func newSlotRing(base uint32, slotSize uint32, slots int) *slotRing {
	r := &slotRing{base: base, slotSize: slotSize}
	for i := slots - 1; i >= 0; i-- {
		r.free = append(r.free, i)
	}
	return r
}

func (r *slotRing) alloc() (addr uint32, slot int, ok bool) {
	if len(r.free) == 0 {
		return 0, 0, false
	}
	slot = r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	return r.base + uint32(slot)*r.slotSize, slot, true
}

func (r *slotRing) release(slot int) { r.free = append(r.free, slot) }

func (r *slotRing) available() int { return len(r.free) }

// rxQueue is one receive queue's independent pipeline: its own arrival and
// completion queues, BD credit, status-flag subarray, and in-order commit
// head. A single-queue build has exactly one, whose flag array is the whole
// legacy FlagsRecv region — the seed pipeline, address for address.
type rxQueue struct {
	q        int
	seq      uint64 // frames steered here so far (the next frame's qidx)
	flagBits int
	flagBase uint32
	flags    *mem.BitArray

	arrivedQ    fifo.Queue[*recvFrame]
	bdCredit    int
	bdFetchOut  int
	dmaDone     fifo.Queue[*recvFrame]
	ring        []*recvFrame
	set         uint64
	commitHead  uint64
	commitClaim bool
	commitDone  func() // releaseCommit, bound once
	doneQ       fifo.Queue[*recvFrame]
}

// releaseCommit ends the queue's commit stream, allowing the next claim.
func (rq *rxQueue) releaseCommit() { rq.commitClaim = false }

// bdEntries is the queue's share of the RegionRecvBD descriptor ring.
func (rq *rxQueue) bdEntries(nq int) uint32 { return 2048 / uint32(nq) }

// bdAddr returns the scratchpad address of the fetched receive BD for index
// i of this queue, within the queue's slice of the BD region.
func (rq *rxQueue) bdAddr(nq int, i uint64) uint32 {
	ents := rq.bdEntries(nq)
	return RegionRecvBD + uint32(rq.q)*ents*16 + uint32(i%uint64(ents))*16
}

// Firmware is the NIC firmware model: it owns the functional frame pipeline
// state and supplies work (operation streams) to the cores.
type Firmware struct {
	Prof Profile
	sp   *mem.Scratchpad
	hst  *host.Host
	as   Assists

	sendFlags *mem.BitArray

	txRing *slotRing
	rxRing *slotRing

	// Send pipeline.
	sendSeq         uint64
	bdFetchOut      int
	txReserved      int
	prepQ           fifo.Queue[*sendFrame]
	sendDMADone     fifo.Queue[*sendFrame]
	sendRing        []*sendFrame
	sendSet         uint64 // flags set
	sendCommitHead  uint64
	sendCommitClaim bool
	sendCommitDone  func() // releaseSendCommit, bound once
	txDoneQ         fifo.Queue[*sendFrame]

	// Receive pipeline: a global arrival counter (frame identity for
	// observation and conservation audits) plus one independent rxQueue per
	// RSS receive queue.
	recvSeq uint64
	rxq     []*rxQueue
	// Rotating queue cursors, one per receive claim kind, so multi-queue
	// claims visit queues fairly without any shared scan order.
	rxqCur [5]int

	// Pipeline audit counters: frames in the claim→effect windows that the
	// queues above do not cover. Together with the queues they account for
	// every in-flight frame, making the run invariants' conservation audit
	// exact at any instant (all transitions happen within single callbacks).
	claimedSend int // popped from prepQ, frame DMA not yet programmed
	claimedRecv int // popped from rxArrivedQ, descriptor DMA not yet programmed
	dmaOutSend  int // frame-fetch DMAs in flight
	dmaOutRecv  int // descriptor-write DMAs in flight
	ordPendSend int // popped from sendDMADone, status flag not yet set
	ordPendRecv int // popped from rxDMADone, status flag not yet set

	// Fault recovery (nil when no fault plan is attached).
	rec *recovery
	// orphans holds streams rescued from preempted cores, re-dispatched to
	// any core ahead of new claims.
	orphans fifo.Queue[*cpu.Stream]
	// Takeovers counts stuck-core takeovers; Rescued the streams they
	// re-dispatched; FlagRepairs the ordering-state fixes they applied.
	Takeovers   uint64
	Rescued     uint64
	FlagRepairs uint64

	// Per-core continuation queues (segments of the current event).
	cont []fifo.Queue[*cpu.Stream]

	// Free lists of recycled records. They belong to this firmware, never
	// to the process: a sweep runs many NICs concurrently. They grow
	// lazily to the run's peak occupancy.
	sendFree  []*sendFrame
	recvFree  []*recvFrame
	eventFree []*event

	// Scratch slices reused by every claim's stream build: descriptor
	// address lists and the frames an ordering set covers. Builds run one
	// at a time and consume these before returning.
	bases, odds, shifted []uint32
	sendTmp              []*sendFrame
	recvTmp              []*recvFrame

	// Task-parallel event register: one core per event type. A busy
	// type's final stream ends with release[g], bound once per type, which
	// runs that stream's own OnDone (held in releasePrev[g]) and frees the
	// type; one event per type is in flight, so one slot per type suffices.
	typeBusy    [numEvTypes]bool
	release     [numEvTypes]func()
	releasePrev [numEvTypes]func()

	evSeq   uint64
	seedCtr int64
	src     streamSource // hazard generator and recycled streams
	claimRR int
	nCores  int

	// Statistics.
	Events      [numEvTypes]stats.Counter
	TxCommitted stats.Counter
	// OnTransmit observes transmitted frames (order validation).
	OnTransmit func(f *host.Frame)
	// Obs, when non-nil, receives per-frame lifecycle stage events. All
	// recording happens inside callbacks that already run at the
	// timing-correct instants, so the hooks cannot perturb the simulation.
	Obs *obs.Recorder
}

// New wires a firmware instance to the memory system, host, and assists,
// and installs its callbacks on the assists. slotBytes sizes the SDRAM frame
// buffer slots; zero means the standard 1530 bytes (a maximum frame plus
// slack, deliberately not 8-byte aligned), and jumbo-enabled builds pass a
// slot large enough for a jumbo frame.
func New(prof Profile, sp *mem.Scratchpad, hst *host.Host, as Assists, nCores int, txSlots, rxSlots int, slotBytes uint32) *Firmware {
	if slotBytes == 0 {
		slotBytes = 1530
	}
	fw := &Firmware{
		Prof:      prof,
		sp:        sp,
		hst:       hst,
		as:        as,
		sendFlags: mem.NewBitArray(sp, FlagsSend, FlagBits),
		txRing:    newSlotRing(0x000000, slotBytes, txSlots),
		rxRing:    newSlotRing(0x800000, slotBytes, rxSlots),
		sendRing:  make([]*sendFrame, FlagBits),
		cont:      make([]fifo.Queue[*cpu.Stream], nCores),
		nCores:    nCores,
	}
	fw.sendCommitDone = fw.releaseSendCommit
	// One receive pipeline per host receive queue. The status-flag region is
	// subdivided evenly: with one queue the subarray is the entire legacy
	// FlagsRecv array, so the seed build's flag addresses are unchanged.
	nq := hst.RxQueues()
	bits := RecvFlagBits(nq)
	for q := 0; q < nq; q++ {
		rq := &rxQueue{
			q:        q,
			flagBits: bits,
			flagBase: FlagsRecvQ(q, nq),
			ring:     make([]*recvFrame, bits),
		}
		rq.flags = mem.NewBitArray(sp, rq.flagBase, bits)
		rq.commitDone = rq.releaseCommit
		fw.rxq = append(fw.rxq, rq)
	}
	as.MACRx.Alloc = func(size int, handle any) (uint32, bool) {
		addr, _, ok := fw.rxRing.alloc()
		if !ok {
			return 0, false
		}
		return addr, true
	}
	as.MACRx.OnReceive = func(buf uint32, size int, handle any, queue int) {
		rq := fw.rxq[queue]
		fr := fw.newRecvFrame()
		fr.f, fr.idx, fr.q, fr.qidx, fr.buf, fr.size = handle.(*host.Frame), fw.recvSeq, queue, rq.seq, buf, size
		fw.recvSeq++
		rq.seq++
		rq.ring[fr.qidx%uint64(rq.flagBits)] = fr
		fr.slot = int((buf - fw.rxRing.base) / fw.rxRing.slotSize)
		rq.arrivedQ.Push(fr)
		fw.Obs.FrameStageQ(obs.Recv, obs.RecvBuffered, fr.idx, fr.q)
	}
	as.MACTx.OnTransmit = func(handle any) {
		fr := handle.(*sendFrame)
		fw.txDoneQ.Push(fr)
		fw.Obs.FrameStage(obs.Send, obs.SendWireDone, fr.idx)
		if fw.OnTransmit != nil {
			fw.OnTransmit(fr.f)
		}
	}
	return fw
}

// Code-region base addresses of the firmware image. The handlers pack
// contiguously into under 6 KB so the 8 KB per-core caches capture the whole
// working set (distinct cache sets per handler) even as tasks migrate
// between cores.
const (
	codeDispatchBase = 0x0000 // 1024 B
	codeFetchBDBase  = 0x0400 // 1024 B
	codeSendBase     = 0x0800 // 2816 B
	codeRecvBase     = 0x1300 // 2816 B
	codeOrderBase    = 0x1e00 // 1024 B
)

// NextWorkFor returns the dispatch closure for one core.
func (fw *Firmware) NextWorkFor(coreID int) func() *cpu.Stream {
	return func() *cpu.Stream { return fw.nextWork(coreID) }
}

// nextWork picks the next stream for a core: continuations of the current
// event first, then new events by priority, then an idle poll pass.
func (fw *Firmware) nextWork(coreID int) *cpu.Stream {
	if q := &fw.cont[coreID]; q.Len() > 0 {
		return q.Pop()
	}
	// Streams rescued from a preempted core run before any new claim so a
	// takeover cannot reorder work that was already dispatched.
	if fw.orphans.Len() > 0 {
		return fw.orphans.Pop()
	}
	// Commits always go first (they unblock both pipelines and are cheap);
	// the remaining claims rotate round-robin so neither direction starves
	// the other.
	head := []claim{
		{evRecvCommit, fw.claimRecvCommit},
		{evSendCommit, fw.claimSendCommit},
	}
	rotating := []claim{
		{evRecvDone, fw.claimRecvDone},
		{evSendDone, fw.claimSendDone},
		{evRecvPrep, fw.claimRecvPrep},
		{evSendPrep, fw.claimSendPrep},
		{evRecvComplete, fw.claimRecvComplete},
		{evSendComplete, fw.claimSendComplete},
		{evFetchRecvBD, fw.claimFetchRecvBD},
		{evFetchSendBD, fw.claimFetchSendBD},
	}
	try := func(c claim) *cpu.Stream {
		g := eventGroup[c.t]
		if fw.Prof.Parallelism == TaskParallel && fw.typeBusy[g] {
			return nil
		}
		s := c.f(coreID)
		if s == nil {
			return nil
		}
		fw.Events[c.t].Inc()
		if fw.Prof.Parallelism == TaskParallel {
			fw.typeBusy[g] = true
			fw.markRelease(coreID, g, s)
		}
		return s
	}
	for _, c := range head {
		if s := try(c); s != nil {
			return s
		}
	}
	fw.claimRR++
	for i := 0; i < len(rotating); i++ {
		if s := try(rotating[(i+fw.claimRR)%len(rotating)]); s != nil {
			return s
		}
	}
	return fw.pollStream(coreID)
}

type claim struct {
	t evType
	f func(int) *cpu.Stream
}

// eventGroup maps fine-grained work units onto the Tigon-II event-register
// bits the task-parallel baseline serializes on. The event register has one
// bit per hardware event type — all send-frame processing is one handler, as
// is all receive-frame processing — which is exactly why task-level
// parallelism cannot use many cores ("so long as a processor is engaged in
// handling a specific type of event, no other processor can simultaneously
// handle that same type of event").
var eventGroup = [numEvTypes]evType{
	evFetchSendBD:  evFetchSendBD,
	evSendPrep:     evSendPrep, // the send-frame handler bit
	evSendDone:     evSendPrep,
	evSendCommit:   evSendPrep,
	evSendComplete: evSendPrep,
	evFetchRecvBD:  evFetchRecvBD,
	evRecvPrep:     evRecvPrep, // the receive-frame handler bit
	evRecvDone:     evRecvPrep,
	evRecvCommit:   evRecvPrep,
	evRecvComplete: evRecvPrep,
}

// markRelease clears a task-parallel busy flag when the event's final
// segment finishes.
func (fw *Firmware) markRelease(coreID int, g evType, first *cpu.Stream) {
	last := first
	if q := &fw.cont[coreID]; q.Len() > 0 {
		last = q.At(q.Len() - 1)
	}
	if fw.release[g] == nil {
		fw.release[g] = func() { fw.releaseType(g) }
	}
	fw.releasePrev[g] = last.OnDone
	last.OnDone = fw.release[g]
}

// releaseType ends a task-parallel event: the final stream's own
// completion runs, then the type is free to claim again.
func (fw *Firmware) releaseType(g evType) {
	prev := fw.releasePrev[g]
	fw.releasePrev[g] = nil
	if prev != nil {
		prev()
	}
	fw.typeBusy[g] = false
}

// batch limits per-event frame counts; the task-parallel baseline processes
// everything pending of a type at once (its handlers are not reentrant).
func (fw *Firmware) batch(avail int) int {
	max := fw.Prof.EventBatch
	if fw.Prof.Parallelism == TaskParallel {
		max = 4 * fw.Prof.EventBatch
	}
	if avail < max {
		return avail
	}
	return max
}

// seed returns a fresh deterministic stream seed.
func (fw *Firmware) seed() int64 {
	fw.seedCtr++
	return fw.seedCtr
}

// newBuilder starts the next stream under a fresh seed.
func (fw *Firmware) newBuilder() streamBuilder {
	return fw.src.builder(fw.seed(), fw.Prof.HazardFrac)
}

// Recycle takes back a stream that completed normally, once its OnDone has
// run, so a later stream reuses the struct and its op buffer. A stream a
// core evicted with Preempt must not come back: its remainder aliases its
// ops.
func (fw *Firmware) Recycle(s *cpu.Stream) {
	fw.src.free = append(fw.src.free, s)
}

// eventAddr returns the scratchpad address of the next event structure.
func (fw *Firmware) eventAddr() uint32 {
	a := RegionEvents + uint32(fw.evSeq%512)*32
	fw.evSeq++
	return a
}

// addrCycle builds an address function cycling through the given word
// bases, advancing by words within each base on each full cycle.
func addrCycle(bases ...uint32) func(i int) uint32 {
	n := len(bases)
	return func(i int) uint32 {
		return bases[i%n] + uint32((i/n)%8)*4
	}
}

// desc returns the offset of a frame's stage block within its direction's
// descriptor region.
func desc(idx uint64, stage uint32) uint32 {
	return uint32(idx%DescEntries)*DescStride + stage
}

// odd selects the odd-index bases (the writable per-frame descriptors from
// interleaved BD/descriptor base lists) into the firmware's scratch slice.
func (fw *Firmware) odd(bases []uint32) []uint32 {
	out := fw.odds[:0]
	for i := 1; i < len(bases); i += 2 {
		out = append(out, bases[i])
	}
	fw.odds = out
	return out
}

// offset shifts every base by off bytes (stage-private store sub-blocks)
// into the firmware's scratch slice.
func (fw *Firmware) offset(bases []uint32, off uint32) []uint32 {
	out := fw.shifted[:0]
	for _, b := range bases {
		out = append(out, b+off)
	}
	fw.shifted = out
	return out
}

// addrWalk cycles through the bases advancing without wrapping: mostly
// single-touch accesses, the dominant pattern in NIC frame metadata ("there
// is little locality in network interface firmware").
func addrWalk(bases ...uint32) func(i int) uint32 {
	n := len(bases)
	return func(i int) uint32 {
		return bases[i%n] + uint32(i/n)*4
	}
}

// dispatchStream charges the per-event dispatch cost: inspecting hardware
// pointers, building the event structure, and inserting it into the shared
// event queue under the queue lock (software-raised events and retries flow
// through the same queue, so every dispatch synchronizes on it).
func (fw *Firmware) dispatchStream(acct int) *cpu.Stream {
	b := fw.newBuilder()
	ev := fw.eventAddr()
	b.cost(fw.Prof.DispatchPerEvent, addrCycle(ev, PtrDMARead, PtrMACRx))
	b.lock(LockEventQ, nil)
	b.alu(3)
	b.load(ev)
	b.store(ev)
	b.unlock(LockEventQ, nil)
	return b.build("dispatch", codeDispatchBase, fw.Prof.CodeDispatch, acct, nil)
}

// pollStream is an unproductive pass over the hardware pointers. In the
// software-only firmware the dispatch loop must also check the status-flag
// arrays for committable runs, which takes the ordering locks and scans flag
// words — the "synchronized, looping memory accesses" the paper identifies
// as a significant overhead. The update instruction eliminates exactly these
// scans, so the RMW-enhanced poll touches only the hardware pointers.
func (fw *Firmware) pollStream(coreID int) *cpu.Stream {
	b := fw.newBuilder()
	b.cost(fw.Prof.PollPass, addrCycle(PtrMailbox, PtrDMARead, PtrDMAWrite, PtrMACTx, PtrMACRx, PtrRecvBDPool))
	if fw.Prof.Ordering == SoftwareOnly {
		b.scanFlags(LockSendOrd, FlagsSend, fw.sendCommitHead, FlagBits)
		// Every receive queue's flag subarray is scanned under its own
		// ordering lock — the per-queue share of the "synchronized, looping
		// memory accesses" the dispatch loop pays in software-only mode.
		for _, rq := range fw.rxq {
			b.scanFlags(LockRecvOrdQ(rq.q), rq.flagBase, rq.commitHead, uint64(rq.flagBits))
		}
	}
	return b.build("poll", codeDispatchBase, fw.Prof.CodeDispatch, AcctIdle, nil)
}

// scanFlags appends one poll pass's look at a flag array: the two words at
// the commit head, read under the array's ordering lock.
func (b *streamBuilder) scanFlags(lock, base uint32, head, bits uint64) {
	word := base + uint32((head%bits)/32)*4
	b.lock(lock, nil)
	b.alu(3)
	b.load(word)
	b.alu(3)
	b.load(word + 4)
	b.alu(2)
	b.unlock(lock, nil)
}

// chain returns the first stream and queues the rest as continuations.
func (fw *Firmware) chain(coreID int, streams ...*cpu.Stream) *cpu.Stream {
	for _, s := range streams[1:] {
		fw.cont[coreID].Push(s)
	}
	return streams[0]
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

// claimFetchSendBD starts a send-descriptor batch fetch: the paper's "Fetch
// Send BD" task, one DMA of up to 32 descriptors (16 frames).
func (fw *Firmware) claimFetchSendBD(coreID int) *cpu.Stream {
	if fw.bdFetchOut >= 2 || fw.hst.PostedSendBDs() < 2 || fw.prepQ.Len() > 256 {
		return nil
	}
	nBDs := fw.hst.PostedSendBDs()
	if nBDs > SendBDsPerBatch {
		nBDs = SendBDsPerBatch
	}
	nBDs &^= 1 // whole frames only
	if nBDs == 0 {
		return nil
	}
	fw.bdFetchOut++

	ev := fw.newEvent(evFetchSendBD, nil)
	ev.n = nBDs
	ev.base = RegionSendBD + uint32(fw.sendSeq%2048)*16
	b := fw.newBuilder()
	base := ev.base
	b.cost(fw.Prof.FetchSendBDBatch.scale(float64(nBDs)/SendBDsPerBatch), addrCycle(base, base+16, base+32))
	b.lock(LockSendBD, nil)
	b.alu(4)
	b.store(base)
	b.unlock(LockSendBD, nil)
	b.then(ev.apply)
	work := b.build("fetch-send-bd", codeFetchBDBase, fw.Prof.CodeFetchBD, AcctFetchSendBD, nil)
	return fw.chain(coreID, fw.dispatchStream(AcctSendOrder), work)
}

// claimSendPrep processes fetched descriptors: reads BDs, allocates transmit
// buffer space, and programs the DMA read engine — "Send Frame" part one.
func (fw *Firmware) claimSendPrep(coreID int) *cpu.Stream {
	if fw.prepQ.Len() == 0 {
		return nil
	}
	n := fw.batch(fw.prepQ.Len())
	if free := fw.txRing.available() - fw.txReserved; free < n {
		n = free
	}
	if n <= 0 {
		return nil
	}
	fw.txReserved += n
	ev := fw.newEvent(evSendPrep, nil)
	ev.send = fw.prepQ.PopTo(ev.send, n)
	fw.claimedSend += n

	b := fw.newBuilder()
	bases := fw.bases[:0]
	for _, fr := range ev.send {
		bases = append(bases,
			RegionSendBD+uint32(fr.idx%2048)*16,
			RegionSendDesc+desc(fr.idx, DescStagePrep))
	}
	fw.bases = bases
	b.cost2(fw.Prof.SendFramePrep.scale(float64(n)), addrWalk(bases...), addrWalk(fw.odd(bases)...))
	// Transmit-buffer allocation: the lock is held across the per-frame
	// allocation loop, as in the Tigon-derived firmware, so concurrent
	// send-prepare events on other cores serialize here.
	b.lock(LockTxAlloc, nil)
	for i := 0; i < n; i++ {
		b.alu(4)
		b.load(PtrDMARead)
		b.store(bases[i%len(bases)])
	}
	b.unlock(LockTxAlloc, nil)
	b.then(ev.apply)
	work := b.build("send-prep", codeSendBase, fw.Prof.CodeSendFrame, AcctSendFrame, nil)
	return fw.chain(coreID, fw.dispatchStream(AcctSendOrder), work)
}

// claimSendDone processes frame-DMA completions and marks each frame's
// status flag — "Send Frame" part two plus the ordering set.
func (fw *Firmware) claimSendDone(coreID int) *cpu.Stream {
	if fw.sendDMADone.Len() == 0 {
		return nil
	}
	n := fw.batch(fw.sendDMADone.Len())
	frames := fw.sendDMADone.PopTo(fw.sendTmp[:0], n)
	fw.sendTmp = frames
	fw.ordPendSend += n

	b := fw.newBuilder()
	bases := fw.bases[:0]
	for _, fr := range frames {
		bases = append(bases, RegionSendDesc+desc(fr.idx, DescStageDone))
	}
	fw.bases = bases
	b.cost2(fw.Prof.SendFrameDone.add(fw.Prof.ExtensionPerFrame).scale(float64(n)), addrWalk(bases...), addrWalk(fw.offset(bases, DescStageDoneStore-DescStageDone)...))
	work := b.build("send-done", codeSendBase, fw.Prof.CodeSendFrame, AcctSendFrame, nil)

	ord := fw.orderingSetStream(true, frames, nil)
	return fw.chain(coreID, fw.dispatchStream(AcctSendOrder), work, ord)
}

// claimSendCommit advances the in-order commit point and hands consecutive
// ready frames to the MAC — the dispatch-loop commit of the paper.
func (fw *Firmware) claimSendCommit(coreID int) *cpu.Stream {
	if fw.sendCommitClaim || fw.sendSet == fw.sendCommitHead {
		return nil
	}
	ready := fw.consecutiveReady(fw.sendFlags, fw.sendCommitHead, FlagBits)
	if ready == 0 {
		return nil
	}
	fw.sendCommitClaim = true
	return fw.commitStream(coreID, nil, ready)
}

// releaseSendCommit ends the send commit stream, allowing the next claim.
func (fw *Firmware) releaseSendCommit() { fw.sendCommitClaim = false }

// claimSendComplete handles transmit completions: frees buffer space and
// notifies the host — "Send Frame" part three.
func (fw *Firmware) claimSendComplete(coreID int) *cpu.Stream {
	if fw.txDoneQ.Len() == 0 {
		return nil
	}
	n := fw.batch(fw.txDoneQ.Len())
	ev := fw.newEvent(evSendComplete, nil)
	ev.send = fw.txDoneQ.PopTo(ev.send, n)

	b := fw.newBuilder()
	bases := fw.bases[:0]
	for _, fr := range ev.send {
		bases = append(bases, RegionSendDesc+desc(fr.idx, DescStageComplete))
	}
	fw.bases = bases
	b.cost2(fw.Prof.SendFrameComplete.scale(float64(n)), addrWalk(bases...), addrWalk(fw.offset(bases, DescStageCompleteStore-DescStageComplete)...))
	// Host notification: the consumer-index updates for the batch happen
	// under one lock hold.
	b.lock(LockHostNtfy, nil)
	for i := 0; i < n; i++ {
		b.alu(3)
		b.store(PtrMACTx)
	}
	b.unlock(LockHostNtfy, nil)
	b.then(ev.apply)
	work := b.build("send-complete", codeSendBase, fw.Prof.CodeSendFrame, AcctSendFrame, nil)
	return fw.chain(coreID, fw.dispatchStream(AcctSendOrder), work)
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

// eachRxQueue visits the receive queues starting at the rotating cursor for
// one claim kind, returning the first queue's stream. The cursor advances
// past a successful claim so no queue monopolizes a claim kind; with one
// queue the scan is a single probe of queue 0, as in the seed firmware.
func (fw *Firmware) eachRxQueue(kind int, try func(rq *rxQueue) *cpu.Stream) *cpu.Stream {
	nq := len(fw.rxq)
	for i := 0; i < nq; i++ {
		qi := (fw.rxqCur[kind] + i) % nq
		if s := try(fw.rxq[qi]); s != nil {
			fw.rxqCur[kind] = (qi + 1) % nq
			return s
		}
	}
	return nil
}

// claimFetchRecvBD replenishes a queue's receive-buffer descriptor pool:
// "Fetch Receive BD", one DMA of up to 16 descriptors. Each queue fetches
// from its own host ring under its own lock, so BD production is
// independent per queue.
func (fw *Firmware) claimFetchRecvBD(coreID int) *cpu.Stream {
	return fw.eachRxQueue(0, func(rq *rxQueue) *cpu.Stream {
		if rq.bdFetchOut >= 2 || rq.bdCredit > 128 || fw.hst.PostedRecvBDs(rq.q) == 0 {
			return nil
		}
		n := fw.hst.PostedRecvBDs(rq.q)
		if n > RecvBDsPerBatch {
			n = RecvBDsPerBatch
		}
		rq.bdFetchOut++

		ev := fw.newEvent(evFetchRecvBD, rq)
		ev.n = n
		ev.base = rq.bdAddr(len(fw.rxq), rq.seq)
		b := fw.newBuilder()
		base := ev.base
		b.cost(fw.Prof.FetchRecvBDBatch.scale(float64(n)/RecvBDsPerBatch), addrCycle(base, base+16))
		b.lock(LockRecvBDQ(rq.q), nil)
		b.alu(4)
		b.store(base)
		b.unlock(LockRecvBDQ(rq.q), nil)
		b.then(ev.apply)
		work := b.build("fetch-recv-bd", codeFetchBDBase, fw.Prof.CodeFetchBD, AcctFetchRecvBD, nil)
		return fw.chain(coreID, fw.dispatchStream(AcctRecvOrder), work)
	})
}

// claimRecvPrep matches one queue's arrived frames with receive buffers and
// programs the DMA write engine — "Receive Frame" part one.
func (fw *Firmware) claimRecvPrep(coreID int) *cpu.Stream {
	return fw.eachRxQueue(1, func(rq *rxQueue) *cpu.Stream {
		if rq.arrivedQ.Len() == 0 || rq.bdCredit == 0 {
			return nil
		}
		n := fw.batch(rq.arrivedQ.Len())
		if n > rq.bdCredit {
			n = rq.bdCredit
		}
		ev := fw.newEvent(evRecvPrep, rq)
		ev.recv = rq.arrivedQ.PopTo(ev.recv, n)
		rq.bdCredit -= n
		fw.claimedRecv += n

		b := fw.newBuilder()
		bases := fw.bases[:0]
		for _, fr := range ev.recv {
			bases = append(bases,
				rq.bdAddr(len(fw.rxq), fr.qidx),
				RegionRecvDesc+desc(fr.idx, DescStagePrep))
		}
		fw.bases = bases
		b.cost2(fw.Prof.RecvFramePrep.scale(float64(n)), addrWalk(bases...), addrWalk(fw.odd(bases)...))
		// Receive-buffer pool bookkeeping holds the queue's pool lock across
		// the per-frame matching loop. The paper singles this lock out:
		// contention on "a lock in the receive path" limits the RMW-enhanced
		// configuration's peak frame rate — per-queue pool locks are exactly
		// the relief RSS buys.
		b.lock(LockRxPoolQ(rq.q), nil)
		for i := 0; i < n; i++ {
			b.alu(4)
			b.load(PtrRecvBDPoolQ(rq.q))
			b.store(bases[i%len(bases)])
		}
		b.unlock(LockRxPoolQ(rq.q), nil)
		b.then(ev.apply)
		work := b.build("recv-prep", codeRecvBase, fw.Prof.CodeRecvFrame, AcctRecvFrame, nil)
		return fw.chain(coreID, fw.dispatchStream(AcctRecvOrder), work)
	})
}

// claimRecvDone processes one queue's host-DMA completions and sets its
// status flags — "Receive Frame" part two plus the ordering set.
func (fw *Firmware) claimRecvDone(coreID int) *cpu.Stream {
	return fw.eachRxQueue(2, func(rq *rxQueue) *cpu.Stream {
		if rq.dmaDone.Len() == 0 {
			return nil
		}
		n := fw.batch(rq.dmaDone.Len())
		frames := rq.dmaDone.PopTo(fw.recvTmp[:0], n)
		fw.recvTmp = frames
		fw.ordPendRecv += n

		b := fw.newBuilder()
		bases := fw.bases[:0]
		for _, fr := range frames {
			bases = append(bases, RegionRecvDesc+desc(fr.idx, DescStageDone))
		}
		fw.bases = bases
		b.cost2(fw.Prof.RecvFrameDone.add(fw.Prof.ExtensionPerFrame).scale(float64(n)), addrWalk(bases...), addrWalk(fw.offset(bases, DescStageDoneStore-DescStageDone)...))
		work := b.build("recv-done", codeRecvBase, fw.Prof.CodeRecvFrame, AcctRecvFrame, nil)

		ord := fw.orderingSetStream(false, nil, frames)
		return fw.chain(coreID, fw.dispatchStream(AcctRecvOrder), work, ord)
	})
}

// claimRecvCommit advances one queue's commit point, delivering that
// queue's consecutive frames to the host in its arrival order — the
// per-queue (not global) in-order invariant RSS relaxes to.
func (fw *Firmware) claimRecvCommit(coreID int) *cpu.Stream {
	return fw.eachRxQueue(3, func(rq *rxQueue) *cpu.Stream {
		if rq.commitClaim || rq.set == rq.commitHead {
			return nil
		}
		ready := fw.consecutiveReady(rq.flags, rq.commitHead, rq.flagBits)
		if ready == 0 {
			return nil
		}
		rq.commitClaim = true
		return fw.commitStream(coreID, rq, ready)
	})
}

// claimRecvComplete frees one queue's receive buffer slots after delivery —
// "Receive Frame" part three.
func (fw *Firmware) claimRecvComplete(coreID int) *cpu.Stream {
	return fw.eachRxQueue(4, func(rq *rxQueue) *cpu.Stream {
		if rq.doneQ.Len() == 0 {
			return nil
		}
		n := fw.batch(rq.doneQ.Len())
		ev := fw.newEvent(evRecvComplete, rq)
		ev.recv = rq.doneQ.PopTo(ev.recv, n)

		b := fw.newBuilder()
		bases := fw.bases[:0]
		for _, fr := range ev.recv {
			bases = append(bases, RegionRecvDesc+desc(fr.idx, DescStageComplete))
		}
		fw.bases = bases
		b.cost2(fw.Prof.RecvFrameComplete.scale(float64(n)), addrWalk(bases...), addrWalk(fw.offset(bases, DescStageCompleteStore-DescStageComplete)...))
		b.lock(LockRxPoolQ(rq.q), nil)
		for i := 0; i < n; i++ {
			b.alu(3)
			b.store(PtrRecvBDPoolQ(rq.q))
		}
		b.unlock(LockRxPoolQ(rq.q), nil)
		b.then(ev.apply)
		work := b.build("recv-complete", codeRecvBase, fw.Prof.CodeRecvFrame, AcctRecvFrame, nil)
		return fw.chain(coreID, fw.dispatchStream(AcctRecvOrder), work)
	})
}

// ---------------------------------------------------------------------------
// Ordering
// ---------------------------------------------------------------------------

// consecutiveReady counts consecutive set flags from the commit head of a
// bits-sized flag array, functionally (the timing cost is charged by the
// commit stream's ops).
func (fw *Firmware) consecutiveReady(ba *mem.BitArray, head uint64, bits int) int {
	n := 0
	for n < bits && ba.IsSet(int((head+uint64(n))%uint64(bits))) {
		n++
	}
	return n
}

// orderingSetStream builds the per-frame status-flag set segment: the
// lock-protected read-modify-write sequence in software-only mode, or one
// atomic set instruction in RMW mode. Exactly one of sf/rf is non-nil, and
// a receive batch is always frames of a single queue, whose flag subarray
// and ordering lock the stream targets. Each frame's flag is set by its
// record's pre-bound completion.
func (fw *Firmware) orderingSetStream(send bool, sf []*sendFrame, rf []*recvFrame) *cpu.Stream {
	var rq *rxQueue
	lockAddr := uint32(LockSendOrd)
	acct := AcctSendOrder
	flagBase := uint32(FlagsSend)
	flagBits := uint64(FlagBits)
	if !send {
		rq = fw.rxq[rf[0].q]
		lockAddr = LockRecvOrdQ(rq.q)
		acct = AcctRecvOrder
		flagBase = rq.flagBase
		flagBits = uint64(rq.flagBits)
	}
	n := len(sf) + len(rf)
	idxOf := func(i int) uint64 {
		if send {
			return sf[i].idx
		}
		return rf[i].qidx
	}
	wordAddr := func(i int) uint32 {
		return flagBase + uint32((idxOf(i)%flagBits)/32)*4
	}
	flagSet := func(i int) func() {
		if send {
			return sf[i].flagSet
		}
		return rf[i].flagSet
	}

	syncOrder := fw.Prof.SyncOrderRecv
	syncLock := fw.Prof.SyncLockRecv
	if send {
		syncOrder = fw.Prof.SyncOrderSend
		syncLock = fw.Prof.SyncLockSend
	}
	// Task-level parallel firmware never runs a handler on two cores at
	// once, so it pays no reentrancy synchronization (its handlers are not
	// reentrant; that is exactly what caps its scaling).
	extra := n * (fw.nCores - 1)
	if fw.Prof.Parallelism == TaskParallel {
		extra = 0
	}

	b := fw.newBuilder()
	if fw.Prof.Ordering == SoftwareOnly {
		// The measured sw_set kernel, per frame: lock acquire (ll/bnez/
		// addiu/sc/beqz/nop emerge from OpLock), index arithmetic, word
		// read-modify-write, release. This per-frame synchronization is
		// exactly the overhead the paper's set instruction removes.
		for i := 0; i < n; i++ {
			b.lock(lockAddr, nil)
			b.alu(3)
			b.load(wordAddr(i))
			b.alu(4)
			b.store(wordAddr(i))
			b.then(flagSet(i))
			b.unlock(lockAddr, nil)
			b.alu(2)
		}
		// Reentrancy synchronization against every other active core's
		// concurrent handlers (removed entirely by the RMW instructions).
		b.cost(syncOrder.scale(float64(extra)), addrCycle(wordAddr(0), lockAddr))
	} else {
		for i := 0; i < n; i++ {
			// setb: one atomic transaction, plus return linkage.
			b.rmw(wordAddr(i), flagSet(i))
			b.alu(2)
		}
	}
	// The lock-based share of reentrancy synchronization remains under
	// either ordering implementation and is real locking work: acquire and
	// release rounds on the direction's pool/notify lock. Under RMW it
	// grows: "contention among the remaining firmware locks increases. This
	// problem is particularly troublesome for a lock in the receive path."
	if fw.Prof.Ordering == RMWEnhanced {
		syncLock = syncLock.scale(1.5)
	}
	poolLock := uint32(LockHostNtfy)
	if !send {
		poolLock = LockRxPoolQ(rq.q)
	}
	// Each uncontended round costs ~8 instructions (6-instruction acquire,
	// release store, linkage), so rounds approximate the budgeted share.
	rounds := extra * syncLock.Instr / 8
	for r := 0; r < rounds; r++ {
		b.lock(poolLock, nil)
		b.unlock(poolLock, nil)
	}
	return b.build("ordering-set", codeOrderBase, fw.Prof.CodeOrdering, acct, nil)
}

// commitStream builds the in-order commit: the software-only scan clears
// ready flags one lock-protected word access at a time; the RMW version is a
// single atomic update. Commit actions (handing frames to the MAC or to the
// host) run serialized inside the final memory transaction's completion.
// rq is the receive queue being committed (nil on the send side).
func (fw *Firmware) commitStream(coreID int, rq *rxQueue, ready int) *cpu.Stream {
	acct := AcctSendOrder
	lockAddr := uint32(LockSendOrd)
	flagBase := uint32(FlagsSend)
	flagBits := uint64(FlagBits)
	hwPtr := uint32(PtrMACTx)
	head := fw.sendCommitHead
	done := fw.sendCommitDone
	kind := evSendCommit
	if rq != nil {
		acct = AcctRecvOrder
		lockAddr = LockRecvOrdQ(rq.q)
		flagBase = rq.flagBase
		flagBits = uint64(rq.flagBits)
		hwPtr = PtrDMAWrite
		head = rq.commitHead
		done = rq.commitDone
		kind = evRecvCommit
	}
	ev := fw.newEvent(kind, rq)
	ev.n = ready

	b := fw.newBuilder()
	b.cost(fw.Prof.CommitPerEvent, addrCycle(fw.eventAddr(), hwPtr))

	wordAt := func(k uint64) uint32 {
		return flagBase + uint32((k%flagBits)/32)*4
	}

	if fw.Prof.Ordering == SoftwareOnly {
		b.lock(lockAddr, nil)
		b.load(wordAt(head)) // read head pointer word
		for i := 0; i < ready; i++ {
			// Scan iteration: index math, load word, test, clear, store.
			b.alu(3)
			b.load(wordAt(head + uint64(i)))
			b.alu(4)
			b.store(wordAt(head + uint64(i)))
		}
		// Terminating iteration (bit clear) plus head and pointer stores.
		b.alu(6)
		b.store(hwPtr)
		b.then(ev.apply)
		b.unlock(lockAddr, nil)
		b.alu(2)
	} else {
		// upd: one atomic transaction bounded to a single word; commit what
		// it actually cleared, then publish the hardware pointer.
		b.rmw(wordAt(head), ev.apply)
		b.alu(2)
		b.store(hwPtr)
		b.alu(2)
	}
	return b.build("commit", codeOrderBase, fw.Prof.CodeOrdering, acct, done)
}

// commit applies a commit stream's effect on the send direction (rq nil)
// or one receive queue: the software scan clears at least the n ready flags
// through the bit array, the RMW update whatever one atomic update clears.
// The cleared frames move on in order.
func (fw *Firmware) commit(rq *rxQueue, n int) {
	ba := fw.sendFlags
	if rq != nil {
		ba = rq.flags
	}
	if fw.Prof.Ordering != SoftwareOnly {
		_, k := ba.Update()
		fw.commitCleared(rq, k)
		return
	}
	cleared := 0
	for cleared < n {
		_, k := ba.Update()
		if k == 0 {
			break
		}
		cleared += k
	}
	fw.commitCleared(rq, cleared)
}

// commitCleared hands k consecutive frames past the commit head to the next
// stage, in order (per queue on the receive side).
func (fw *Firmware) commitCleared(rq *rxQueue, k int) {
	for i := 0; i < k; i++ {
		if rq == nil {
			fr := fw.sendRing[fw.sendCommitHead%FlagBits]
			if fr == nil {
				panic(fmt.Sprintf("firmware: committing absent send frame %d", fw.sendCommitHead))
			}
			fw.sendRing[fw.sendCommitHead%FlagBits] = nil
			fw.sendCommitHead++
			fw.TxCommitted.Inc()
			fw.as.MACTx.Send(fr.buf, fr.f.Size, fr)
			fw.Obs.FrameStage(obs.Send, obs.SendCommitted, fr.idx)
		} else {
			fr := rq.ring[rq.commitHead%uint64(rq.flagBits)]
			if fr == nil {
				panic(fmt.Sprintf("firmware: committing absent receive frame %d on queue %d", rq.commitHead, rq.q))
			}
			rq.ring[rq.commitHead%uint64(rq.flagBits)] = nil
			rq.commitHead++
			fw.hst.DeliverFrame(fr.f, rq.q)
			rq.doneQ.Push(fr)
			fw.Obs.FrameStageQ(obs.Recv, obs.RecvDelivered, fr.idx, rq.q)
		}
	}
}

// Debug summarizes internal pipeline state for diagnostics.
func (fw *Firmware) Debug() string {
	s := fmt.Sprintf(
		"send: seq=%d prepQ=%d dmaDone=%d set=%d commitHead=%d claim=%v txDoneQ=%d bdOut=%d txFree=%d\n",
		fw.sendSeq, fw.prepQ.Len(), fw.sendDMADone.Len(), fw.sendSet, fw.sendCommitHead, fw.sendCommitClaim, fw.txDoneQ.Len(), fw.bdFetchOut, fw.txRing.available())
	for _, rq := range fw.rxq {
		s += fmt.Sprintf(
			"recv[%d]: seq=%d arrived=%d credit=%d dmaDone=%d set=%d commitHead=%d claim=%v doneQ=%d bdOut=%d rxFree=%d\n",
			rq.q, rq.seq, rq.arrivedQ.Len(), rq.bdCredit, rq.dmaDone.Len(), rq.set, rq.commitHead, rq.commitClaim, rq.doneQ.Len(), rq.bdFetchOut, fw.rxRing.available())
	}
	return s + fmt.Sprintf("events: %v", fw.Events)
}
