// Package assist models the NIC's four streaming hardware assist units: the
// DMA read and DMA write engines that move data across the host interconnect,
// and the MAC transmit and receive engines that move data on and off the
// Ethernet.
//
// The assists are solely responsible for frame-data transfers (which flow
// through the external SDRAM) but also touch control data: they read and
// update descriptors and progress pointers in the scratchpad, contending with
// the processors through the crossbar. Each assist buffers up to two
// maximum-sized frames so that SDRAM bursts overlap host or wire activity.
package assist

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Host abstracts the host interconnect: Delay schedules f after one host
// round-trip (descriptor or data DMA latency). The host model implements it.
type Host interface {
	Delay(f func())
}

// ScratchPort adapts an assist to its crossbar port: a small FIFO of control
// accesses pumped one at a time. Register Tick in the CPU domain before the
// crossbar.
type ScratchPort struct {
	sp   *mem.Scratchpad
	xbar *mem.Crossbar
	port int
	proc int // trace attribution id

	queue fifo.Queue[spOp]
	busy  bool
	// The crossbar holds at most one access per port, so the completion
	// callback is one pre-bound closure over cur — not an allocation per op.
	cur    spOp
	onDone func(waited uint64)

	// TraceMem observes completed accesses for coherence traces.
	TraceMem func(trace.MemRef)
	Accesses stats.Counter
}

type spOp struct {
	addr   uint32
	write  bool
	onDone func()
}

// NewScratchPort creates a port adapter. proc is the processor id used in
// captured memory traces.
func NewScratchPort(sp *mem.Scratchpad, xbar *mem.Crossbar, port, proc int) *ScratchPort {
	p := &ScratchPort{sp: sp, xbar: xbar, port: port, proc: proc}
	p.onDone = p.complete
	return p
}

// complete is the shared crossbar completion callback for the port's single
// outstanding access.
func (p *ScratchPort) complete(uint64) {
	op := p.cur
	p.cur = spOp{}
	if op.write {
		p.sp.CountWrite(op.addr)
	} else {
		p.sp.CountRead(op.addr)
	}
	p.Accesses.Inc()
	if p.TraceMem != nil {
		p.TraceMem(trace.MemRef{Proc: p.proc, Addr: op.addr, Write: op.write})
	}
	p.busy = false
	if op.onDone != nil {
		op.onDone()
	}
}

// Read enqueues a scratchpad read; onDone (may be nil) runs at completion.
func (p *ScratchPort) Read(addr uint32, onDone func()) { p.access(addr, false, onDone) }

// Write enqueues a scratchpad write.
func (p *ScratchPort) Write(addr uint32, onDone func()) { p.access(addr, true, onDone) }

func (p *ScratchPort) access(addr uint32, write bool, onDone func()) {
	p.queue.Push(spOp{addr: addr, write: write, onDone: onDone})
}

// Pending returns the number of queued (unissued) accesses.
func (p *ScratchPort) Pending() int { return p.queue.Len() }

// Tick issues at most one access per CPU cycle.
//
//nic:hotpath
func (p *ScratchPort) Tick(cycle uint64) {
	if p.busy || p.queue.Len() == 0 {
		return
	}
	op := p.queue.Pop()
	p.busy = true
	p.cur = op
	p.xbar.Submit(p.port, p.sp.Bank(op.addr), op.write, p.onDone)
}

// jobKind names the four DMA job shapes.
type jobKind uint8

const (
	fetchBDs   jobKind = iota // host descriptors into scratchpad words
	fetchFrame                // host header and payload into an SDRAM buffer
	writeFrame                // an SDRAM buffer out to the host
	writeDesc                 // scratchpad descriptor words out to the host
)

// phase is one step of a job, occupying exactly one resource.
type phase uint8

const (
	phHost     phase = iota // one host round trip
	phWords                 // n scratchpad word accesses, pumped through the port
	phBurst                 // SDRAM burst of n bytes at addr (the whole frame, or its header)
	phPayload               // SDRAM burst of pay bytes right after the header
	phProgress              // progress-pointer write; its completion retires the job
)

// plans lists each job kind's phases in order.
var plans = [...][]phase{
	fetchBDs:   {phHost, phWords, phProgress},
	fetchFrame: {phHost, phBurst, phPayload, phProgress},
	writeFrame: {phBurst, phHost, phProgress},
	writeDesc:  {phWords, phHost, phProgress},
}

// job is one unit of DMA work: a value record walked through its kind's
// phase plan. It carries only addresses, lengths and the firmware's
// completion, so queuing one allocates nothing once the FIFOs are warm.
type job struct {
	kind jobKind
	step uint8  // phases of plans[kind] already issued
	addr uint32 // scratchpad base (descriptor jobs) or SDRAM buffer (frame jobs)
	n    int    // words (descriptor jobs), header bytes (fetchFrame), frame bytes (writeFrame)
	pay  int    // payload bytes (fetchFrame)
	// onDone fires when the job completes.
	onDone func()
}

// engine is the in-order DMA job pipeline with bounded overlap that both DMA
// assists share.
//
// An in-flight job waits on exactly one resource at a time, parked on that
// resource's FIFO. Every resource completes in issue order — the host delay
// is constant, and the SDRAM port and the scratchpad port are FIFOs owned by
// this engine — so each completion belongs to the oldest job parked on its
// FIFO. One completion per resource, bound once in bind, therefore serves
// every job. Jobs of one kind share a phase plan and so retire in issue
// order; a short job of another kind may overtake a long one.
type engine struct {
	depth     int
	sdram     *mem.SDRAM
	sdramPort int
	host      Host

	// Port is the engine's scratchpad port: descriptor words and progress
	// writes.
	Port *ScratchPort
	// progressAddr is the scratchpad word firmware polls for completions.
	progressAddr uint32

	queue    fifo.Queue[job] // waiting for a pipeline slot
	inFlight int

	atHost, atSDRAM, atPort       fifo.Queue[job]
	hostDone, sdramDone, portDone func()

	// faultCompletion, when non-nil, is consulted once per completed job
	// that carries a firmware notification: drop suppresses the onDone
	// callback (a lost completion), dup delivers it twice. The pipeline slot
	// is always released — the fault is in the notification, not the engine.
	faultCompletion func() (drop, dup bool)
	// obs, when non-nil, records the in-flight job count as a counter track
	// whenever it changes. Purely observational.
	obs      *obs.Recorder
	obsTrack int32
}

func newEngine(name string, depth int, port *ScratchPort, sdram *mem.SDRAM, sdramPort int, host Host, progressAddr uint32) engine {
	if depth <= 0 {
		panic(fmt.Sprintf("assist: %s: non-positive pipeline depth", name))
	}
	return engine{
		depth: depth, sdram: sdram, sdramPort: sdramPort, host: host,
		Port: port, progressAddr: progressAddr,
	}
}

// bind pre-binds the per-resource completions as method values. It runs
// once the engine has its final address inside the DMA assist that embeds
// it.
func (e *engine) bind() {
	e.hostDone = e.hostComplete
	e.sdramDone = e.sdramComplete
	e.portDone = e.portComplete
}

func (e *engine) hostComplete()  { e.advance(e.atHost.Pop()) }
func (e *engine) sdramComplete() { e.advance(e.atSDRAM.Pop()) }
func (e *engine) portComplete()  { e.advance(e.atPort.Pop()) }

// enqueue adds a job.
func (e *engine) enqueue(j job) { e.queue.Push(j) }

// QueueLen returns queued plus in-flight jobs.
func (e *engine) QueueLen() int { return e.queue.Len() + e.inFlight }

// SetCompletionFault installs the completion-fault hook; nil clears it.
func (e *engine) SetCompletionFault(f func() (drop, dup bool)) { e.faultCompletion = f }

// SetObs routes the engine's in-flight job counter to a trace track.
func (e *engine) SetObs(r *obs.Recorder, track int32) { e.obs, e.obsTrack = r, track }

// Tick starts queued jobs and pumps the scratchpad port.
//
//nic:hotpath
func (e *engine) Tick(cycle uint64) {
	e.tick()
	e.Port.Tick(cycle)
}

// tick starts jobs while pipeline slots are free.
//
//nic:hotpath
func (e *engine) tick() {
	for e.inFlight < e.depth && e.queue.Len() > 0 {
		j := e.queue.Pop()
		e.inFlight++
		e.obs.Counter(e.obsTrack, "in-flight", e.inFlight)
		e.advance(j)
	}
}

// advance issues job j's next phase and parks the job on the FIFO of the
// resource that phase occupies; a job past its last phase retires.
//
//nic:hotpath
func (e *engine) advance(j job) {
	plan := plans[j.kind]
	if int(j.step) == len(plan) {
		e.retire(j)
		return
	}
	ph := plan[j.step]
	j.step++
	switch ph {
	case phHost:
		e.atHost.Push(j)
		e.host.Delay(e.hostDone)
	case phWords:
		if j.n == 0 {
			e.advance(j)
			return
		}
		// Only the last word carries the completion: the port is FIFO, so
		// it completes after every earlier word of the job.
		e.atPort.Push(j)
		for i := 0; i < j.n; i++ {
			var done func()
			if i == j.n-1 {
				done = e.portDone
			}
			e.Port.access(j.addr+uint32(i)*4, j.kind == fetchBDs, done)
		}
	case phBurst:
		e.atSDRAM.Push(j)
		e.sdram.Enqueue(e.sdramPort, mem.Transfer{Addr: j.addr, Len: j.n, Write: j.kind == fetchFrame, OnDone: e.sdramDone})
	case phPayload:
		e.atSDRAM.Push(j)
		e.sdram.Enqueue(e.sdramPort, mem.Transfer{Addr: j.addr + uint32(j.n), Len: j.pay, Write: true, OnDone: e.sdramDone})
	case phProgress:
		e.atPort.Push(j)
		e.Port.Write(e.progressAddr, e.portDone)
	}
}

// retire releases a finished job's pipeline slot and notifies the firmware.
//
//nic:hotpath
func (e *engine) retire(j job) {
	e.inFlight--
	e.obs.Counter(e.obsTrack, "in-flight", e.inFlight)
	if j.onDone == nil {
		return
	}
	if e.faultCompletion != nil {
		drop, dup := e.faultCompletion()
		if drop {
			return
		}
		j.onDone()
		if dup {
			j.onDone()
		}
		return
	}
	j.onDone()
}
