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

	// queue is a head-indexed FIFO: popping advances qhead instead of
	// re-slicing, so the backing array is reused instead of reallocated.
	queue []spOp
	qhead int
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
func (p *ScratchPort) Read(addr uint32, onDone func()) {
	p.queue = append(p.queue, spOp{addr: addr, onDone: onDone})
}

// Write enqueues a scratchpad write.
func (p *ScratchPort) Write(addr uint32, onDone func()) {
	p.queue = append(p.queue, spOp{addr: addr, write: true, onDone: onDone})
}

// Pending returns the number of queued (unissued) accesses.
func (p *ScratchPort) Pending() int { return len(p.queue) - p.qhead }

// Tick issues at most one access per CPU cycle.
func (p *ScratchPort) Tick(cycle uint64) {
	if p.busy || p.qhead == len(p.queue) {
		return
	}
	op := p.queue[p.qhead]
	p.queue[p.qhead] = spOp{}
	p.qhead++
	if p.qhead == len(p.queue) {
		p.queue, p.qhead = p.queue[:0], 0
	}
	p.busy = true
	p.cur = op
	p.xbar.Submit(p.port, p.sp.Bank(op.addr), op.write, p.onDone)
}

// job is one unit of assist work, a sequence of phases executed by the
// engine pipeline.
type job struct {
	run func(done func())
	// onDone fires when the job completes.
	onDone func()
}

// engine is a common in-order job pipeline with bounded overlap.
type engine struct {
	name  string
	depth int
	// queue is a head-indexed FIFO (see ScratchPort.queue).
	queue    []job
	qhead    int
	inFlight int
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

func newEngine(name string, depth int) *engine {
	if depth <= 0 {
		panic(fmt.Sprintf("assist: %s: non-positive pipeline depth", name))
	}
	return &engine{name: name, depth: depth}
}

// enqueue adds a job.
func (e *engine) enqueue(j job) { e.queue = append(e.queue, j) }

// QueueLen returns queued plus in-flight jobs.
func (e *engine) QueueLen() int { return len(e.queue) - e.qhead + e.inFlight }

// tick starts jobs while pipeline slots are free.
func (e *engine) tick() {
	for e.inFlight < e.depth && e.qhead < len(e.queue) {
		j := e.queue[e.qhead]
		e.queue[e.qhead] = job{}
		e.qhead++
		if e.qhead == len(e.queue) {
			e.queue, e.qhead = e.queue[:0], 0
		}
		e.inFlight++
		e.obs.Counter(e.obsTrack, "in-flight", e.inFlight)
		j.run(func() {
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
		})
	}
}
