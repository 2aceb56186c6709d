package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/stats"
)

// Crossbar models the 32-bit dancehall interconnect between the processors
// and hardware assists on one side and the scratchpad banks plus the external
// memory bus interface on the other.
//
// One transaction may be delivered to each resource (bank or external-memory
// interface) per cycle, with independent round-robin arbitration per
// resource. An access takes a minimum of two cycles: one to request and
// traverse the crossbar, one to access the memory and return data. Requests
// that lose arbitration wait, accumulating the bank-conflict stalls reported
// in the paper's Table 3.
//
// Arbitration state is kept as per-resource bitmasks of waiting ports, so a
// tick costs a handful of word operations per resource instead of a scan of
// every port for every resource; the crossbar ticks every CPU cycle, which
// made the scan the simulator's single hottest loop.
//
// Crossbar is a sim.Ticker; it must be registered in the CPU clock domain
// *after* every requester so that a request submitted during cycle N can be
// granted in cycle N and complete in cycle N+1.
type Crossbar struct {
	resources int
	ports     []xbarPort
	rr        []int32  // per-resource round-robin pointer (last granted port, -1 initially)
	waiting   []uint64 // per-resource bitmask of ports with an ungranted request
	inFlight  []int32  // per-resource granted port + 1; 0 = none
	busy      int      // ports with an outstanding request (waiting or in flight)
	waitRes   uint64   // bitmask of resources with waiting != 0
	liveRes   uint64   // bitmask of resources with inFlight != 0
	// Grants counts transactions delivered per resource.
	Grants []stats.Counter
	// WaitCycles accumulates arbitration wait per port (conflict stalls).
	WaitCycles []stats.Counter

	// BankStall, when non-nil, reports that a resource must grant nothing
	// this cycle (transient bank-error injection). Pending requests simply
	// keep waiting, accumulating conflict stalls exactly like arbitration
	// losses; grants already in flight still complete.
	BankStall func(resource int) bool
}

type xbarPort struct {
	active   bool
	resource int
	write    bool
	waited   uint64
	onDone   func(waited uint64)
}

// ExtMemResource returns the resource index of the external memory bus
// interface for a crossbar with the given number of scratchpad banks.
func ExtMemResource(banks int) int { return banks }

// NewCrossbar creates a crossbar with the given number of requester ports and
// scratchpad banks. Resource indices 0..banks-1 are the banks; index banks is
// the external memory bus interface. At most 64 ports and 63 banks are
// supported (the waiting and active sets are single machine words; the
// controller needs cores+4 ports and a handful of banks).
func NewCrossbar(ports, banks int) *Crossbar {
	if ports <= 0 || banks <= 0 {
		panic(fmt.Sprintf("mem: bad crossbar geometry: %d ports, %d banks", ports, banks))
	}
	if ports > 64 || banks > 63 {
		panic(fmt.Sprintf("mem: crossbar supports at most 64 ports and 63 banks, got %d/%d", ports, banks))
	}
	n := banks + 1
	x := &Crossbar{
		resources:  n,
		ports:      make([]xbarPort, ports),
		rr:         make([]int32, n),
		waiting:    make([]uint64, n),
		inFlight:   make([]int32, n),
		Grants:     make([]stats.Counter, n),
		WaitCycles: make([]stats.Counter, ports),
	}
	for i := range x.rr {
		x.rr[i] = -1
	}
	return x
}

// Ports returns the number of requester ports.
func (x *Crossbar) Ports() int { return len(x.ports) }

// Busy reports whether the port has a request outstanding (waiting or in the
// access cycle).
func (x *Crossbar) Busy(port int) bool { return x.ports[port].active }

// Submit enqueues a request on the given port for the given resource. Each
// port may have one request outstanding; submitting to a busy port panics,
// since the processor pipeline and assist engines are responsible for not
// over-issuing. onDone is invoked, with the number of cycles the request
// waited in arbitration, during the tick in which data returns; it may be
// nil.
func (x *Crossbar) Submit(port, resource int, write bool, onDone func(waited uint64)) {
	p := &x.ports[port]
	if p.active {
		panic(fmt.Sprintf("mem: crossbar port %d already busy", port))
	}
	if resource < 0 || resource >= x.resources {
		panic(fmt.Sprintf("mem: crossbar resource %d out of range", resource))
	}
	p.active = true
	p.resource = resource
	p.write = write
	p.waited = 0
	p.onDone = onDone
	x.waiting[resource] |= 1 << uint(port)
	x.waitRes |= 1 << uint(resource)
	x.busy++
}

// Tick completes accesses granted last cycle, then arbitrates new grants,
// one per resource, round-robin across ports.
func (x *Crossbar) Tick(cycle uint64) {
	if x.BankStall != nil {
		// Fault path: the hook must be consulted for every resource every
		// cycle, so keep the full scan.
		x.tickStall()
		return
	}
	if x.busy == 0 {
		return
	}
	// Complete accesses that traversed the crossbar last cycle, in resource
	// order (ascending bit iteration). Completion callbacks may submit a
	// fresh request on the same port, which then competes in this cycle's
	// arbitration.
	lm := x.liveRes
	x.liveRes = 0
	for lm != 0 {
		r := bits.TrailingZeros64(lm)
		lm &^= 1 << uint(r)
		g := x.inFlight[r]
		x.inFlight[r] = 0
		x.busy--
		p := &x.ports[g-1]
		done := p.onDone
		waited := p.waited
		*p = xbarPort{}
		if done != nil {
			done(waited)
		}
	}
	// Arbitrate: each resource with waiters grants one request; ports left
	// waiting afterwards lost this cycle and accumulate conflict stalls. All
	// per-resource effects are counter updates, so folding the wait
	// accounting into the arbitration pass changes no observable state.
	wm := x.waitRes
	for wm != 0 {
		r := bits.TrailingZeros64(wm)
		wm &^= 1 << uint(r)
		w := x.waiting[r]
		// The round-robin winner is the lowest waiting port strictly after
		// the last grant, wrapping to the lowest overall.
		m := w &^ (1<<uint(x.rr[r]+1) - 1)
		if m == 0 {
			m = w
		}
		pi := bits.TrailingZeros64(m)
		x.rr[r] = int32(pi)
		w &^= 1 << uint(pi)
		x.waiting[r] = w
		x.inFlight[r] = int32(pi) + 1
		x.liveRes |= 1 << uint(r)
		x.Grants[r].Inc()
		if w == 0 {
			x.waitRes &^= 1 << uint(r)
			continue
		}
		for w != 0 {
			pj := bits.TrailingZeros64(w)
			w &^= 1 << uint(pj)
			x.ports[pj].waited++
			x.WaitCycles[pj].Inc()
		}
	}
}

// tickStall is the Tick body used while a BankStall hook is attached: same
// semantics, but every resource is visited so the hook sees every cycle.
func (x *Crossbar) tickStall() {
	for r := 0; r < x.resources; r++ {
		g := x.inFlight[r]
		if g == 0 {
			continue
		}
		x.inFlight[r] = 0
		x.liveRes &^= 1 << uint(r)
		x.busy--
		p := &x.ports[g-1]
		done := p.onDone
		waited := p.waited
		*p = xbarPort{}
		if done != nil {
			done(waited)
		}
	}
	for r := 0; r < x.resources; r++ {
		w := x.waiting[r]
		if !x.BankStall(r) && w != 0 {
			m := w &^ (1<<uint(x.rr[r]+1) - 1)
			if m == 0 {
				m = w
			}
			pi := bits.TrailingZeros64(m)
			x.rr[r] = int32(pi)
			w &^= 1 << uint(pi)
			x.waiting[r] = w
			x.inFlight[r] = int32(pi) + 1
			x.liveRes |= 1 << uint(r)
			x.Grants[r].Inc()
			if w == 0 {
				x.waitRes &^= 1 << uint(r)
			}
		}
		for w != 0 {
			pj := bits.TrailingZeros64(w)
			w &^= 1 << uint(pj)
			x.ports[pj].waited++
			x.WaitCycles[pj].Inc()
		}
	}
}
