// Package sim provides a deterministic multi-clock-domain cycle simulation
// engine, the substrate on which the NIC controller model is built.
//
// The engine plays the role of the Liberty Simulation Environment scheduler in
// the paper's Spinach models: modules are registered against a clock Domain
// and are ticked once per cycle of that domain. Simulated time is kept in
// picoseconds so that the four clock domains of the controller (CPU/scratchpad,
// SDRAM, MAC, and host interconnect) interleave deterministically.
//
// # Scheduling
//
// Each Step is one allocation-free min-scan over the domains' next edges:
// time jumps to the earliest edge, and every domain due at that instant runs
// in registration order. Event-driven domains keep their pending callbacks in
// a binary min-heap ordered by (time, schedule order), and their next edge is
// the heap minimum.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Picoseconds is the unit of simulated time.
//
//nic:unit ps
type Picoseconds uint64

const (
	// Nanosecond is 1 ns expressed in simulated time units.
	Nanosecond Picoseconds = 1000
	// Microsecond is 1 µs expressed in simulated time units.
	Microsecond Picoseconds = 1000 * 1000
	// Millisecond is 1 ms expressed in simulated time units.
	Millisecond Picoseconds = 1000 * 1000 * 1000
	// Second is 1 s expressed in simulated time units.
	Second Picoseconds = 1000 * 1000 * 1000 * 1000
)

// Seconds converts simulated time to floating-point seconds.
func (p Picoseconds) Seconds() float64 { return float64(p) / float64(Second) }

// A Ticker is a module that does one clock domain cycle of work.
//
// Tick is called exactly once per cycle of the domain the ticker is
// registered with; cycle counts from zero and increments by one.
type Ticker interface {
	Tick(cycle uint64)
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(cycle uint64)

// Tick calls f(cycle).
func (f TickFunc) Tick(cycle uint64) { f(cycle) }

// NoEdge is the next-edge sentinel of an event-driven domain with nothing
// scheduled: it never wins the engine's min-edge selection, so an empty
// event domain costs one comparison per step and nothing else.
const NoEdge = Picoseconds(1<<64 - 1)

// A Domain is a clock domain with a fixed frequency, or an event-driven
// domain whose "edges" are explicitly scheduled instants (NewEventDomain).
//
// The period is rounded to an integer number of picoseconds; at 166 MHz the
// resulting frequency error is below 0.003%, far under the modeling noise of
// the study.
type Domain struct {
	name    string
	period  Picoseconds
	hz      float64
	next    Picoseconds
	cycle   uint64
	tickers []Ticker

	eventDriven bool
	events      []schedEvent // binary min-heap ordered by (at, seq)
	seq         uint64
	eng         *Engine
}

type schedEvent struct {
	at  Picoseconds
	seq uint64
	f   func()
}

// NewDomain creates a clock domain running at the given frequency in hertz.
// It panics if hz is not positive, since a zero-frequency domain can never
// make progress.
func NewDomain(name string, hz float64) *Domain {
	if hz <= 0 {
		panic(fmt.Sprintf("sim: domain %q: non-positive frequency %v", name, hz))
	}
	period := Picoseconds(float64(Second)/hz + 0.5)
	if period == 0 {
		period = 1
	}
	return &Domain{name: name, period: period, hz: hz}
}

// NewEventDomain creates an event-driven domain: instead of a fixed clock it
// fires callbacks at explicitly scheduled simulated-time points (Schedule).
// The fault scheduler runs in such a domain so that injected events land at
// exact picosecond instants without perturbing any clocked domain's edges.
func NewEventDomain(name string) *Domain {
	return &Domain{name: name, next: NoEdge, eventDriven: true}
}

// Schedule registers f to run at the given absolute simulated time. Times in
// the past (relative to the owning engine's clock) are clamped to "now", so f
// runs on the engine's next step. Events at the same instant run in schedule
// order. Panics on a clocked domain.
func (d *Domain) Schedule(at Picoseconds, f func()) {
	if !d.eventDriven {
		panic(fmt.Sprintf("sim: domain %q is not event-driven", d.name))
	}
	if d.eng != nil && at < d.eng.now {
		at = d.eng.now
	}
	d.seq++
	d.pushEvent(schedEvent{at: at, seq: d.seq, f: f})
	d.next = d.events[0].at
}

// eventLess orders the heap by time, then schedule order.
func eventLess(a, b *schedEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// pushEvent inserts into the min-heap.
//
//nic:hotpath
func (d *Domain) pushEvent(ev schedEvent) {
	d.events = append(d.events, ev) //nic:alloc heap growth amortizes; steady state reuses capacity
	i := len(d.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&d.events[i], &d.events[parent]) {
			break
		}
		d.events[i], d.events[parent] = d.events[parent], d.events[i]
		i = parent
	}
}

// popEvent removes and returns the heap minimum.
//
//nic:hotpath
func (d *Domain) popEvent() schedEvent {
	top := d.events[0]
	n := len(d.events) - 1
	d.events[0] = d.events[n]
	d.events[n] = schedEvent{} // release the callback
	d.events = d.events[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && eventLess(&d.events[l], &d.events[min]) {
			min = l
		}
		if r < n && eventLess(&d.events[r], &d.events[min]) {
			min = r
		}
		if min == i {
			break
		}
		d.events[i], d.events[min] = d.events[min], d.events[i]
		i = min
	}
	return top
}

// runEvents fires every scheduled event due at or before now, in (time,
// schedule-order) order. Callbacks may schedule further events, including at
// the current instant.
//
//nic:hotpath
func (d *Domain) runEvents(now Picoseconds) {
	for len(d.events) > 0 && d.events[0].at <= now {
		ev := d.popEvent()
		ev.f()
	}
	if len(d.events) > 0 {
		d.next = d.events[0].at
	} else {
		d.next = NoEdge
	}
}

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// Hz returns the nominal frequency the domain was created with.
func (d *Domain) Hz() float64 { return d.hz }

// Period returns the integer-picosecond clock period.
func (d *Domain) Period() Picoseconds { return d.period }

// Cycles returns the number of cycles the domain has executed.
func (d *Domain) Cycles() uint64 { return d.cycle }

// Add registers a ticker with the domain. Tickers run in registration order
// within a cycle, which keeps simulations deterministic.
func (d *Domain) Add(t Ticker) {
	d.tickers = append(d.tickers, t)
}

// tick runs one cycle of a clocked domain.
//
//nic:hotpath
func (d *Domain) tick() {
	c := d.cycle
	for _, t := range d.tickers {
		t.Tick(c)
	}
	d.cycle = c + 1
	d.next += d.period
}

// DomainCost is one domain's share of simulation wall time, collected when
// tick profiling is enabled.
type DomainCost struct {
	Name   string        `json:"name"`
	Ticks  uint64        `json:"ticks"`
	Wall   time.Duration `json:"wall_ns"`
	Events bool          `json:"events,omitempty"`
}

type tickCost struct {
	wall  int64
	ticks uint64
}

// An Engine advances a set of clock domains through simulated time.
type Engine struct {
	domains []*Domain // registration order
	now     Picoseconds
	steps   uint64
	stop    atomic.Bool

	profiling bool
	costs     []tickCost
}

// NewEngine creates an engine over the given domains. Domains may be added
// later with AddDomain, but only before Run is first called.
func NewEngine(domains ...*Domain) *Engine {
	e := &Engine{}
	for _, d := range domains {
		e.AddDomain(d)
	}
	return e
}

// AddDomain registers a domain with the engine. Clocked domains get their
// first edge one period from now; event-driven domains keep whatever is
// scheduled (or NoEdge).
func (e *Engine) AddDomain(d *Domain) {
	d.eng = e
	if !d.eventDriven {
		d.next = e.now + d.period
	}
	e.domains = append(e.domains, d)
	e.costs = append(e.costs, tickCost{})
}

// ProfileTicks enables (or disables) per-domain tick cost collection,
// retrievable with TickCosts. Profiling adds two clock reads per domain tick
// and leaves the tick sequence unchanged.
func (e *Engine) ProfileTicks(on bool) { e.profiling = on }

// TickCosts returns per-domain tick counts and accumulated wall time. Wall
// time is only collected while ProfileTicks is enabled.
func (e *Engine) TickCosts() []DomainCost {
	out := make([]DomainCost, len(e.domains))
	for i, d := range e.domains {
		out[i] = DomainCost{
			Name:   d.name,
			Ticks:  e.costs[i].ticks,
			Wall:   time.Duration(e.costs[i].wall),
			Events: d.eventDriven,
		}
	}
	return out
}

// Steps returns the number of discrete time steps the engine has executed.
func (e *Engine) Steps() uint64 { return e.steps }

// Now returns the current simulated time.
func (e *Engine) Now() Picoseconds { return e.now }

// Stop requests that Run and RunFor return after the current time step
// completes. It is safe to call from inside a Tick and from other
// goroutines (a sweep worker's cancellation watchdog stops a simulation
// this way).
func (e *Engine) Stop() { e.stop.Store(true) }

// Stopped reports whether Stop has been called since the last RunFor or
// RunUntil began.
func (e *Engine) Stopped() bool { return e.stop.Load() }

// Step advances simulated time to the next edge of any domain and runs
// every domain whose edge falls on that instant, in registration order. It
// reports whether any work was done (false when no domain has a pending
// edge).
//
//nic:hotpath
func (e *Engine) Step() bool {
	ds := e.domains
	if len(ds) == 0 {
		return false
	}
	next := ds[0].next
	for _, d := range ds[1:] {
		if d.next < next {
			next = d.next
		}
	}
	if next == NoEdge {
		return false
	}
	e.now = next
	e.steps++
	// Ticks are opaque calls, so field reads inside the loop would reload
	// after every one; ds and prof keep the hot loop in registers.
	prof := e.profiling
	for i, d := range ds {
		if d.next != next {
			continue
		}
		var t0 time.Time
		if prof {
			t0 = time.Now() //nic:wallclock profiling measures real per-domain cost
		}
		if d.eventDriven {
			d.runEvents(next)
			d.cycle++
		} else {
			d.tick()
		}
		if prof {
			c := &e.costs[i]
			c.wall += int64(time.Since(t0)) //nic:wallclock
			c.ticks++
		}
	}
	return true
}

// deadlineAfter clamps e.now + dur against Picoseconds overflow: a huge
// duration saturates at the maximum representable instant instead of
// wrapping into the past (which would silently run nothing).
func (e *Engine) deadlineAfter(dur Picoseconds) Picoseconds {
	d := e.now + dur
	if d < e.now {
		return NoEdge
	}
	return d
}

// RunFor advances the simulation by the given amount of simulated time, or
// until Stop is called.
func (e *Engine) RunFor(dur Picoseconds) {
	deadline := e.deadlineAfter(dur)
	e.stop.Store(false)
	for !e.stop.Load() && e.now < deadline {
		if !e.Step() {
			return
		}
	}
}

// RunUntil advances the simulation until the predicate returns true (checked
// after every time step), Stop is called, or the time limit elapses. It
// reports whether the predicate was satisfied.
func (e *Engine) RunUntil(limit Picoseconds, done func() bool) bool {
	deadline := e.deadlineAfter(limit)
	e.stop.Store(false)
	for !e.stop.Load() && e.now < deadline {
		if !e.Step() {
			return done()
		}
		if done() {
			return true
		}
	}
	return done()
}
