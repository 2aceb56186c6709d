package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// record logs every tick of d as "name:cycle@now".
func record(e *Engine, log *[]string, d *Domain) {
	name := d.Name()
	d.Add(TickFunc(func(cycle uint64) {
		*log = append(*log, fmt.Sprintf("%s:%d@%d", name, cycle, e.now))
	}))
}

// nicDomains builds the controller's four clock domains plus an event domain,
// with tickers recording into log. The host period (7519 ps) is incommensurate
// with the cpu/sdram/mac periods (5000/2000/6400 ps), as in the production
// assembly.
func nicDomains(log *[]string) (*Engine, *Domain) {
	cpu := NewDomain("cpu", 200e6)
	sdram := NewDomain("sdram", 500e6)
	mac := NewDomain("mac", 156.25e6)
	host := NewDomain("host", 133e6)
	ev := NewEventDomain("ev")
	e := NewEngine(cpu, sdram, mac, host, ev)
	for _, d := range []*Domain{cpu, sdram, mac, host} {
		record(e, log, d)
	}
	return e, ev
}

// TestTickSequenceMatchesRecorded pins the exact tick sequence of the
// controller's domain mix, with events landing between clock edges, to
// recorded values. Any change to edge selection, tie order or event
// interleaving moves the digest.
func TestTickSequenceMatchesRecorded(t *testing.T) {
	var log []string
	e, ev := nicDomains(&log)
	ev.Schedule(12345, func() {})
	ev.Schedule(100000, func() {})
	e.RunFor(3 * Microsecond)
	const (
		wantLen   = 2966
		wantSum   = "6f6a015a1d663d93e5b5ac3e09f494c9cc6309702f92b4cecf793c76dfdce350"
		wantNow   = 3 * Microsecond
		wantSteps = 2574
	)
	if len(log) != wantLen {
		t.Fatalf("recorded %d ticks, want %d", len(log), wantLen)
	}
	sum := sha256.Sum256([]byte(strings.Join(log, "\n")))
	if got := hex.EncodeToString(sum[:]); got != wantSum {
		t.Errorf("tick log sha256 = %s, want %s", got, wantSum)
	}
	if e.Now() != wantNow || e.Steps() != wantSteps {
		t.Errorf("now/steps = (%d,%d), want (%d,%d)", e.Now(), e.Steps(), wantNow, wantSteps)
	}
}

// TestStaticScheduleSharedInstantTicksExtrasAfterMembers checks tie order at a
// rare shared edge. Periods of 5, 10 and 49999 ps first coincide at
// t = 10*49999 = 499990, long after a and b have settled into their own
// shared pattern; registration order still demands a, b, then c there.
func TestStaticScheduleSharedInstantTicksExtrasAfterMembers(t *testing.T) {
	a := NewDomain("a", 2e11)         // 5 ps
	b := NewDomain("b", 1e11)         // 10 ps
	c := NewDomain("c", 1e12/49999.0) // 49999 ps
	if c.Period() != 49999 {
		t.Fatalf("c period = %d, want 49999", c.Period())
	}
	var log []string
	e := NewEngine(a, b, c)
	for _, d := range []*Domain{a, b, c} {
		record(e, &log, d)
	}
	e.RunFor(600000)
	var shared []string
	for _, s := range log {
		if strings.HasSuffix(s, "@499990") {
			shared = append(shared, s[:1])
		}
	}
	if len(shared) != 3 || shared[0] != "a" || shared[1] != "b" || shared[2] != "c" {
		t.Errorf("tick order at t=499990 = %v, want [a b c]", shared)
	}
}

func TestEventHeapSameInstantFiresInScheduleOrder(t *testing.T) {
	ev := NewEventDomain("ev")
	clk := NewDomain("clk", 1e9)
	clk.Add(TickFunc(func(uint64) {}))
	e := NewEngine(clk, ev)
	var got []int
	// Schedule out of time order, with ties: the heap must fire time-ordered,
	// and same-instant events in schedule (seq) order.
	ev.Schedule(5000, func() { got = append(got, 2) })
	ev.Schedule(3000, func() { got = append(got, 0) })
	ev.Schedule(5000, func() { got = append(got, 3) })
	ev.Schedule(3000, func() { got = append(got, 1) })
	ev.Schedule(5000, func() { got = append(got, 4) })
	e.RunFor(10 * Nanosecond)
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("fire order %v, want [0 1 2 3 4]", got)
		}
	}
}

func TestEventHeapInterleavedScheduleAndFire(t *testing.T) {
	// Stress the heap with a pattern that forces sift-up and sift-down:
	// each fired event schedules two more until a budget runs out, with
	// deliberately colliding instants.
	ev := NewEventDomain("ev")
	clk := NewDomain("clk", 1e9)
	clk.Add(TickFunc(func(uint64) {}))
	e := NewEngine(clk, ev)
	var fired []Picoseconds
	budget := 50
	var spawn func(at Picoseconds)
	spawn = func(at Picoseconds) {
		ev.Schedule(at, func() {
			fired = append(fired, e.Now())
			if budget > 0 {
				budget--
				spawn(at + 1500)
				spawn(at + 1500) // same instant: seq order
			}
		})
	}
	spawn(1000)
	spawn(2500)
	e.RunFor(Microsecond)
	if len(fired) < 50 {
		t.Fatalf("fired %d events, want >= 50", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("event fired out of time order at %d: %d after %d", i, fired[i], fired[i-1])
		}
	}
}

func TestRunForDeadlineOverflowClamps(t *testing.T) {
	d := NewDomain("clk", 1e9) // 1000 ps
	ticks := 0
	d.Add(TickFunc(func(uint64) {
		ticks++
		if ticks >= 10 {
			// Without the clamp, now+dur wraps past zero and the loop exits
			// immediately with no ticks at all; with it the run proceeds until
			// Stop.
			d.eng.Stop()
		}
	}))
	e := NewEngine(d)
	e.RunFor(5 * Nanosecond) // advance now so the overflow is strict
	before := ticks
	e.RunFor(^Picoseconds(0)) // e.now + dur overflows
	if ticks <= before {
		t.Fatalf("RunFor with overflowing duration ran no steps (ticks %d -> %d)", before, ticks)
	}
}

func TestRunUntilDeadlineOverflowClamps(t *testing.T) {
	d := NewDomain("clk", 1e9)
	ticks := 0
	d.Add(TickFunc(func(uint64) { ticks++ }))
	e := NewEngine(d)
	e.RunFor(5 * Nanosecond)
	before := ticks
	ok := e.RunUntil(^Picoseconds(0), func() bool { return ticks >= before+10 })
	if !ok || ticks != before+10 {
		t.Fatalf("RunUntil with overflowing limit: ok=%v ticks %d -> %d, want %d",
			ok, before, ticks, before+10)
	}
}

// BenchmarkStep measures one engine step over the controller's four clock
// domains with empty tickers: the scheduling overhead alone.
func BenchmarkStep(b *testing.B) {
	cpu := NewDomain("cpu", 200e6)
	sdram := NewDomain("sdram", 500e6)
	mac := NewDomain("mac", 156.25e6)
	host := NewDomain("host", 133e6)
	for _, d := range []*Domain{cpu, sdram, mac, host} {
		d.Add(TickFunc(func(uint64) {}))
	}
	e := NewEngine(cpu, sdram, mac, host)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
