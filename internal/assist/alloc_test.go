package assist

import (
	"testing"

	"repro/internal/sim"
)

// dmaRoundTripAllocs is the pinned heap-object count of one completion
// descriptor written to the host plus one descriptor batch fetched from it,
// run to completion on the test rig with warm queues. Jobs are value records
// and every phase completion is bound once per engine, so there are none; a
// rise fails the test.
const dmaRoundTripAllocs = 0

func TestDMARoundTripAllocsPinned(t *testing.T) {
	r := newRig()
	done := 0
	onDone := func() { done++ }
	finished := func() bool { return done == 2 }
	roundTrip := func() {
		done = 0
		r.dmaWr.WriteDescriptor(0x2000, 4, onDone)
		r.dmaRd.FetchBDs(4, 0x1000, onDone)
		if !r.eng.RunUntil(50*sim.Microsecond, finished) {
			t.Fatal("DMA round trip never completed")
		}
	}
	// The first pass grows the port, engine and host queues to their
	// steady-state capacity.
	roundTrip()
	if got := testing.AllocsPerRun(100, roundTrip); got != dmaRoundTripAllocs {
		t.Errorf("a DMA write-descriptor + fetch-BDs round trip allocates %v objects, pinned at %d", got, dmaRoundTripAllocs)
	}
}
