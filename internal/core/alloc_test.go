package core

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// runAllocsPerFrame is the pinned ceiling on heap allocations per frame of
// one short default-point run, counted from New through Run and divided by
// frames transmitted plus frames the MAC accepted. What remains is building
// the NIC in New, the workload's fresh frame per frame, and the lazy growth
// of the firmware's record free lists and the datapath FIFOs to their peak
// occupancy. The run measures 3.06 per frame, about 3.10 under the race
// detector. Lower the pin when a change removes an allocation; a rise fails
// the test.
//
// The counted run is the second of two identical runs: the first pays for
// the once-per-process measurement of the ordering kernels, so the count
// does not depend on which tests ran earlier in the process. That one-time
// cost in a cold process is what perfbench's allocs_per_frame adds to this.
const runAllocsPerFrame = 3.15

func TestRunAllocsPerFramePinned(t *testing.T) {
	run := func() (mallocs, frames uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		n := New(DefaultConfig())
		n.AttachWorkload(1472, false)
		n.Run(200*sim.Microsecond, 500*sim.Microsecond)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, n.TxSink.Frames.Value() + n.As.MACRx.RxFrames.Value()
	}
	run()
	mallocs, frames := run()
	if frames == 0 {
		t.Fatal("no frames moved")
	}
	got := float64(mallocs) / float64(frames)
	t.Logf("%d mallocs over %d frames: %.3f per frame", mallocs, frames, got)
	if got > runAllocsPerFrame {
		t.Errorf("a default-point run allocates %.3f objects per frame, pinned at most %v", got, runAllocsPerFrame)
	}
}
