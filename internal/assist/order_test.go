package assist

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// faultPattern is the verdict sequence the completion-fault hook cycles
// through, one verdict per retiring job that carries a notification.
var faultPattern = []string{"pass", "dup", "pass", "drop", "dup", "pass", "pass", "drop", "dup"}

// TestDMACompletionsFollowIssueOrderUnderFaults checks the engine's
// completion bookkeeping: every phase completion pops the oldest job parked
// on its resource's FIFO. Each engine runs at depth 2 with its two job kinds
// interleaved in same-kind pairs, so both pipeline slots hold jobs parked on
// the same FIFOs, and no job can overtake another: each must retire in
// issue order. The completion-fault hook drops and duplicates
// notifications; the firmware must see each job's onDone in issue order,
// once for a passed notification, twice for a duplicated one and never for
// a dropped one. An engine that popped the newest job fails this.
func TestDMACompletionsFollowIssueOrderUnderFaults(t *testing.T) {
	const jobs = 24
	r := newRigDepth(2)
	type engineCase struct {
		name  string
		issue func(i int, onDone func())
		fault func(func() (drop, dup bool))
	}
	cases := []engineCase{
		{
			name: "dma-read",
			issue: func(i int, onDone func()) {
				if i/2%2 == 0 {
					r.dmaRd.FetchBDs(8, 0x1000+uint32(i)*64, onDone)
				} else {
					r.dmaRd.FetchFrame(uint32(i)*1530, 42, 1430, onDone)
				}
			},
			fault: r.dmaRd.SetCompletionFault,
		},
		{
			name: "dma-write",
			issue: func(i int, onDone func()) {
				if i/2%2 == 0 {
					r.dmaWr.WriteFrame(0x80_0000+uint32(i)*1530, 1472, onDone)
				} else {
					r.dmaWr.WriteDescriptor(0x2000+uint32(i)*16, 4, onDone)
				}
			},
			fault: r.dmaWr.SetCompletionFault,
		},
	}
	logs := make([][]int, len(cases))
	verdicts := make([]int, len(cases))
	for c, ec := range cases {
		ec.fault(func() (drop, dup bool) {
			v := faultPattern[verdicts[c]%len(faultPattern)]
			verdicts[c]++
			return v == "drop", v == "dup"
		})
		for i := 0; i < jobs; i++ {
			ec.issue(i, func() { logs[c] = append(logs[c], i) })
		}
	}
	idle := func() bool { return r.dmaRd.QueueLen() == 0 && r.dmaWr.QueueLen() == 0 }
	if !r.eng.RunUntil(500*sim.Microsecond, idle) {
		t.Fatal("DMA jobs never drained")
	}
	for c, ec := range cases {
		if verdicts[c] != jobs {
			t.Errorf("%s: fault hook consulted %d times for %d jobs", ec.name, verdicts[c], jobs)
		}
		var want []int
		for i := 0; i < jobs; i++ {
			switch faultPattern[i%len(faultPattern)] {
			case "pass":
				want = append(want, i)
			case "dup":
				want = append(want, i, i)
			}
		}
		if !slices.Equal(logs[c], want) {
			t.Errorf("%s: onDone calls %v, want %v", ec.name, logs[c], want)
		}
	}
}
