package firmware

import (
	"testing"

	"repro/internal/cpu"
)

// builderAllocs is the pinned heap-object count of building one dispatch
// stream and one software-only poll stream into a recycled stream. No op
// buffer, stream, builder, hazard generator or flag-scan list is
// allocated, so there are none; a rise fails the test.
const builderAllocs = 0

func TestBuilderAllocsPinned(t *testing.T) {
	fw := &Firmware{
		Prof: DefaultProfile(SoftwareOnly),
		rxq:  []*rxQueue{{flagBits: FlagBits, flagBase: FlagsRecv}},
	}
	var buf *cpu.Op
	build := func() {
		fw.seedCtr = 0
		d := fw.dispatchStream(AcctSendOrder)
		fw.Recycle(d)
		p := fw.pollStream(0)
		fw.Recycle(p)
		if buf == nil {
			buf = &d.Ops[0]
		}
		if &d.Ops[0] != buf || &p.Ops[0] != buf {
			t.Fatal("a stream got a fresh op buffer instead of the recycled one")
		}
	}
	build()
	if n := len(fw.src.free); n != 1 {
		t.Fatalf("free list holds %d streams, want 1", n)
	}
	if got := testing.AllocsPerRun(100, build); got != builderAllocs {
		t.Errorf("building a dispatch and a poll stream allocates %v objects, pinned at %d", got, builderAllocs)
	}
}
