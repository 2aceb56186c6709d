package firmware

import (
	"testing"

	"repro/internal/cpu"
)

func TestCostEmitsExactBudget(t *testing.T) {
	for _, c := range []TaskCost{{150, 34, 21}, {52, 14, 10}, {12, 6, 0}, {555, 126, 78}} {
		b := (&streamSource{}).builder(1, 0.15)
		b.cost(c, func(i int) uint32 { return uint32(i) * 4 })
		if len(b.ops) != c.Instr {
			t.Errorf("cost(%+v) emitted %d ops, want %d", c, len(b.ops), c.Instr)
		}
		loads, stores := 0, 0
		for _, op := range b.ops {
			switch op.Kind {
			case cpu.OpLoad:
				loads++
			case cpu.OpStore:
				stores++
			}
		}
		if loads != c.Loads || stores != c.Stores {
			t.Errorf("cost(%+v) emitted %d loads %d stores", c, loads, stores)
		}
	}
}
