package firmware

import (
	"testing"

	"repro/internal/cpu"
)

func TestSlotRingAllocRelease(t *testing.T) {
	r := newSlotRing(0x1000, 1530, 4)
	if r.available() != 4 {
		t.Fatalf("available = %d", r.available())
	}
	seen := map[uint32]bool{}
	var slots []int
	for i := 0; i < 4; i++ {
		addr, slot, ok := r.alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if seen[addr] {
			t.Errorf("duplicate address %#x", addr)
		}
		seen[addr] = true
		if (addr-0x1000)%1530 != 0 {
			t.Errorf("address %#x not slot aligned", addr)
		}
		slots = append(slots, slot)
	}
	if _, _, ok := r.alloc(); ok {
		t.Error("alloc succeeded on empty ring")
	}
	r.release(slots[2])
	if r.available() != 1 {
		t.Errorf("available after release = %d", r.available())
	}
}

func TestSlotRingMisalignedStarts(t *testing.T) {
	// Slot size 1530 is deliberately not a multiple of 8: consecutive slots
	// start at varying 8-byte phases, producing the paper's SDRAM alignment
	// waste.
	r := newSlotRing(0, 1530, 8)
	phases := map[uint32]bool{}
	for i := 0; i < 8; i++ {
		addr, _, _ := r.alloc()
		phases[addr%8] = true
	}
	if len(phases) < 2 {
		t.Errorf("all slots share one 8-byte phase; want misalignment variety")
	}
}

func TestDefaultProfileIdealBudgets(t *testing.T) {
	p := DefaultProfile(SoftwareOnly)
	// Table 1 reconstruction: the send path's ideal per-frame budget is
	// 282 instructions and 100 data accesses (229 MIPS and 2.6 Gb/s at
	// 812,744 frames/s); receive is 253 and 85.
	sendInstr := float64(p.FetchSendBDBatch.Instr)/FramesPerSendBD +
		float64(p.SendFramePrep.Instr+p.SendFrameDone.Instr+p.SendFrameComplete.Instr)
	if sendInstr < 260 || sendInstr > 300 {
		t.Errorf("ideal send instructions per frame = %.1f, want ~282", sendInstr)
	}
	recvInstr := float64(p.FetchRecvBDBatch.Instr)/RecvBDsPerBatch +
		float64(p.RecvFramePrep.Instr+p.RecvFrameDone.Instr+p.RecvFrameComplete.Instr)
	if recvInstr < 235 || recvInstr > 275 {
		t.Errorf("ideal receive instructions per frame = %.1f, want ~253", recvInstr)
	}
}

func TestProfileOrderingStrings(t *testing.T) {
	if SoftwareOnly.String() != "Software-only" || RMWEnhanced.String() != "RMW-enhanced" {
		t.Error("ordering names wrong")
	}
	if FrameParallel.String() != "frame-parallel" || TaskParallel.String() != "task-parallel" {
		t.Error("parallelism names wrong")
	}
}

func TestTaskCostArithmetic(t *testing.T) {
	c := TaskCost{100, 20, 10}
	if got := c.scale(0.5); got != (TaskCost{50, 10, 5}) {
		t.Errorf("scale = %+v", got)
	}
	if got := c.add(TaskCost{1, 2, 3}); got != (TaskCost{101, 22, 13}) {
		t.Errorf("add = %+v", got)
	}
	if c.Accesses() != 30 {
		t.Errorf("accesses = %d", c.Accesses())
	}
}

func TestBuilderLockUnlockAndRMW(t *testing.T) {
	b := (&streamSource{}).builder(1, 0)
	b.lock(0x100, nil)
	b.alu(2)
	b.unlock(0x100, nil)
	b.rmw(0x200, nil)
	s := b.build("x", 0, 64, 1, nil)
	if len(s.Ops) != 5 {
		t.Fatalf("ops = %d", len(s.Ops))
	}
	kinds := []cpu.OpKind{cpu.OpLock, cpu.OpALU, cpu.OpALU, cpu.OpUnlock, cpu.OpRMW}
	for i, k := range kinds {
		if s.Ops[i].Kind != k {
			t.Errorf("op %d kind = %v, want %v", i, s.Ops[i].Kind, k)
		}
	}
}

func TestBuilderThenChainsCompletions(t *testing.T) {
	b := (&streamSource{}).builder(1, 0)
	calls := []int{}
	b.alu(1)
	b.then(func() { calls = append(calls, 1) })
	b.then(func() { calls = append(calls, 2) })
	op := b.ops[0]
	op.OnComplete()
	if len(calls) != 2 || calls[0] != 1 || calls[1] != 2 {
		t.Errorf("calls = %v", calls)
	}
}

func TestBuilderThenOnEmptyStreamAddsOp(t *testing.T) {
	b := (&streamSource{}).builder(1, 0)
	ran := false
	b.then(func() { ran = true })
	if len(b.ops) != 1 {
		t.Fatalf("ops = %d", len(b.ops))
	}
	b.ops[0].OnComplete()
	if !ran {
		t.Error("completion not attached")
	}
}

func TestAddrCycleRotatesBasesAndAdvances(t *testing.T) {
	f := addrCycle(0x100, 0x200)
	if f(0) != 0x100 || f(1) != 0x200 {
		t.Errorf("first cycle: %#x %#x", f(0), f(1))
	}
	if f(2) != 0x104 || f(3) != 0x204 {
		t.Errorf("second cycle: %#x %#x", f(2), f(3))
	}
}

func TestCodeRegionsFitConfiguredFootprints(t *testing.T) {
	p := DefaultProfile(SoftwareOnly)
	regions := []struct {
		name string
		base uint32
		len  uint32
	}{
		{"dispatch", codeDispatchBase, p.CodeDispatch},
		{"fetchbd", codeFetchBDBase, p.CodeFetchBD},
		{"send", codeSendBase, p.CodeSendFrame},
		{"recv", codeRecvBase, p.CodeRecvFrame},
		{"order", codeOrderBase, p.CodeOrdering},
	}
	for i := 0; i < len(regions)-1; i++ {
		if regions[i].base+regions[i].len > regions[i+1].base {
			t.Errorf("region %s overlaps %s", regions[i].name, regions[i+1].name)
		}
	}
}

func TestLockAddressesDistinctBanks(t *testing.T) {
	// The lock words are consecutive scratchpad words, so with 4 banks the
	// four hottest locks land in four different banks.
	banks := map[uint32]int{}
	for _, l := range []uint32{LockSendBD, LockRecvBD, LockTxAlloc, LockRxPool} {
		banks[(l/4)%4]++
	}
	if len(banks) != 4 {
		t.Errorf("hot locks share banks: %v", banks)
	}
}

func TestFlagArraysDisjoint(t *testing.T) {
	sendEnd := uint32(FlagsSend) + FlagBits/8
	if sendEnd > FlagsRecv {
		t.Errorf("send flags [%#x, %#x) overlap receive flags at %#x",
			uint32(FlagsSend), sendEnd, uint32(FlagsRecv))
	}
	recvEnd := uint32(FlagsRecv) + FlagBits/8
	if recvEnd > RegionLocks {
		t.Errorf("receive flags end %#x overlap locks at %#x", recvEnd, uint32(RegionLocks))
	}
}
