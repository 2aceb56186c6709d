package core

import (
	"fmt"

	"repro/internal/assist"
	"repro/internal/firmware"
)

// Validate reports the first configuration error, if any. New panics on an
// invalid configuration, so user-facing entry points (nicsim, nicbench)
// should Validate first and turn errors into clean exits.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cores must be positive, got %d", c.Cores)
	}
	if c.CPUMHz <= 0 {
		return fmt.Errorf("CPU clock must be positive, got %g MHz", c.CPUMHz)
	}
	if c.ScratchpadBanks <= 0 {
		return fmt.Errorf("scratchpad banks must be positive, got %d", c.ScratchpadBanks)
	}
	if c.ScratchpadBytes <= 0 {
		return fmt.Errorf("scratchpad capacity must be positive, got %d bytes", c.ScratchpadBytes)
	}
	if c.ScratchpadBytes%(4*c.ScratchpadBanks) != 0 {
		return fmt.Errorf("scratchpad capacity %d B not word-interleavable across %d banks", c.ScratchpadBytes, c.ScratchpadBanks)
	}
	if c.ICacheBytes <= 0 || c.ICacheWays <= 0 || c.ICacheLine <= 0 {
		return fmt.Errorf("bad icache geometry: %d bytes, %d ways, %d-byte lines", c.ICacheBytes, c.ICacheWays, c.ICacheLine)
	}
	if c.SDRAMMHz <= 0 {
		return fmt.Errorf("SDRAM clock must be positive, got %g MHz", c.SDRAMMHz)
	}
	if c.TxSlots <= 0 || c.RxSlots <= 0 {
		return fmt.Errorf("frame buffer slots must be positive, got tx=%d rx=%d", c.TxSlots, c.RxSlots)
	}
	if c.DMADepth <= 0 {
		return fmt.Errorf("DMA pipeline depth must be positive, got %d", c.DMADepth)
	}
	if c.RxQueues < 0 {
		return fmt.Errorf("receive queues must be positive, got %d (omit or use 1 for the single-ring build)", c.RxQueues)
	}
	if nq := c.RxQueues; nq > firmware.MaxRxQueues || nq&(nq-1) != 0 {
		return fmt.Errorf("receive queues must be a power of two ≤ %d, got %d (the receive flag region subdivides evenly)", firmware.MaxRxQueues, nq)
	}
	if _, err := assist.NewSteering(c.Steering); err != nil {
		return err
	}
	return c.Host.Validate()
}
