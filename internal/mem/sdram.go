package mem

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/stats"
)

// SDRAM models the external graphics DDR SDRAM that holds frame contents,
// together with the 128-bit internal bus the PCI interface and MAC unit share
// to reach it.
//
// The device is 64 bits wide and double-data-rate, so at the bus frequency it
// moves two 64-bit values per cycle: 16 bytes per SDRAM-domain cycle, 64 Gb/s
// peak at 500 MHz. The four streaming assists buffer up to two maximum-sized
// frames each and transfer whole frames to consecutive addresses, so bursts
// sustain near-peak bandwidth and row activations are rare within a burst.
//
// Misaligned bursts waste bandwidth: transfers are rounded outward to 8-byte
// boundaries, and the wasted bytes are counted in consumed bandwidth exactly
// as the paper counts them ("this is lost SDRAM bandwidth that cannot be
// recovered, so it is counted in the totals").
//
// SDRAM is a sim.Ticker registered in the SDRAM clock domain.
type SDRAM struct {
	rowBytes   int
	banks      int
	openRow    []int64
	activateCy int

	queues  []fifo.Queue[Transfer] // one per port
	queued  int                    // transfers waiting across all ports
	current Transfer
	active  bool
	// remaining cycles in the current burst, including activation overhead
	remaining int
	rr        int

	// UsefulBytes counts payload bytes moved; ConsumedBytes additionally
	// counts alignment waste. BusyCycles/Cycles give bus utilization.
	UsefulBytes   stats.Counter
	ConsumedBytes stats.Counter
	WastedBytes   stats.Counter
	Activations   stats.Counter
	Busy          stats.Utilization
}

// A Transfer is one burst between an assist and the SDRAM.
type Transfer struct {
	Addr   uint32
	Len    int
	Write  bool
	OnDone func()
}

// SDRAMConfig parameterizes the memory device. It serializes inside
// core.Config (and so inside every spec hash); new knobs must be tagged
// ,omitempty with a zero default.
//
//nic:hashstable d83b7eb9ed1d
type SDRAMConfig struct {
	Ports      int // number of requesters (the four assists)
	RowBytes   int // bytes per row (page) per bank
	Banks      int
	ActivateCy int // cycles to precharge+activate on a row miss
}

// DefaultSDRAMConfig matches the Micron MT44H8M32-class part in the paper:
// four internal banks, 2 KB pages, and an activation penalty that yields
// worst-case latencies in the tens of cycles.
func DefaultSDRAMConfig() SDRAMConfig {
	return SDRAMConfig{Ports: 4, RowBytes: 2048, Banks: 4, ActivateCy: 9}
}

// NewSDRAM creates an SDRAM model.
func NewSDRAM(cfg SDRAMConfig) *SDRAM {
	if cfg.Ports <= 0 || cfg.Banks <= 0 || cfg.RowBytes <= 0 {
		panic(fmt.Sprintf("mem: bad SDRAM config %+v", cfg))
	}
	s := &SDRAM{
		rowBytes:   cfg.RowBytes,
		banks:      cfg.Banks,
		openRow:    make([]int64, cfg.Banks),
		activateCy: cfg.ActivateCy,
		queues:     make([]fifo.Queue[Transfer], cfg.Ports),
	}
	for i := range s.openRow {
		s.openRow[i] = -1
	}
	return s
}

// Enqueue adds a transfer to the given port's queue.
func (s *SDRAM) Enqueue(port int, t Transfer) {
	s.queues[port].Push(t)
	s.queued++
}

// QueueLen returns the number of transfers waiting (plus in progress) for a
// port.
func (s *SDRAM) QueueLen(port int) int { return s.queues[port].Len() }

// alignedLen returns the burst length after rounding the start down and the
// end up to 8-byte boundaries.
func alignedLen(addr uint32, n int) int {
	start := addr &^ 7
	end := (addr + uint32(n) + 7) &^ 7
	return int(end - start)
}

// Tick advances the SDRAM and its shared bus by one cycle.
//
//nic:hotpath
func (s *SDRAM) Tick(cycle uint64) {
	s.Busy.Total.Inc()
	if !s.active {
		s.start(cycle)
	}
	if !s.active {
		return
	}
	s.Busy.Busy.Inc()
	s.remaining--
	if s.remaining == 0 {
		t := s.current
		s.current, s.active = Transfer{}, false
		if t.OnDone != nil {
			t.OnDone()
		}
		// Start the next burst immediately so back-to-back streams sustain
		// full bandwidth.
		s.start(cycle)
	}
}

// start pops the next transfer round-robin and computes its burst length.
//
//nic:hotpath
func (s *SDRAM) start(cycle uint64) {
	if s.queued == 0 {
		return // an idle bus skips the port scan
	}
	for i := 1; i <= len(s.queues); i++ {
		p := (s.rr + i) % len(s.queues)
		if s.queues[p].Len() == 0 {
			continue
		}
		t := s.queues[p].Pop()
		s.queued--
		s.rr = p

		al := alignedLen(t.Addr, t.Len)
		dataCycles := (al + 15) / 16 // 16 bytes per DDR cycle on the 128-bit bus
		if dataCycles == 0 {
			dataCycles = 1
		}
		overhead := 0
		bank := int(t.Addr/uint32(s.rowBytes)) % s.banks
		row := int64(t.Addr) / int64(s.rowBytes) / int64(s.banks)
		if s.openRow[bank] != row {
			overhead = s.activateCy
			s.openRow[bank] = row
			s.Activations.Inc()
		}
		s.UsefulBytes.Add(uint64(t.Len))
		s.ConsumedBytes.Add(uint64(al))
		s.WastedBytes.Add(uint64(al - t.Len))
		s.remaining = overhead + dataCycles
		s.current, s.active = t, true
		return
	}
}

// PeakGbps returns the peak bandwidth at the given SDRAM frequency in MHz.
func PeakGbps(mhz float64) float64 { return mhz * 1e6 * 16 * 8 / 1e9 }
