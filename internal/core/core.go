// Package core assembles the complete programmable 10 Gigabit Ethernet
// controller of the paper: P single-issue in-order cores with private
// instruction caches, S scratchpad banks behind a 32-bit crossbar, four
// streaming hardware assists, external GDDR SDRAM for frame data, the host
// and its device driver, and the frame-level parallel firmware — across four
// clock domains (CPU/scratchpad, SDRAM, MAC, host interconnect).
package core

import (
	"fmt"

	"repro/internal/assist"
	"repro/internal/cpu"
	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/firmware"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config selects one controller build point.
//
//nic:hashstable 1d28fba4d398
type Config struct {
	Cores  int
	CPUMHz float64

	ScratchpadBytes int
	ScratchpadBanks int

	ICacheBytes int
	ICacheWays  int
	ICacheLine  int

	SDRAMMHz float64
	SDRAM    mem.SDRAMConfig

	Ordering    firmware.Ordering
	Parallelism firmware.Parallelism

	Host host.Config

	// RxQueues selects how many per-core host receive rings the RSS stage
	// steers into. Zero means "unset": the controller keeps the seed's single
	// receive ring and every pre-RSS report stays byte-identical. Non-zero
	// values must be a power of two no larger than firmware.MaxRxQueues.
	RxQueues int `json:",omitempty"`

	// Steering names the RSS steering policy ("hash", "rr", "flow"); empty
	// selects the static hash. Only meaningful with RxQueues > 1.
	Steering string `json:",omitempty"`

	TxSlots  int
	RxSlots  int
	DMADepth int

	// JumboFrames raises the MAC's maximum accepted frame to the 9000-byte
	// payload jumbo limit, sizes firmware buffer slots to match, and relaxes
	// host-side delivery validation to the jumbo MTU. Off by default: the
	// paper's controller is standard-MTU.
	JumboFrames bool `json:",omitempty"`

	// Profile overrides the firmware cost model when non-nil.
	Profile *firmware.Profile
}

// DefaultConfig is the paper's software-only operating point: six cores and
// four scratchpad banks at 200 MHz, 8 KB two-way 32-byte-line instruction
// caches, and 64-bit 500 MHz GDDR SDRAM.
func DefaultConfig() Config {
	return Config{
		Cores:           6,
		CPUMHz:          200,
		ScratchpadBytes: 256 * 1024,
		ScratchpadBanks: 4,
		ICacheBytes:     8192,
		ICacheWays:      2,
		ICacheLine:      32,
		SDRAMMHz:        500,
		SDRAM:           mem.DefaultSDRAMConfig(),
		Ordering:        firmware.SoftwareOnly,
		Parallelism:     firmware.FrameParallel,
		Host:            host.DefaultConfig(),
		TxSlots:         512,
		RxSlots:         512,
		DMADepth:        4,
	}
}

// RMWConfig is the paper's RMW-enhanced operating point: the atomic
// set/update instructions allow the same six-core controller to run at
// 166 MHz.
func RMWConfig() Config {
	c := DefaultConfig()
	c.CPUMHz = 166
	c.Ordering = firmware.RMWEnhanced
	return c
}

// NIC is one assembled controller plus its environment.
type NIC struct {
	Cfg Config

	Engine *sim.Engine
	SP     *mem.Scratchpad
	Xbar   *mem.Crossbar
	SDRAM  *mem.SDRAM
	IMem   *mem.InstrMemory
	Cores  []*cpu.Core
	Host   *host.Host
	FW     *firmware.Firmware
	As     firmware.Assists

	TxSink *workload.TxSink
	txGen  *workload.Generator
	rxGen  *workload.Generator

	// adv/traffic/slo are set by AttachTraffic and AttachSLO: the hostile
	// receive source, its spec (for the report), and the armed objective.
	adv     *workload.Adversary
	traffic *workload.TrafficSpec
	slo     *SLO

	inj     *faults.Injector
	checker *invariantChecker

	// obs, when non-nil, is the frame-lifecycle recorder (EnableObs).
	obs           *obs.Recorder
	obsFaultTrack int32

	baseline snapshot
	measured sim.Picoseconds
}

// SDRAM port assignments for the four assists.
const (
	sdramDMARead = iota
	sdramDMAWrite
	sdramMACTx
	sdramMACRx
)

// New assembles a controller.
func New(cfg Config) *NIC {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	// Canonicalize the explicitly-spelled defaults so a 1-queue static-hash
	// configuration serializes byte-identically to the zero-value seed path.
	if cfg.RxQueues == 1 {
		cfg.RxQueues = 0
	}
	if cfg.Steering == "hash" {
		cfg.Steering = ""
	}
	n := &NIC{Cfg: cfg}

	n.SP = mem.NewScratchpad(cfg.ScratchpadBytes, cfg.ScratchpadBanks)
	n.Xbar = mem.NewCrossbar(cfg.Cores+4, cfg.ScratchpadBanks)
	n.SDRAM = mem.NewSDRAM(cfg.SDRAM)
	n.IMem = mem.NewInstrMemory(2, cfg.ICacheLine)
	nq := max(cfg.RxQueues, 1)
	n.Host = host.New(cfg.Host, nq)

	prtDMARd := cfg.Cores + 0
	prtDMAWr := cfg.Cores + 1
	prtMACTx := cfg.Cores + 2
	prtMACRx := cfg.Cores + 3

	n.As = firmware.Assists{
		DMARead: assist.NewDMARead(
			assist.NewScratchPort(n.SP, n.Xbar, prtDMARd, cfg.Cores+0),
			n.SDRAM, sdramDMARead, n.Host, firmware.PtrDMARead, cfg.DMADepth),
		DMAWrite: assist.NewDMAWrite(
			assist.NewScratchPort(n.SP, n.Xbar, prtDMAWr, cfg.Cores+1),
			n.SDRAM, sdramDMAWrite, n.Host, firmware.PtrDMAWrite, cfg.DMADepth),
		MACTx: assist.NewMACTx(
			assist.NewScratchPort(n.SP, n.Xbar, prtMACTx, cfg.Cores+2),
			n.SDRAM, sdramMACTx, firmware.PtrMACTx),
		MACRx: assist.NewMACRx(
			assist.NewScratchPort(n.SP, n.Xbar, prtMACRx, cfg.Cores+3),
			n.SDRAM, sdramMACRx, firmware.PtrMACRx),
	}
	n.As.MACRx.Queues = nq
	if nq > 1 {
		steer, err := assist.NewSteering(cfg.Steering)
		if err != nil {
			panic(fmt.Sprintf("core: %v", err)) // Validate already rejected it
		}
		n.As.MACRx.Steer = steer
		n.As.MACRx.QueueFrames = make([]stats.Counter, nq)
		n.As.MACRx.QueueDrops = make([]stats.Counter, nq)
	}

	prof := firmware.DefaultProfile(cfg.Ordering)
	if cfg.Profile != nil {
		prof = *cfg.Profile
	}
	prof.Ordering = cfg.Ordering
	prof.Parallelism = cfg.Parallelism
	// Buffer slots hold one maximum-sized frame plus the 12-byte descriptor
	// header; a jumbo build widens the slots and the MAC's admission limit.
	slotBytes := uint32(1530)
	if cfg.JumboFrames {
		slotBytes = 9030
		n.As.MACRx.MaxFrame = ethernet.JumboMaxFrame
		n.Host.JumboFrames = true
	}
	n.FW = firmware.New(prof, n.SP, n.Host, n.As, cfg.Cores, cfg.TxSlots, cfg.RxSlots, slotBytes)

	for i := 0; i < cfg.Cores; i++ {
		ic := mem.NewICache(cfg.ICacheBytes, cfg.ICacheWays, cfg.ICacheLine)
		c := cpu.New(i, n.SP, n.Xbar, i, ic, n.IMem, firmware.NumAcct)
		c.NextWork = n.FW.NextWorkFor(i)
		c.Recycle = n.FW.Recycle
		n.Cores = append(n.Cores, c)
	}

	// Clock domains: CPU (cores, assists' control side, crossbar,
	// instruction memory), SDRAM, MAC, host interconnect.
	cpuD := sim.NewDomain("cpu", cfg.CPUMHz*1e6)
	for _, c := range n.Cores {
		cpuD.Add(c)
	}
	cpuD.Add(n.As.DMARead)
	cpuD.Add(n.As.DMAWrite)
	cpuD.Add(n.As.MACTx)
	cpuD.Add(n.As.MACRx)
	cpuD.Add(n.Xbar)
	cpuD.Add(n.IMem)

	sdramD := sim.NewDomain("sdram", cfg.SDRAMMHz*1e6)
	sdramD.Add(n.SDRAM)

	macD := sim.NewDomain("mac", assist.MACHz)
	macD.Add(assist.TxWire{M: n.As.MACTx})
	macD.Add(assist.RxWire{M: n.As.MACRx})

	hostD := sim.NewDomain("host", 133e6)
	hostD.Add(n.Host)
	// The invariant checker runs on every build point, faulted or not; it
	// only reads functional state, so it cannot perturb the simulation.
	n.checker = newInvariantChecker(n)
	hostD.Add(n.checker)

	n.Engine = sim.NewEngine(cpuD, sdramD, macD, hostD)
	return n
}

// AttachWorkload installs a full-duplex UDP stream of the given datagram
// size on both directions.
func (n *NIC) AttachWorkload(udpSize int, withPayload bool) {
	n.txGen = workload.NewGenerator(udpSize, withPayload)
	n.rxGen = workload.NewGenerator(udpSize, withPayload)
	n.Host.Source = &workload.Sender{G: n.txGen}
	n.As.MACRx.Source = &workload.Arrivals{G: n.rxGen}
	n.TxSink = &workload.TxSink{}
	n.FW.OnTransmit = func(f *host.Frame) { n.TxSink.Transmit(f) }
}

// AttachTraffic installs one adversarial traffic-matrix point: the hostile
// receive stream described by ts, plus a transmit stream of the same datagram
// size so the controller stays full-duplex (gated in lockstep with the
// receive bursts under the synchronized-burst arrival). The multicast class
// additionally installs the station's receive address filter.
func (n *NIC) AttachTraffic(udpSize int, ts workload.TrafficSpec, withPayload bool) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	if ts.Class == workload.ClassJumbo && !n.Cfg.JumboFrames {
		return fmt.Errorf("core: traffic class %q requires Config.JumboFrames", ts.Class)
	}
	spec := ts
	n.traffic = &spec
	n.adv = workload.NewAdversary(ts, udpSize, withPayload)
	n.As.MACRx.Source = n.adv
	if ts.Class == workload.ClassMcast {
		n.As.MACRx.Filter = workload.StationFilter()
	}
	n.txGen = workload.NewGenerator(udpSize, withPayload)
	n.txGen.Jumbo = n.Cfg.JumboFrames
	if ts.Arrival == workload.ArrivalSync {
		n.Host.Source = &workload.GatedSender{G: n.txGen, Adv: n.adv}
	} else {
		n.Host.Source = &workload.Sender{G: n.txGen}
	}
	n.TxSink = &workload.TxSink{}
	n.FW.OnTransmit = func(f *host.Frame) { n.TxSink.Transmit(f) }
	return nil
}

// AttachSLO arms a latency/drop service-level objective for this run; Run
// evaluates it into Report.SLO. Latency bounds enable frame-lifecycle
// observation for the run (per-spec, so sweeps stay deterministic without a
// global observation flag).
func (n *NIC) AttachSLO(s SLO) error {
	if err := s.Validate(); err != nil {
		return err
	}
	n.slo = &s
	if s.NeedsLatency() {
		n.EnableObs(obs.Config{})
	}
	return nil
}

// EnableTracing captures per-processor scratchpad reference traces (cores
// and assists) for the coherence study; call before Run. Returns the
// per-processor trace slices, indexed 0..Cores-1 for cores and Cores..+3 for
// the DMA read, DMA write, MAC tx, and MAC rx assists.
func (n *NIC) EnableTracing(maxRefs int) []*[]trace.MemRef {
	out := make([]*[]trace.MemRef, n.Cfg.Cores+4)
	mk := func(proc int) func(trace.MemRef) {
		s := new([]trace.MemRef)
		out[proc] = s
		return func(r trace.MemRef) {
			if len(*s) < maxRefs {
				*s = append(*s, r)
			}
		}
	}
	for i, c := range n.Cores {
		c.TraceMem = mk(i)
	}
	n.As.DMARead.Port.TraceMem = mk(n.Cfg.Cores + 0)
	n.As.DMAWrite.Port.TraceMem = mk(n.Cfg.Cores + 1)
	n.As.MACTx.Port.TraceMem = mk(n.Cfg.Cores + 2)
	n.As.MACRx.Port.TraceMem = mk(n.Cfg.Cores + 3)
	return out
}

// Run warms the pipeline for warmup simulated time, then measures for
// measure time and returns the report.
//
// Run honors Engine.Stop (e.g. from a sweep worker's cancellation
// watchdog): if stopped during warmup the report is empty; if stopped
// mid-measurement the report covers the simulated time actually measured.
// Uninterrupted runs measure exactly the requested window, keeping reports
// byte-for-byte reproducible.
func (n *NIC) Run(warmup, measure sim.Picoseconds) Report {
	n.Engine.RunFor(warmup)
	n.baseline = n.snapshot()
	// Latency aggregates cover the measurement window only; frames already in
	// flight at the boundary still report their true (full) latency.
	n.obs.ResetLatency()
	if n.Engine.Stopped() {
		n.measured = 0
		return n.report(n.baseline)
	}
	t0 := n.Engine.Now()
	n.Engine.RunFor(measure)
	if n.Engine.Stopped() {
		n.measured = n.Engine.Now() - t0
	} else {
		n.measured = measure
	}
	// Final conservation audit: one non-watchdog pass so a violation in the
	// last partial check window still surfaces in the report.
	n.checker.check(false)
	return n.report(n.snapshot())
}
