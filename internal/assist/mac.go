package assist

import (
	"repro/internal/ethernet"
	"repro/internal/fifo"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stats"
)

// BytesPerMACCycle is the wire datapath width: the MAC domain runs at
// 156.25 MHz moving 8 bytes per cycle, exactly 10 Gb/s.
const BytesPerMACCycle = 8

// MACHz is the MAC clock domain frequency.
const MACHz = ethernet.LinkBitsPerSec / 8 / BytesPerMACCycle

// wireOverhead is the preamble plus interframe gap charged to every frame.
const wireOverhead = ethernet.PreambleBytes + ethernet.InterframeGapBytes

// MACTx is the transmit half of the MAC unit: it fetches committed frames
// from the SDRAM transmit buffer into a two-frame staging buffer and clocks
// them onto the wire.
//
// Register TickCPU in the CPU domain (it pumps the scratchpad port) and
// TickMAC in the MAC domain (wire pacing).
type MACTx struct {
	Port      *ScratchPort
	sdram     *mem.SDRAM
	sdramPort int

	ProgressAddr uint32

	// OnTransmit fires when a frame's last byte leaves the wire.
	OnTransmit func(handle any)

	// Obs, when non-nil, records each frame's wire occupancy as a span on
	// ObsTrack. Purely observational.
	Obs      *obs.Recorder
	ObsTrack int32

	queue fifo.Queue[txFrame] // committed, not yet fetched
	// staged is the two-frame MAC buffer, a fixed ring: nStaged frames
	// starting at slot sHead.
	staged    [2]txFrame
	sHead     int
	nStaged   int
	fetching  bool
	fetched   txFrame // the frame being fetched while fetching is set
	fetchDone func()  // m.stage, bound once

	wireRemain int     // bytes left of the frame currently on the wire
	cur        txFrame // the frame currently on the wire
}

type txFrame struct {
	bufAddr uint32
	size    int // frame size incl. CRC
	handle  any
}

// NewMACTx creates the transmit engine.
func NewMACTx(port *ScratchPort, sdram *mem.SDRAM, sdramPort int, progressAddr uint32) *MACTx {
	m := &MACTx{Port: port, sdram: sdram, sdramPort: sdramPort, ProgressAddr: progressAddr}
	m.fetchDone = m.stage
	return m
}

// stage completes the SDRAM fetch: the fetched frame takes the staging
// buffer's free slot.
func (m *MACTx) stage() {
	m.staged[(m.sHead+m.nStaged)%len(m.staged)] = m.fetched
	m.nStaged++
	m.fetched = txFrame{}
	m.fetching = false
}

// Send queues one committed frame for transmission.
func (m *MACTx) Send(bufAddr uint32, size int, handle any) {
	m.queue.Push(txFrame{bufAddr: bufAddr, size: size, handle: handle})
}

// Backlog reports frames committed but not yet fully transmitted: queued,
// being fetched from SDRAM, staged, or partially on the wire.
func (m *MACTx) Backlog() int {
	n := m.queue.Len() + m.nStaged
	if m.fetching {
		n++
	}
	if m.wireRemain > 0 {
		n++
	}
	return n
}

// TickCPU starts SDRAM fetches (double buffered) and pumps the port.
//
//nic:hotpath
func (m *MACTx) TickCPU(cycle uint64) {
	if !m.fetching && m.queue.Len() > 0 && m.nStaged < len(m.staged) {
		f := m.queue.Pop()
		m.fetching = true
		m.fetched = f
		m.sdram.Enqueue(m.sdramPort, mem.Transfer{Addr: f.bufAddr, Len: f.size, OnDone: m.fetchDone})
	}
	m.Port.Tick(cycle)
}

// Tick adapts MACTx to sim.Ticker in the CPU domain.
func (m *MACTx) Tick(cycle uint64) { m.TickCPU(cycle) }

// TickMAC advances the wire by BytesPerMACCycle.
//
//nic:hotpath
func (m *MACTx) TickMAC(cycle uint64) {
	if m.wireRemain == 0 {
		if m.nStaged == 0 {
			return
		}
		f := m.staged[m.sHead]
		m.staged[m.sHead] = txFrame{}
		m.sHead = (m.sHead + 1) % len(m.staged)
		m.nStaged--
		m.wireRemain = f.size + wireOverhead
		m.cur = f
		m.Obs.Begin(m.ObsTrack, "tx frame")
	}
	m.wireRemain -= BytesPerMACCycle
	if m.wireRemain <= 0 {
		m.wireRemain = 0
		f := m.cur
		m.Obs.End(m.ObsTrack, "tx frame")
		m.Port.Write(m.ProgressAddr, nil)
		if m.OnTransmit != nil {
			m.OnTransmit(f.handle)
		}
	}
}

// NetworkSource supplies the receive workload: Next returns the next frame
// on the wire when the link is ready for one, or ok=false when the source is
// idle this instant.
type NetworkSource interface {
	Next() (size int, handle any, ok bool)
}

// RxFrameMeta is the optional wire-level metadata a workload's frame handles
// may expose to the MAC receive path: a failing frame check sequence and the
// destination address (ok=false when the workload does not address frames,
// in which case address filtering passes them). Handles without the
// interface are treated as well-formed station-addressed frames, so the
// paper's baseline workloads are untouched.
type RxFrameMeta interface {
	RxBadCRC() bool
	RxDst() (ethernet.MAC, bool)
}

// MACRx is the receive half: frames arrive paced by the wire, land in a
// two-frame staging buffer, and are written to the SDRAM receive buffer at
// an address chosen by the allocation callback. When the receive buffer has
// no space the frame is dropped, as on the real controller.
//
// Before staging, every arriving frame passes deterministic wire-validity
// checks — runt, oversize, bad CRC, address filter — and malformed frames
// are dropped and counted per class without ever reaching firmware, exactly
// as a hardware MAC discards them before DMA.
type MACRx struct {
	Port      *ScratchPort
	sdram     *mem.SDRAM
	sdramPort int

	ProgressAddr uint32

	// Source provides arriving frames.
	Source NetworkSource
	// Alloc chooses the SDRAM address for an arriving frame; ok=false drops
	// it (receive buffer exhausted).
	Alloc func(size int, handle any) (bufAddr uint32, ok bool)
	// OnReceive fires when a frame is fully in the SDRAM receive buffer.
	// queue is the RSS receive queue the frame was steered to (always 0
	// with a single queue).
	OnReceive func(bufAddr uint32, size int, handle any, queue int)

	// Queues is the number of RSS receive queues frames are steered across;
	// zero or one disables steering (every frame lands on queue 0, and the
	// flow hash is never computed — the seed single-queue path).
	Queues int
	// Steer selects the queue for each admitted frame from its flow hash.
	// Required when Queues > 1.
	Steer Steering
	// QueueFrames/QueueDrops, when sized by the integration layer, count
	// accepted frames and buffer-exhaustion drops per receive queue.
	QueueFrames []stats.Counter
	QueueDrops  []stats.Counter
	// FaultVerdict, when non-nil, is consulted per arriving frame before
	// staging: RxFaultDrop models a frame lost on the wire, RxFaultCorrupt a
	// frame arriving with a bad CRC. Both are discarded by the MAC before
	// firmware sees them and counted separately from buffer-exhaustion Drops.
	FaultVerdict func(size int) int

	// MaxFrame is the largest acceptable frame size; zero means the standard
	// ethernet.MaxFrame. Jumbo-enabled builds raise it to
	// ethernet.JumboMaxFrame.
	MaxFrame int
	// Filter, when non-nil, is the receive address filter: frames whose
	// destination it rejects are dropped and counted as FilteredDrops.
	Filter *ethernet.AddressFilter

	// Obs, when non-nil, records wire occupancy spans on ObsTrack and each
	// accepted frame's arrival instant as its receive-latency origin.
	Obs      *obs.Recorder
	ObsTrack int32

	wireRemain int
	curSize    int
	curHandle  any
	// staged holds the frames in the staging buffer awaiting their SDRAM
	// write, oldest first; the MACRx SDRAM port is FIFO, so each write
	// completion (written, bound once) belongs to the head.
	staged  fifo.Queue[rxStaged]
	written func()

	RxFrames     stats.Counter
	Drops        stats.Counter
	WireDrops    stats.Counter // injected wire losses
	CorruptDrops stats.Counter // injected CRC failures

	// Per-class malformed-frame reject counters (wire-validity checks).
	RuntDrops     stats.Counter // shorter than the Ethernet minimum
	OversizeDrops stats.Counter // longer than MaxFrame
	BadCRCDrops   stats.Counter // arriving frame check sequence failed
	FilteredDrops stats.Counter // destination rejected by the address filter
}

// FaultVerdict results.
const (
	RxFaultPass = iota
	RxFaultDrop
	RxFaultCorrupt
)

// rxStaged is one accepted frame awaiting its SDRAM write.
type rxStaged struct {
	addr   uint32
	size   int
	handle any
	queue  int
}

// NewMACRx creates the receive engine.
func NewMACRx(port *ScratchPort, sdram *mem.SDRAM, sdramPort int, progressAddr uint32) *MACRx {
	m := &MACRx{Port: port, sdram: sdram, sdramPort: sdramPort, ProgressAddr: progressAddr}
	m.written = m.frameWritten
	return m
}

// Staged reports frames sitting in the staging buffer awaiting their SDRAM
// write (accepted but not yet delivered to firmware); for invariant checks.
func (m *MACRx) Staged() int { return m.staged.Len() }

// frameWritten completes the oldest staged frame's SDRAM write: it leaves
// the staging buffer, the progress pointer advances, and firmware sees it.
func (m *MACRx) frameWritten() {
	f := m.staged.Pop()
	m.Port.Write(m.ProgressAddr, nil)
	if m.OnReceive != nil {
		m.OnReceive(f.addr, f.size, f.handle, f.queue)
	}
}

// TickCPU pumps the scratchpad port.
func (m *MACRx) TickCPU(cycle uint64) { m.Port.Tick(cycle) }

// Tick adapts MACRx to sim.Ticker in the CPU domain.
func (m *MACRx) Tick(cycle uint64) { m.TickCPU(cycle) }

// TickMAC advances the receive wire.
func (m *MACRx) TickMAC(cycle uint64) {
	if m.wireRemain == 0 {
		if m.Source == nil {
			return
		}
		size, handle, ok := m.Source.Next()
		if !ok {
			return
		}
		m.wireRemain = size + wireOverhead
		m.curSize = size
		m.curHandle = handle
		m.Obs.Begin(m.ObsTrack, "rx frame")
	}
	m.wireRemain -= BytesPerMACCycle
	if m.wireRemain <= 0 {
		m.wireRemain = 0
		m.Obs.End(m.ObsTrack, "rx frame")
		m.frameArrived(m.curSize, m.curHandle)
	}
}

// frameArrived lands a complete frame in the staging buffer and starts its
// SDRAM write; the staging buffer holds two frames, beyond which arrivals
// drop (the SDRAM or allocation is the bottleneck).
func (m *MACRx) frameArrived(size int, handle any) {
	if m.FaultVerdict != nil {
		switch m.FaultVerdict(size) {
		case RxFaultDrop:
			m.WireDrops.Inc()
			return
		case RxFaultCorrupt:
			m.CorruptDrops.Inc()
			return
		}
	}
	if !m.admit(size, handle) {
		return
	}
	// Steering happens after admission, exactly where a hardware RSS stage
	// sits: malformed frames never consume a hash, and buffer-exhaustion
	// drops are attributed to the queue the frame would have landed on.
	q := m.queueFor(handle)
	if m.staged.Len() >= 2 || m.Alloc == nil {
		m.dropQ(q)
		return
	}
	addr, ok := m.Alloc(size, handle)
	if !ok {
		m.dropQ(q)
		return
	}
	m.staged.Push(rxStaged{addr: addr, size: size, handle: handle, queue: q})
	m.RxFrames.Inc()
	if q < len(m.QueueFrames) {
		m.QueueFrames[q].Inc()
	}
	// The frame is accepted: this instant is its receive-latency origin.
	// Accepted frames always reach OnReceive (the SDRAM write cannot fail)
	// and acquire firmware indices in this order, so the origin FIFO pairing
	// in the recorder is exact.
	m.Obs.FrameOrigin(obs.Recv)
	m.sdram.Enqueue(m.sdramPort, mem.Transfer{Addr: addr, Len: size, Write: true, OnDone: m.written})
}

// queueFor steers one admitted frame: hash the flow identity the handle
// exposes and let the policy map it to a queue. Single-queue configurations
// skip the hash entirely — the seed receive path, bit for bit.
//
//nic:hotpath
func (m *MACRx) queueFor(handle any) int {
	if m.Queues <= 1 {
		return 0
	}
	var hash uint32
	if meta, ok := handle.(RxFlowMeta); ok {
		src, dst, srcPort, dstPort := meta.RxFlow()
		hash = FlowHash(src, dst, srcPort, dstPort)
	}
	return m.Steer.Select(hash, m.Queues)
}

// dropQ counts a buffer-exhaustion drop globally and against the queue the
// frame was steered to.
func (m *MACRx) dropQ(q int) {
	m.Drops.Inc()
	if q < len(m.QueueDrops) {
		m.QueueDrops[q].Inc()
	}
}

// admit applies the deterministic wire-validity checks a hardware MAC makes
// before DMA: length bounds, frame check sequence, and the receive address
// filter. A false return means the frame was dropped and counted; rejected
// frames never increment RxFrames, so the MAC/firmware conservation
// invariant is unaffected. Runs once per arriving frame.
//
//nic:hotpath
func (m *MACRx) admit(size int, handle any) bool {
	if size < ethernet.MinFrame {
		m.RuntDrops.Inc()
		return false
	}
	maxFrame := m.MaxFrame
	if maxFrame == 0 {
		maxFrame = ethernet.MaxFrame
	}
	if size > maxFrame {
		m.OversizeDrops.Inc()
		return false
	}
	if meta, ok := handle.(RxFrameMeta); ok {
		if meta.RxBadCRC() {
			m.BadCRCDrops.Inc()
			return false
		}
		if m.Filter != nil {
			if dst, addressed := meta.RxDst(); addressed && !m.Filter.Accept(dst) {
				m.FilteredDrops.Inc()
				return false
			}
		}
	}
	return true
}

// TxWire adapts the MAC-domain half of MACTx to a sim.Ticker.
type TxWire struct{ M *MACTx }

// Tick advances the transmit wire.
func (w TxWire) Tick(cycle uint64) { w.M.TickMAC(cycle) }

// RxWire adapts the MAC-domain half of MACRx to a sim.Ticker.
type RxWire struct{ M *MACRx }

// Tick advances the receive wire.
func (w RxWire) Tick(cycle uint64) { w.M.TickMAC(cycle) }
