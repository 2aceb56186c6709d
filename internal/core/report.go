package core

import (
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/ethernet"
	"repro/internal/firmware"
	"repro/internal/obs"
)

// snapshot captures every counter a report diffs.
type snapshot struct {
	cores []cpu.Stats

	funcCycles [][]uint64
	funcInstr  [][]uint64
	funcMem    [][]uint64
	funcLockCy [][]uint64
	funcLockIn [][]uint64

	txFrames, txUDPBytes, txOOO uint64
	rxFrames, rxUDPBytes, rxOOO uint64
	rxCorrupt, rxDrops          uint64

	macRxFrames                                          uint64
	runtDrops, oversizeDrops, badCRCDrops, filteredDrops uint64
	advOffered, advHostile, advCrit                      uint64
	critDelivered                                        uint64

	queueSteered, queueDrops, queueDeliv, queueOOO []uint64
	crossReord                                     uint64

	spReads, spWrites uint64
	assistAccesses    uint64

	sdramUseful, sdramConsumed, sdramWasted uint64
	sdramBusy, sdramTotal                   uint64

	imemBusy, imemTotal uint64

	events [10]uint64
}

func (n *NIC) snapshot() snapshot {
	var s snapshot
	for _, c := range n.Cores {
		s.cores = append(s.cores, c.Stats)
		s.funcCycles = append(s.funcCycles, append([]uint64(nil), c.FuncCycles...))
		s.funcInstr = append(s.funcInstr, append([]uint64(nil), c.FuncInstr...))
		s.funcMem = append(s.funcMem, append([]uint64(nil), c.FuncMem...))
		s.funcLockCy = append(s.funcLockCy, append([]uint64(nil), c.FuncLockCycles...))
		s.funcLockIn = append(s.funcLockIn, append([]uint64(nil), c.FuncLockInstr...))
	}
	if n.TxSink != nil {
		s.txFrames = n.TxSink.Frames.Value()
		s.txUDPBytes = n.TxSink.Bytes.Value()
		s.txOOO = n.TxSink.OutOfOrder.Value()
	}
	s.rxFrames = n.Host.RecvDelivered.Value()
	s.rxUDPBytes = n.Host.RecvBytes.Value()
	s.rxOOO = n.Host.RecvOutOfOrd.Value()
	s.rxCorrupt = n.Host.RecvCorrupt.Value()
	s.rxDrops = n.As.MACRx.Drops.Value()

	s.macRxFrames = n.As.MACRx.RxFrames.Value()
	s.runtDrops = n.As.MACRx.RuntDrops.Value()
	s.oversizeDrops = n.As.MACRx.OversizeDrops.Value()
	s.badCRCDrops = n.As.MACRx.BadCRCDrops.Value()
	s.filteredDrops = n.As.MACRx.FilteredDrops.Value()
	if n.adv != nil {
		s.advOffered = n.adv.Offered.Value()
		s.advHostile = n.adv.HostileOffered.Value()
		s.advCrit = n.adv.CritOffered.Value()
	}
	s.critDelivered = n.Host.RecvCritical.Value()

	if nq := n.Host.RxQueues(); nq > 1 {
		for q := 0; q < nq; q++ {
			s.queueSteered = append(s.queueSteered, n.As.MACRx.QueueFrames[q].Value())
			s.queueDrops = append(s.queueDrops, n.As.MACRx.QueueDrops[q].Value())
			s.queueDeliv = append(s.queueDeliv, n.Host.QueueDelivered(q))
			s.queueOOO = append(s.queueOOO, n.Host.QueueOutOfOrd(q))
		}
		s.crossReord = n.Host.RecvCrossReord.Value()
	}

	s.spReads, s.spWrites = n.SP.TotalAccesses()
	s.assistAccesses = n.As.DMARead.Port.Accesses.Value() +
		n.As.DMAWrite.Port.Accesses.Value() +
		n.As.MACTx.Port.Accesses.Value() +
		n.As.MACRx.Port.Accesses.Value()

	s.sdramUseful = n.SDRAM.UsefulBytes.Value()
	s.sdramConsumed = n.SDRAM.ConsumedBytes.Value()
	s.sdramWasted = n.SDRAM.WastedBytes.Value()
	s.sdramBusy = n.SDRAM.Busy.Busy.Value()
	s.sdramTotal = n.SDRAM.Busy.Total.Value()

	s.imemBusy = n.IMem.PortBusy.Busy.Value()
	s.imemTotal = n.IMem.PortBusy.Total.Value()

	for i := range s.events {
		s.events[i] = n.FW.Events[i].Value()
	}
	return s
}

// FuncRow is one per-function attribution row, normalized per frame.
//
//nic:hashstable 5ea8021b63b7
type FuncRow struct {
	Name         string  `json:"name"`
	CyclesPerFrm float64 `json:"cycles_per_frame"`
	InstrPerFrm  float64 `json:"instr_per_frame"`
	MemPerFrm    float64 `json:"mem_per_frame"`
}

// Report is everything the experiments read out of one run.
//
//nic:hashstable f8af417402b8
type Report struct {
	Cfg     Config  `json:"cfg"`
	UDPSize int     `json:"udp_size"`
	Seconds float64 `json:"seconds"`

	// Throughput (per direction and total), UDP payload.
	TxGbps    float64 `json:"tx_gbps"`
	RxGbps    float64 `json:"rx_gbps"`
	TotalGbps float64 `json:"total_gbps"`
	TxFPS     float64 `json:"tx_fps"`
	RxFPS     float64 `json:"rx_fps"`
	// LineRate is the Ethernet-limited full-duplex payload throughput for
	// this datagram size.
	LineRate     float64 `json:"line_rate_gbps"`
	LineFraction float64 `json:"line_fraction"`

	// Correctness.
	TxOutOfOrder uint64 `json:"tx_out_of_order"`
	RxOutOfOrder uint64 `json:"rx_out_of_order"`
	RxDrops      uint64 `json:"rx_drops"`
	RxCorrupt    uint64 `json:"rx_corrupt"`

	// Per-core computation breakdown (Table 3), fractions of one
	// instruction slot per cycle per core.
	IPC           float64 `json:"ipc"`
	FracIMiss     float64 `json:"frac_imiss"`
	FracLoad      float64 `json:"frac_load"`
	FracConflict  float64 `json:"frac_conflict"`
	FracPipeline  float64 `json:"frac_pipeline"`
	FracIdlePoll  float64 `json:"frac_idle_poll"` // cycles burned in unproductive poll passes
	SpinLoadsPerF float64 `json:"spin_loads_per_frame"`

	// Memory system (Table 4), Gb/s.
	ScratchGbps      float64 `json:"scratch_gbps"`
	ScratchCoreGbps  float64 `json:"scratch_core_gbps"`
	ScratchAssistAcc float64 `json:"scratch_assist_macc"` // assist accesses per second (millions)
	FrameMemGbps     float64 `json:"frame_mem_gbps"`      // consumed, incl. alignment waste
	FrameUsefulGbps  float64 `json:"frame_useful_gbps"`
	SDRAMUtilization float64 `json:"sdram_utilization"`
	IMemUtilization  float64 `json:"imem_utilization"`

	// Per-function attribution: send rows normalized by transmitted frames,
	// receive rows by delivered frames (Tables 5 and 6).
	Send FuncBreakdown `json:"send"`
	Recv FuncBreakdown `json:"recv"`

	Events [10]uint64 `json:"events"`

	// Run invariants and fault injection. All three fields are omitted on
	// clean fault-free runs, keeping those reports byte-identical to builds
	// without the fault subsystem.
	InvariantViolations uint64       `json:"invariant_violations,omitempty"`
	InvariantDetail     []string     `json:"invariant_detail,omitempty"`
	Faults              *FaultReport `json:"faults,omitempty"`

	// Latency holds per-frame lifecycle latency percentiles and per-stage
	// residency, present only when observation was enabled (EnableObs) —
	// reports from unobserved runs stay byte-identical to older builds.
	Latency *obs.LatencyReport `json:"latency,omitempty"`

	// Traffic and SLO are the adversarial-traffic and service-level-objective
	// sections, present only when AttachTraffic / AttachSLO armed them —
	// baseline reports stay byte-identical to older builds.
	Traffic *TrafficReport `json:"traffic,omitempty"`
	SLO     *SLOReport     `json:"slo,omitempty"`

	// RSS summarizes multi-queue receive behaviour, present only when the
	// controller was built with more than one receive queue — single-ring
	// reports stay byte-identical to pre-RSS builds.
	RSS *RSSReport `json:"rss,omitempty"`
}

// RSSReport is the multi-queue receive section: how the RSS stage spread
// frames across queues and what each queue delivered.
//
//nic:hashstable 35690cd4c122
type RSSReport struct {
	Queues   int    `json:"queues"`
	Steering string `json:"steering"`

	// QueueSkew is max/mean delivered frames per queue over the measurement
	// window: 1.0 is a perfect spread, N means one queue took everything.
	QueueSkew float64 `json:"queue_skew"`

	// CrossReorder counts cross-queue delivery inversions against global
	// arrival order. Nonzero is expected under RSS — per-queue (not global)
	// in-order delivery is the invariant multi-queue receive preserves.
	CrossReorder uint64 `json:"cross_reorder"`

	PerQueue []RSSQueue `json:"per_queue"`
}

// RSSQueue is one receive queue's measurement-window totals.
//
//nic:hashstable 2fd0751a8fef
type RSSQueue struct {
	// Steered counts frames the RSS stage admitted and directed here;
	// Frames counts those the host driver actually took off the ring.
	Steered      uint64  `json:"steered"`
	Frames       uint64  `json:"frames"`
	FramesPerSec float64 `json:"fps"`
	Drops        uint64  `json:"drops"`
	OutOfOrder   uint64  `json:"out_of_order"`
}

// FuncBreakdown is one direction's per-frame rows.
//
//nic:hashstable 9eda4586d3db
type FuncBreakdown struct {
	FetchBD   FuncRow `json:"fetch_bd"`
	Frame     FuncRow `json:"frame"`
	DispOrder FuncRow `json:"disp_order"`
	Locking   FuncRow `json:"locking"`
	Total     FuncRow `json:"total"`
}

func sub(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func (n *NIC) report(end snapshot) Report {
	base := n.baseline
	secs := n.measured.Seconds()
	r := Report{Cfg: n.Cfg, Seconds: secs}
	if n.txGen != nil {
		r.UDPSize = n.txGen.UDPSize
	}
	if secs == 0 {
		// Interrupted before any measurement: an empty (but finite) report.
		return r
	}

	txFrames := end.txFrames - base.txFrames
	rxFrames := end.rxFrames - base.rxFrames
	r.TxGbps = float64(end.txUDPBytes-base.txUDPBytes) * 8 / secs / 1e9
	r.RxGbps = float64(end.rxUDPBytes-base.rxUDPBytes) * 8 / secs / 1e9
	r.TotalGbps = r.TxGbps + r.RxGbps
	r.TxFPS = float64(txFrames) / secs
	r.RxFPS = float64(rxFrames) / secs
	r.LineRate = 2 * ethernet.PayloadThroughputGbps(r.UDPSize)
	if r.Cfg.JumboFrames {
		r.LineRate = 2 * ethernet.JumboPayloadThroughputGbps(r.UDPSize)
	}
	if r.LineRate > 0 {
		r.LineFraction = r.TotalGbps / r.LineRate
	}
	r.TxOutOfOrder = end.txOOO - base.txOOO
	r.RxOutOfOrder = end.rxOOO - base.rxOOO
	r.RxDrops = end.rxDrops - base.rxDrops
	r.RxCorrupt = end.rxCorrupt - base.rxCorrupt

	// Core aggregate.
	var agg cpu.Stats
	for i := range n.Cores {
		d := end.cores[i]
		b := base.cores[i]
		agg.Add(cpu.Stats{
			Cycles:         d.Cycles - b.Cycles,
			Instructions:   d.Instructions - b.Instructions,
			IMissStalls:    d.IMissStalls - b.IMissStalls,
			LoadStalls:     d.LoadStalls - b.LoadStalls,
			ConflictStalls: d.ConflictStalls - b.ConflictStalls,
			PipelineStalls: d.PipelineStalls - b.PipelineStalls,
			SpinLoads:      d.SpinLoads - b.SpinLoads,
		})
	}
	cy := float64(agg.Cycles)
	if cy > 0 {
		r.IPC = float64(agg.Instructions) / cy
		r.FracIMiss = float64(agg.IMissStalls) / cy
		r.FracLoad = float64(agg.LoadStalls) / cy
		r.FracConflict = float64(agg.ConflictStalls) / cy
		r.FracPipeline = float64(agg.PipelineStalls) / cy
	}
	if txFrames+rxFrames > 0 {
		r.SpinLoadsPerF = float64(agg.SpinLoads) / float64(txFrames+rxFrames)
	}

	// Bucket sums across cores.
	sumBucket := func(mat [][]uint64, baseMat [][]uint64, bucket int) float64 {
		var t uint64
		for i := range mat {
			t += mat[i][bucket] - baseMat[i][bucket]
		}
		return float64(t)
	}
	idleCy := sumBucket(end.funcCycles, base.funcCycles, firmware.AcctIdle)
	if cy > 0 {
		r.FracIdlePoll = idleCy / cy
	}

	row := func(name string, bucket int, frames float64) FuncRow {
		if frames == 0 {
			return FuncRow{Name: name}
		}
		return FuncRow{
			Name:         name,
			CyclesPerFrm: sumBucket(end.funcCycles, base.funcCycles, bucket) / frames,
			InstrPerFrm:  sumBucket(end.funcInstr, base.funcInstr, bucket) / frames,
			MemPerFrm:    sumBucket(end.funcMem, base.funcMem, bucket) / frames,
		}
	}
	lockRow := func(name string, buckets []int, frames float64) FuncRow {
		if frames == 0 {
			return FuncRow{Name: name}
		}
		var fr FuncRow
		fr.Name = name
		for _, b := range buckets {
			fr.CyclesPerFrm += sumBucket(end.funcLockCy, base.funcLockCy, b) / frames
			fr.InstrPerFrm += sumBucket(end.funcLockIn, base.funcLockIn, b) / frames
		}
		return fr
	}
	mkDir := func(fetchB, frameB, orderB int, frames float64) FuncBreakdown {
		d := FuncBreakdown{
			FetchBD:   row("Fetch BD", fetchB, frames),
			Frame:     row("Frame", frameB, frames),
			DispOrder: row("Dispatch and Ordering", orderB, frames),
			Locking:   lockRow("Locking", []int{fetchB, frameB, orderB}, frames),
		}
		// Locking is reported as its own row, so remove it from the rows it
		// was attributed within (the paper's Table 5/6 structure).
		lk := func(b int) (cyc, ins float64) {
			return sumBucket(end.funcLockCy, base.funcLockCy, b) / frames,
				sumBucket(end.funcLockIn, base.funcLockIn, b) / frames
		}
		if frames > 0 {
			for _, p := range []struct {
				r *FuncRow
				b int
			}{{&d.FetchBD, fetchB}, {&d.Frame, frameB}, {&d.DispOrder, orderB}} {
				c, i := lk(p.b)
				p.r.CyclesPerFrm -= c
				p.r.InstrPerFrm -= i
			}
		}
		d.Total = FuncRow{
			Name:         "Total",
			CyclesPerFrm: d.FetchBD.CyclesPerFrm + d.Frame.CyclesPerFrm + d.DispOrder.CyclesPerFrm + d.Locking.CyclesPerFrm,
			InstrPerFrm:  d.FetchBD.InstrPerFrm + d.Frame.InstrPerFrm + d.DispOrder.InstrPerFrm + d.Locking.InstrPerFrm,
			MemPerFrm:    d.FetchBD.MemPerFrm + d.Frame.MemPerFrm + d.DispOrder.MemPerFrm,
		}
		return d
	}
	r.Send = mkDir(firmware.AcctFetchSendBD, firmware.AcctSendFrame, firmware.AcctSendOrder, float64(txFrames))
	r.Recv = mkDir(firmware.AcctFetchRecvBD, firmware.AcctRecvFrame, firmware.AcctRecvOrder, float64(rxFrames))

	// Memory system.
	spAcc := float64(end.spReads - base.spReads + end.spWrites - base.spWrites)
	r.ScratchGbps = spAcc * 4 * 8 / secs / 1e9
	assistAcc := float64(end.assistAccesses - base.assistAccesses)
	r.ScratchCoreGbps = (spAcc - assistAcc) * 4 * 8 / secs / 1e9
	r.ScratchAssistAcc = assistAcc / secs / 1e6
	r.FrameMemGbps = float64(end.sdramConsumed-base.sdramConsumed) * 8 / secs / 1e9
	r.FrameUsefulGbps = float64(end.sdramUseful-base.sdramUseful) * 8 / secs / 1e9
	if t := end.sdramTotal - base.sdramTotal; t > 0 {
		r.SDRAMUtilization = float64(end.sdramBusy-base.sdramBusy) / float64(t)
	}
	if t := end.imemTotal - base.imemTotal; t > 0 {
		r.IMemUtilization = float64(end.imemBusy-base.imemBusy) / float64(t)
	}
	for i := range r.Events {
		r.Events[i] = end.events[i] - base.events[i]
	}
	if n.checker != nil {
		r.InvariantViolations = n.checker.violations
		r.InvariantDetail = n.checker.detail
	}
	r.Faults = n.faultReport()
	r.Latency = n.obs.LatencyReport()
	if n.traffic != nil {
		r.Traffic = &TrafficReport{
			Class:          n.traffic.Class,
			Arrival:        n.traffic.Arrival,
			Seed:           n.traffic.Seed,
			Offered:        end.advOffered - base.advOffered,
			HostileOffered: end.advHostile - base.advHostile,
			RuntDrops:      end.runtDrops - base.runtDrops,
			OversizeDrops:  end.oversizeDrops - base.oversizeDrops,
			BadCRCDrops:    end.badCRCDrops - base.badCRCDrops,
			FilteredDrops:  end.filteredDrops - base.filteredDrops,
			CritOffered:    end.advCrit - base.advCrit,
			CritDelivered:  end.critDelivered - base.critDelivered,
		}
	}
	if n.slo != nil {
		// Drop fraction counts buffer-exhaustion drops against all frames that
		// survived admission; malformed-frame rejects never count against it.
		accepted := end.macRxFrames - base.macRxFrames
		drops := end.rxDrops - base.rxDrops
		var dropFrac float64
		if accepted+drops > 0 {
			dropFrac = float64(drops) / float64(accepted+drops)
		}
		r.SLO = evaluateSLO(*n.slo, &r, dropFrac)
	}
	if nq := n.Host.RxQueues(); nq > 1 {
		rss := &RSSReport{Queues: nq, Steering: n.As.MACRx.Steer.Name(), CrossReorder: end.crossReord - base.crossReord}
		var total, max uint64
		for q := 0; q < nq; q++ {
			deliv := end.queueDeliv[q] - base.queueDeliv[q]
			total += deliv
			if deliv > max {
				max = deliv
			}
			rss.PerQueue = append(rss.PerQueue, RSSQueue{
				Steered:      end.queueSteered[q] - base.queueSteered[q],
				Frames:       deliv,
				FramesPerSec: float64(deliv) / secs,
				Drops:        end.queueDrops[q] - base.queueDrops[q],
				OutOfOrder:   end.queueOOO[q] - base.queueOOO[q],
			})
		}
		if total > 0 {
			rss.QueueSkew = float64(max) * float64(nq) / float64(total)
		}
		r.RSS = rss
	}
	return r
}

// String renders a human-readable report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d cores @ %.0f MHz, %d banks, %v, %v, UDP %d B\n",
		r.Cfg.Cores, r.Cfg.CPUMHz, r.Cfg.ScratchpadBanks, r.Cfg.Ordering, r.Cfg.Parallelism, r.UDPSize)
	fmt.Fprintf(&b, "throughput: tx %.2f + rx %.2f = %.2f Gb/s (%.1f%% of %.2f Gb/s duplex limit)\n",
		r.TxGbps, r.RxGbps, r.TotalGbps, 100*r.LineFraction, r.LineRate)
	fmt.Fprintf(&b, "frame rate: tx %.0f + rx %.0f fps; ooo tx/rx %d/%d, drops %d, corrupt %d\n",
		r.TxFPS, r.RxFPS, r.TxOutOfOrder, r.RxOutOfOrder, r.RxDrops, r.RxCorrupt)
	fmt.Fprintf(&b, "per-core IPC %.3f (imiss %.3f, load %.3f, conflict %.3f, pipeline %.3f, idle-poll %.3f)\n",
		r.IPC, r.FracIMiss, r.FracLoad, r.FracConflict, r.FracPipeline, r.FracIdlePoll)
	fmt.Fprintf(&b, "scratchpad %.2f Gb/s (assists %.1f M acc/s), frame memory %.2f Gb/s consumed (%.2f useful), sdram util %.2f, imem util %.3f\n",
		r.ScratchGbps, r.ScratchAssistAcc, r.FrameMemGbps, r.FrameUsefulGbps, r.SDRAMUtilization, r.IMemUtilization)
	dir := func(name string, d FuncBreakdown) {
		fmt.Fprintf(&b, "%s per frame:\n", name)
		for _, fr := range []FuncRow{d.FetchBD, d.Frame, d.DispOrder, d.Locking, d.Total} {
			fmt.Fprintf(&b, "  %-24s %8.1f cycles %8.1f instr %7.1f mem\n",
				fr.Name, fr.CyclesPerFrm, fr.InstrPerFrm, fr.MemPerFrm)
		}
	}
	dir("send", r.Send)
	dir("receive", r.Recv)
	if f := r.Faults; f != nil {
		fmt.Fprintf(&b, "faults: plan %q seed %d\n", f.Plan, f.Seed)
		fmt.Fprintf(&b, "  injected: rx corrupt/drop %d/%d (crc/wire drops %d/%d), dma loss/dup %d/%d, bank-stall cycles %d, core stuck/slow %d/%d, starve %d (%d host ticks), mailbox lost %d\n",
			f.Injected.RxCorrupt, f.Injected.RxDrop, f.CRCDrops, f.WireDrops,
			f.Injected.DMALoss, f.Injected.DMADup, f.Injected.BankStall,
			f.Injected.CoreStuck, f.Injected.CoreSlow,
			f.Injected.RingStarve, f.StarvedTicks, f.MailboxLost)
		fmt.Fprintf(&b, "  recovery: dma retried %d recovered %d dup-suppressed %d outstanding %d; takeovers %d (retries %d, %d streams rescued, %d flag repairs)\n",
			f.DMARetried, f.DMARecovered, f.DMADupSuppressed, f.OutstandingDMAs,
			f.Takeovers, f.Injected.TakeoverRetry, f.StreamsRescued, f.FlagRepairs)
	}
	if l := r.Latency; l != nil {
		lat := func(name string, d obs.DirLatency) {
			fmt.Fprintf(&b, "%s latency: %d frames, p50 %.2f p90 %.2f p99 %.2f max %.2f µs\n",
				name, d.Frames, d.P50Us, d.P90Us, d.P99Us, d.MaxUs)
			for _, st := range d.Stages {
				fmt.Fprintf(&b, "  %-28s %6d frames, mean %7.3f max %7.3f µs\n",
					st.Name, st.Frames, st.MeanUs, st.MaxUs)
			}
		}
		lat("send", l.Send)
		lat("receive", l.Recv)
	}
	if t := r.Traffic; t != nil {
		arr := t.Arrival
		if arr == "" {
			arr = "saturate"
		}
		fmt.Fprintf(&b, "traffic: class %s, arrival %s, seed %d: offered %d (hostile %d), rejected runt/oversize/crc/filtered %d/%d/%d/%d\n",
			t.Class, arr, t.Seed, t.Offered, t.HostileOffered,
			t.RuntDrops, t.OversizeDrops, t.BadCRCDrops, t.FilteredDrops)
		if t.CritOffered > 0 {
			fmt.Fprintf(&b, "  critical frames: %d offered, %d delivered\n", t.CritOffered, t.CritDelivered)
		}
	}
	if rss := r.RSS; rss != nil {
		fmt.Fprintf(&b, "rss: %d queues, steering %s, skew %.3f, cross-queue reorder %d\n",
			rss.Queues, rss.Steering, rss.QueueSkew, rss.CrossReorder)
		for q, pq := range rss.PerQueue {
			fmt.Fprintf(&b, "  queue %d: steered %d, delivered %d (%.0f fps), drops %d, out-of-order %d\n",
				q, pq.Steered, pq.Frames, pq.FramesPerSec, pq.Drops, pq.OutOfOrder)
		}
	}
	if s := r.SLO; s != nil {
		fmt.Fprintf(&b, "slo: %d violation(s)\n", s.Violations)
		for _, c := range s.Checks {
			status := "ok"
			if !c.Pass {
				status = "VIOLATED"
			}
			fmt.Fprintf(&b, "  %-14s bound %10.3f got %10.3f  %s\n", c.Name, c.Bound, c.Got, status)
		}
	}
	if r.InvariantViolations > 0 {
		fmt.Fprintf(&b, "INVARIANT VIOLATIONS: %d\n", r.InvariantViolations)
		for _, d := range r.InvariantDetail {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	} else if r.Faults != nil {
		fmt.Fprintf(&b, "invariants: all checks passed\n")
	}
	return b.String()
}
