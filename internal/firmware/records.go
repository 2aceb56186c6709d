package firmware

import (
	"repro/internal/host"
	"repro/internal/obs"
)

// Frame and event records. Every per-frame and per-event completion the
// firmware hands to a core or an assist is a method value bound once, when
// its record is first allocated. Records return to per-Firmware free lists
// when their last completion has run, so a warm run claims events and moves
// frames without allocating. A sweep runs NICs concurrently, so no list is
// shared between firmware instances; each grows lazily to its run's peak.

// sendFrame is one send frame's firmware record, from its descriptor fetch
// to its transmit completion; recycled through Firmware.sendFree.
type sendFrame struct {
	fw   *Firmware
	f    *host.Frame
	idx  uint64
	buf  uint32
	slot int

	fetched func() // frame-fetch DMA completion: fetchDone
	flagSet func() // ordering-set completion: setFlag
}

// recvFrame is one received frame's firmware record, from its arrival in
// the SDRAM receive buffer to its slot's release; recycled through
// Firmware.recvFree.
type recvFrame struct {
	fw   *Firmware
	f    *host.Frame
	idx  uint64 // global arrival index (observation, descriptor addressing)
	q    int    // RSS queue the MAC steered the frame to
	qidx uint64 // per-queue index (status flag and ring position)
	buf  uint32
	slot int
	size int

	written func() // descriptor-write DMA completion: descWritten
	flagSet func() // ordering-set completion: setFlag
}

// event is one claimed event's deferred work: the frames the claim took,
// and the effect the event's stream applies at its final op (apply). A
// descriptor fetch's effect programs a DMA; the fetch's completion
// (fetched) then admits the descriptors. Events are recycled through
// Firmware.eventFree once their effect has run.
type event struct {
	fw   *Firmware
	kind evType
	rq   *rxQueue // receive-side events
	send []*sendFrame
	recv []*recvFrame
	n    int    // descriptors a fetch takes; frames a software commit scan clears
	base uint32 // scratchpad base a descriptor fetch lands at

	apply   func() // run, bound once
	fetched func() // fetchDone, bound once
}

// take pops a recycled record, or returns nil when the free list is empty.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	r := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return r
}

// dmaJob is a record whose DMA the firmware can program, and reprogram when
// recovery re-issues a transfer whose completion went missing.
type dmaJob interface {
	issue(onDone func())
}

func (fw *Firmware) newSendFrame(f *host.Frame) *sendFrame {
	fr := take(&fw.sendFree)
	if fr == nil {
		fr = &sendFrame{fw: fw}
		fr.fetched = fr.fetchDone
		fr.flagSet = fr.setFlag
	}
	fr.f, fr.idx = f, fw.sendSeq
	fw.sendSeq++
	return fr
}

func (fw *Firmware) freeSendFrame(fr *sendFrame) {
	fr.f = nil
	fw.sendFree = append(fw.sendFree, fr)
}

// issue programs the frame's fetch from host memory into its transmit
// buffer slot.
func (fr *sendFrame) issue(onDone func()) {
	fr.fw.as.DMARead.FetchFrame(fr.buf, host.HeaderBytes, fr.f.Size-host.HeaderBytes, onDone)
}

// fetchDone completes the frame fetch: the frame awaits its ordering set.
func (fr *sendFrame) fetchDone() {
	fw := fr.fw
	fw.dmaOutSend--
	fw.sendDMADone.Push(fr)
	fw.Obs.FrameStage(obs.Send, obs.SendDMADone, fr.idx)
}

// setFlag marks the frame ready in the send status-flag array.
func (fr *sendFrame) setFlag() {
	fw := fr.fw
	fw.sendFlags.Set(int(fr.idx % FlagBits))
	fw.sendSet++
	fw.ordPendSend--
	fw.Obs.FrameStage(obs.Send, obs.SendFlagSet, fr.idx)
}

func (fw *Firmware) newRecvFrame() *recvFrame {
	fr := take(&fw.recvFree)
	if fr == nil {
		fr = &recvFrame{fw: fw}
		fr.written = fr.descWritten
		fr.flagSet = fr.setFlag
	}
	return fr
}

func (fw *Firmware) freeRecvFrame(fr *recvFrame) {
	fr.f = nil
	fw.recvFree = append(fw.recvFree, fr)
}

// issue programs the frame's completion-descriptor write to the host.
func (fr *recvFrame) issue(onDone func()) {
	fr.fw.as.DMAWrite.WriteDescriptor(RegionRecvDesc+desc(fr.idx, DescDMA), RecvBDWords, onDone)
}

// descWritten completes the descriptor write: the frame awaits its
// ordering set.
func (fr *recvFrame) descWritten() {
	fw := fr.fw
	fw.dmaOutRecv--
	fw.rxq[fr.q].dmaDone.Push(fr)
	fw.Obs.FrameStage(obs.Recv, obs.RecvDMADone, fr.idx)
}

// setFlag marks the frame ready in its queue's status-flag subarray.
func (fr *recvFrame) setFlag() {
	fw := fr.fw
	rq := fw.rxq[fr.q]
	rq.flags.Set(int(fr.qidx % uint64(rq.flagBits)))
	rq.set++
	fw.ordPendRecv--
	fw.Obs.FrameStage(obs.Recv, obs.RecvFlagSet, fr.idx)
}

// newEvent starts a record for one claimed event of the given kind.
func (fw *Firmware) newEvent(kind evType, rq *rxQueue) *event {
	ev := take(&fw.eventFree)
	if ev == nil {
		ev = &event{fw: fw}
		ev.apply = ev.run
		ev.fetched = ev.fetchDone
	}
	ev.kind, ev.rq = kind, rq
	return ev
}

func (fw *Firmware) freeEvent(ev *event) {
	clear(ev.send)
	clear(ev.recv)
	ev.send, ev.recv, ev.rq = ev.send[:0], ev.recv[:0], nil
	fw.eventFree = append(fw.eventFree, ev)
}

// run applies the event's effect at its stream's final op.
func (ev *event) run() {
	fw := ev.fw
	switch ev.kind {
	case evFetchSendBD, evFetchRecvBD:
		// The record lives on until the fetch completes.
		ev.issue(fw.expect(ev, ev.fetched))
		return
	case evSendPrep:
		fw.txReserved -= len(ev.send)
		fw.claimedSend -= len(ev.send)
		for _, fr := range ev.send {
			addr, slot, ok := fw.txRing.alloc()
			if !ok {
				panic("firmware: tx ring underflow despite reservation")
			}
			fr.buf, fr.slot = addr, slot
			fw.dmaOutSend++
			fr.issue(fw.expect(fr, fr.fetched))
			fw.Obs.FrameStage(obs.Send, obs.SendDMAStart, fr.idx)
		}
	case evSendCommit, evRecvCommit:
		fw.commit(ev.rq, ev.n)
	case evSendComplete:
		for _, fr := range ev.send {
			fw.txRing.release(fr.slot)
			fw.Obs.FrameStage(obs.Send, obs.SendNotified, fr.idx)
		}
		fw.hst.CompleteSend(len(ev.send))
		for _, fr := range ev.send {
			fw.freeSendFrame(fr)
		}
	case evRecvPrep:
		fw.claimedRecv -= len(ev.recv)
		for _, fr := range ev.recv {
			fw.dmaOutRecv++
			fw.as.DMAWrite.WriteFrame(fr.buf, fr.size, nil)
			fr.issue(fw.expect(fr, fr.written))
			fw.Obs.FrameStage(obs.Recv, obs.RecvDMAStart, fr.idx)
		}
	case evRecvComplete:
		for _, fr := range ev.recv {
			fw.rxRing.release(fr.slot)
			fw.freeRecvFrame(fr)
		}
	}
	fw.freeEvent(ev)
}

// issue programs a descriptor fetch's DMA.
func (ev *event) issue(onDone func()) {
	words := ev.n * SendBDWords
	if ev.kind == evFetchRecvBD {
		words = ev.n * RecvBDWords
	}
	ev.fw.as.DMARead.FetchBDs(words, ev.base, onDone)
}

// fetchDone completes a descriptor fetch: send descriptors become frame
// records awaiting preparation, receive descriptors become buffer credit.
func (ev *event) fetchDone() {
	fw := ev.fw
	if ev.kind == evFetchSendBD {
		bds := fw.hst.TakeSendBDs(ev.n)
		for i := 0; i+1 < len(bds); i += 2 {
			fr := fw.newSendFrame(bds[i].Frame)
			fw.sendRing[fr.idx%FlagBits] = fr
			fw.prepQ.Push(fr)
			fw.Obs.FrameStage(obs.Send, obs.SendBDFetched, fr.idx)
		}
		fw.bdFetchOut--
	} else {
		rq := ev.rq
		rq.bdCredit += fw.hst.TakeRecvBDs(rq.q, ev.n)
		rq.bdFetchOut--
	}
	fw.freeEvent(ev)
}
