package assist

import (
	"repro/internal/mem"
	"repro/internal/obs"
)

// DMARead is the assist that moves data from the host into the NIC: buffer
// descriptor batches into the scratchpad, and frame contents into the SDRAM
// transmit buffer.
//
// Register Tick in the CPU clock domain (before the crossbar); SDRAM
// transfers are enqueued to the SDRAM model, which runs in its own domain.
// All job phases have order-preserving latency (fixed host delay, FIFO SDRAM
// port), so jobs complete in issue order and the progress-pointer writes
// behave as the paper's hardware-maintained pointer.
type DMARead struct {
	Port      *ScratchPort
	sdram     *mem.SDRAM
	sdramPort int
	host      Host
	eng       *engine

	// ProgressAddr is the scratchpad word firmware polls for completions.
	ProgressAddr uint32
}

// NewDMARead creates the engine. depth bounds overlapped jobs (the paper's
// two-frame buffering).
func NewDMARead(port *ScratchPort, sdram *mem.SDRAM, sdramPort int, host Host, progressAddr uint32, depth int) *DMARead {
	return &DMARead{
		Port: port, sdram: sdram, sdramPort: sdramPort, host: host,
		ProgressAddr: progressAddr, eng: newEngine("dma-read", depth),
	}
}

// QueueLen reports outstanding jobs.
func (d *DMARead) QueueLen() int { return d.eng.QueueLen() }

// SetCompletionFault installs the completion-fault hook (see engine); nil
// clears it.
func (d *DMARead) SetCompletionFault(f func() (drop, dup bool)) { d.eng.faultCompletion = f }

// SetObs routes the engine's in-flight job counter to a trace track.
func (d *DMARead) SetObs(r *obs.Recorder, track int32) { d.eng.obs, d.eng.obsTrack = r, track }

// FetchBDs fetches a descriptor batch from host memory into the scratchpad:
// one host round-trip, then words scratchpad writes, then the progress
// pointer update.
func (d *DMARead) FetchBDs(words int, spBase uint32, onDone func()) {
	d.eng.enqueue(job{
		run: func(done func()) {
			d.host.Delay(func() {
				d.writeWords(spBase, words, func() {
					d.complete(done)
				})
			})
		},
		onDone: onDone,
	})
}

// FetchFrame fetches one frame's contents from two discontiguous host
// regions (header and payload) into a contiguous SDRAM transmit buffer. The
// payload transfer starts at bufAddr+hdrLen, typically misaligned — the
// bandwidth waste the paper charges to the frame memory.
func (d *DMARead) FetchFrame(bufAddr uint32, hdrLen, payLen int, onDone func()) {
	d.eng.enqueue(job{
		run: func(done func()) {
			d.host.Delay(func() {
				d.sdram.Enqueue(d.sdramPort, mem.Transfer{
					Addr: bufAddr, Len: hdrLen, Write: true,
					OnDone: func() {
						d.sdram.Enqueue(d.sdramPort, mem.Transfer{
							Addr: bufAddr + uint32(hdrLen), Len: payLen, Write: true,
							OnDone: func() { d.complete(done) },
						})
					},
				})
			})
		},
		onDone: onDone,
	})
}

// writeWords streams a descriptor batch into the scratchpad, one word per
// cycle through the crossbar port.
func (d *DMARead) writeWords(base uint32, words int, done func()) {
	for i := 0; i < words; i++ {
		addr := base + uint32(i)*4
		if i == words-1 {
			d.Port.Write(addr, done)
		} else {
			d.Port.Write(addr, nil)
		}
	}
	if words == 0 {
		done()
	}
}

// complete publishes progress (one scratchpad write) and finishes the job.
func (d *DMARead) complete(done func()) { d.Port.Write(d.ProgressAddr, done) }

// Tick starts queued jobs and pumps the scratchpad port.
func (d *DMARead) Tick(cycle uint64) {
	d.eng.tick()
	d.Port.Tick(cycle)
}

// DMAWrite is the assist that moves data from the NIC to the host: received
// frame contents from the SDRAM receive buffer into preallocated host
// buffers, and completion descriptors from the scratchpad into the host
// descriptor ring.
type DMAWrite struct {
	Port      *ScratchPort
	sdram     *mem.SDRAM
	sdramPort int
	host      Host
	eng       *engine

	ProgressAddr uint32
}

// NewDMAWrite creates the engine.
func NewDMAWrite(port *ScratchPort, sdram *mem.SDRAM, sdramPort int, host Host, progressAddr uint32, depth int) *DMAWrite {
	return &DMAWrite{
		Port: port, sdram: sdram, sdramPort: sdramPort, host: host,
		ProgressAddr: progressAddr, eng: newEngine("dma-write", depth),
	}
}

// QueueLen reports outstanding jobs.
func (w *DMAWrite) QueueLen() int { return w.eng.QueueLen() }

// SetCompletionFault installs the completion-fault hook (see engine); nil
// clears it.
func (w *DMAWrite) SetCompletionFault(f func() (drop, dup bool)) { w.eng.faultCompletion = f }

// SetObs routes the engine's in-flight job counter to a trace track.
func (w *DMAWrite) SetObs(r *obs.Recorder, track int32) { w.eng.obs, w.eng.obsTrack = r, track }

// WriteFrame moves one received frame from the SDRAM receive buffer to the
// host: SDRAM read burst, then the host round-trip.
func (w *DMAWrite) WriteFrame(bufAddr uint32, length int, onDone func()) {
	w.eng.enqueue(job{
		run: func(done func()) {
			w.sdram.Enqueue(w.sdramPort, mem.Transfer{
				Addr: bufAddr, Len: length,
				OnDone: func() {
					w.host.Delay(func() { w.complete(done) })
				},
			})
		},
		onDone: onDone,
	})
}

// WriteDescriptor DMAs one completion descriptor (descWords scratchpad
// words) to the host descriptor ring.
func (w *DMAWrite) WriteDescriptor(spBase uint32, descWords int, onDone func()) {
	w.eng.enqueue(job{
		run: func(done func()) {
			remaining := descWords
			if remaining == 0 {
				w.host.Delay(func() { w.complete(done) })
				return
			}
			for i := 0; i < descWords; i++ {
				addr := spBase + uint32(i)*4
				w.Port.Read(addr, func() {
					remaining--
					if remaining == 0 {
						w.host.Delay(func() { w.complete(done) })
					}
				})
			}
		},
		onDone: onDone,
	})
}

// complete publishes progress (one scratchpad write) and finishes the job.
func (w *DMAWrite) complete(done func()) { w.Port.Write(w.ProgressAddr, done) }

// Tick starts queued jobs and pumps the scratchpad port.
func (w *DMAWrite) Tick(cycle uint64) {
	w.eng.tick()
	w.Port.Tick(cycle)
}
