package assist

import "repro/internal/mem"

// DMARead is the assist that moves data from the host into the NIC: buffer
// descriptor batches into the scratchpad, and frame contents into the SDRAM
// transmit buffer.
//
// Register Tick in the CPU clock domain (before the crossbar); SDRAM
// transfers are enqueued to the SDRAM model, which runs in its own domain.
// All job phases have order-preserving latency (fixed host delay, FIFO SDRAM
// port), so jobs of one kind complete in issue order and the progress-pointer
// writes behave as the paper's hardware-maintained pointer.
type DMARead struct{ engine }

// NewDMARead creates the engine. depth bounds overlapped jobs (the paper's
// two-frame buffering). progressAddr is the scratchpad word firmware polls
// for completions.
func NewDMARead(port *ScratchPort, sdram *mem.SDRAM, sdramPort int, host Host, progressAddr uint32, depth int) *DMARead {
	d := &DMARead{newEngine("dma-read", depth, port, sdram, sdramPort, host, progressAddr)}
	d.bind()
	return d
}

// FetchBDs fetches a descriptor batch from host memory into the scratchpad:
// one host round-trip, then words scratchpad writes, then the progress
// pointer update.
func (d *DMARead) FetchBDs(words int, spBase uint32, onDone func()) {
	d.enqueue(job{kind: fetchBDs, addr: spBase, n: words, onDone: onDone})
}

// FetchFrame fetches one frame's contents from two discontiguous host
// regions (header and payload) into a contiguous SDRAM transmit buffer. The
// payload transfer starts at bufAddr+hdrLen, typically misaligned — the
// bandwidth waste the paper charges to the frame memory.
func (d *DMARead) FetchFrame(bufAddr uint32, hdrLen, payLen int, onDone func()) {
	d.enqueue(job{kind: fetchFrame, addr: bufAddr, n: hdrLen, pay: payLen, onDone: onDone})
}

// DMAWrite is the assist that moves data from the NIC to the host: received
// frame contents from the SDRAM receive buffer into preallocated host
// buffers, and completion descriptors from the scratchpad into the host
// descriptor ring.
type DMAWrite struct{ engine }

// NewDMAWrite creates the engine.
func NewDMAWrite(port *ScratchPort, sdram *mem.SDRAM, sdramPort int, host Host, progressAddr uint32, depth int) *DMAWrite {
	w := &DMAWrite{newEngine("dma-write", depth, port, sdram, sdramPort, host, progressAddr)}
	w.bind()
	return w
}

// WriteFrame moves one received frame from the SDRAM receive buffer to the
// host: SDRAM read burst, then the host round-trip.
func (w *DMAWrite) WriteFrame(bufAddr uint32, length int, onDone func()) {
	w.enqueue(job{kind: writeFrame, addr: bufAddr, n: length, onDone: onDone})
}

// WriteDescriptor DMAs one completion descriptor (descWords scratchpad
// words) to the host descriptor ring.
func (w *DMAWrite) WriteDescriptor(spBase uint32, descWords int, onDone func()) {
	w.enqueue(job{kind: writeDesc, addr: spBase, n: descWords, onDone: onDone})
}
