package firmware

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// recoveryTimeout is how long a DMA completion may be outstanding before the
// firmware's recovery scan re-issues the transfer. At line rate a transfer can
// legitimately sit tens of microseconds in the assist queue behind other
// frames, so the timeout must clear worst-case queueing with margin: a
// premature retry duplicates a healthy DMA, and the duplicated traffic deepens
// the very congestion that delayed the original, collapsing throughput. The
// in-flight ordering window is large enough that a genuinely lost completion
// stalls only its own frame chain until the retry fires.
const recoveryTimeout = 100 * sim.Microsecond

// dmaToken tracks one DMA whose completion notification the firmware expects.
// A lost completion leaves the token pending past the timeout; the recovery
// scan then re-issues the transfer. A duplicated completion is absorbed by the
// token's done flag.
type dmaToken struct {
	r      *recovery
	issued sim.Picoseconds
	done   bool
	tries  int
	job    dmaJob
	fire   func()
	onDone func() // complete, bound once
}

// recovery is the firmware's completion-timeout state, armed only when a
// fault plan is attached to the run.
type recovery struct {
	now     func() sim.Picoseconds
	pending []*dmaToken
	// free holds retired tokens for reuse (see RecoveryScan).
	free []*dmaToken

	// Retried counts re-issued DMAs, Recovered the retries whose completion
	// eventually arrived, DupSuppressed the duplicate notifications absorbed.
	Retried       uint64
	Recovered     uint64
	DupSuppressed uint64
}

// ArmRecovery enables completion timeout/retry tracking; now reads the
// engine's simulated time. Without this call every expect() is a free
// pass-through and the firmware behaves exactly as before.
func (fw *Firmware) ArmRecovery(now func() sim.Picoseconds) {
	fw.rec = &recovery{now: now}
}

// RecoveryCounters returns (retried, recovered, duplicates suppressed);
// all zero when recovery is not armed.
func (fw *Firmware) RecoveryCounters() (retried, recovered, dups uint64) {
	if fw.rec == nil {
		return 0, 0, 0
	}
	return fw.rec.Retried, fw.rec.Recovered, fw.rec.DupSuppressed
}

// OutstandingDMAs reports pending (incomplete) recovery tokens.
func (fw *Firmware) OutstandingDMAs() int {
	if fw.rec == nil {
		return 0
	}
	n := 0
	for _, tok := range fw.rec.pending {
		if !tok.done {
			n++
		}
	}
	return n
}

// expect wraps a DMA completion callback with loss/duplication protection.
// When recovery is not armed it returns fire unchanged — the fault machinery
// costs nothing on fault-free runs. When armed, the returned callback fires
// at most once, and the recovery scan re-issues the transfer (via job) if
// no completion arrives within the timeout.
func (fw *Firmware) expect(job dmaJob, fire func()) func() {
	r := fw.rec
	if r == nil {
		return fire
	}
	tok := take(&r.free)
	if tok == nil {
		tok = &dmaToken{r: r}
		tok.onDone = tok.complete
	}
	tok.issued, tok.done, tok.tries, tok.job, tok.fire = r.now(), false, 0, job, fire
	r.pending = append(r.pending, tok)
	return tok.onDone
}

// complete is the token's dedup'd completion callback.
func (tok *dmaToken) complete() {
	r := tok.r
	if tok.done {
		r.DupSuppressed++
		return
	}
	tok.done = true
	if tok.tries > 0 {
		r.Recovered++
	}
	tok.fire()
}

// RecoveryScan runs one timeout pass: tokens pending longer than the timeout
// are re-issued. Completed tokens are retired from the list. The injector
// pumps this on the fault event domain every couple of microseconds.
//
// A retired token that was never re-issued is recycled: its one transfer
// has completed, and a duplicate notification arrives in the same instant
// as the first, so no callback can reach it again. A re-issued token is left
// to the collector, since its slow original or another retry may still
// complete.
func (fw *Firmware) RecoveryScan() {
	r := fw.rec
	if r == nil {
		return
	}
	now := r.now()
	kept := r.pending[:0]
	for _, tok := range r.pending {
		if tok.done {
			if tok.tries == 0 {
				tok.job, tok.fire = nil, nil
				r.free = append(r.free, tok)
			}
			continue
		}
		if now-tok.issued >= recoveryTimeout {
			tok.tries++
			tok.issued = now
			r.Retried++
			tok.job.issue(tok.onDone)
		}
		kept = append(kept, tok)
	}
	for i := len(kept); i < len(r.pending); i++ {
		r.pending[i] = nil
	}
	r.pending = kept
}

// TakeOver rescues a preempted core's work: the remainder stream the core
// surrendered plus its queued continuations move to the shared orphan queue,
// which every healthy core drains ahead of new claims. It then repairs the
// ordering state in case the preemption interrupted a flag operation whose
// bookkeeping diverged from the bit arrays.
func (fw *Firmware) TakeOver(coreID int, preempted *cpu.Stream) {
	fw.Takeovers++
	if preempted != nil {
		fw.orphans.Push(preempted)
		fw.Rescued++
	}
	q := &fw.cont[coreID]
	fw.Rescued += uint64(q.Len())
	for q.Len() > 0 {
		fw.orphans.Push(q.Pop())
	}
	fw.repairFlags()
}

// repairFlags resynchronizes the ordering bookkeeping with the status-flag
// arrays: the set counters must equal commit head plus the bits currently
// set, and each array's scan head must sit at the commit point. Preemption
// preserves flag consistency by construction (flag sets fire through the
// crossbar even on a stuck core, and Preempt runs or re-issues interrupted
// OnComplete exactly once), so repairs are normally zero; this is the
// belt-and-suspenders pass that restores the invariant if that ever breaks.
func (fw *Firmware) repairFlags() {
	fix := func(ba *mem.BitArray, set *uint64, head uint64, bits int) {
		n := 0
		for i := 0; i < bits; i++ {
			if ba.IsSet(i) {
				n++
			}
		}
		if want := head + uint64(n); *set != want {
			*set = want
			fw.FlagRepairs++
		}
		if ba.Head() != int(head%uint64(bits)) {
			ba.Seek(int(head % uint64(bits)))
			fw.FlagRepairs++
		}
	}
	fix(fw.sendFlags, &fw.sendSet, fw.sendCommitHead, FlagBits)
	for _, rq := range fw.rxq {
		fix(rq.flags, &rq.set, rq.commitHead, rq.flagBits)
	}
}

// AuditSend checks send-direction frame conservation: every frame the BD
// fetch admitted is in exactly one pipeline stage or already committed.
func (fw *Firmware) AuditSend() error {
	inFlight := uint64(fw.prepQ.Len()+fw.claimedSend+fw.dmaOutSend+fw.sendDMADone.Len()+fw.ordPendSend) +
		(fw.sendSet - fw.sendCommitHead)
	if got := fw.sendSeq - fw.sendCommitHead; got != inFlight {
		return fmt.Errorf("send conservation: seq-head=%d but stages sum to %d (prepQ=%d claimed=%d dmaOut=%d dmaDone=%d ordPend=%d set-head=%d)",
			got, inFlight, fw.prepQ.Len(), fw.claimedSend, fw.dmaOutSend, fw.sendDMADone.Len(), fw.ordPendSend, fw.sendSet-fw.sendCommitHead)
	}
	return nil
}

// AuditRecv checks receive-direction frame conservation across every queue:
// each arrived frame is in exactly one queue's pipeline stage or committed.
func (fw *Firmware) AuditRecv() error {
	var arrived, dmaDone, setMinusHead, committed uint64
	for _, rq := range fw.rxq {
		arrived += uint64(rq.arrivedQ.Len())
		dmaDone += uint64(rq.dmaDone.Len())
		setMinusHead += rq.set - rq.commitHead
		committed += rq.commitHead
	}
	inFlight := arrived + uint64(fw.claimedRecv+fw.dmaOutRecv) + dmaDone + uint64(fw.ordPendRecv) + setMinusHead
	if got := fw.recvSeq - committed; got != inFlight {
		return fmt.Errorf("recv conservation: seq-heads=%d but stages sum to %d (arrived=%d claimed=%d dmaOut=%d dmaDone=%d ordPend=%d set-head=%d)",
			got, inFlight, arrived, fw.claimedRecv, fw.dmaOutRecv, dmaDone, fw.ordPendRecv, setMinusHead)
	}
	return nil
}

// PendingWork reports frames and events still flowing through the firmware;
// zero means the pipelines are drained. The watchdog uses it to distinguish
// a quiet machine from a livelocked one.
func (fw *Firmware) PendingWork() int {
	var recvCommitted uint64
	recvDone := 0
	for _, rq := range fw.rxq {
		recvCommitted += rq.commitHead
		recvDone += rq.doneQ.Len()
	}
	return int(fw.sendSeq-fw.sendCommitHead) + int(fw.recvSeq-recvCommitted) +
		fw.txDoneQ.Len() + recvDone + fw.orphans.Len()
}

// ProgressSignature summarizes pipeline advance for the forward-progress
// watchdog: if two consecutive checks see the same signature while
// PendingWork is nonzero, the machine is livelocked. Retry and takeover
// counters are included so active recovery counts as progress.
func (fw *Firmware) ProgressSignature() [8]uint64 {
	var retried uint64
	if fw.rec != nil {
		retried = fw.rec.Retried
	}
	var recvCommitted, recvSet uint64
	for _, rq := range fw.rxq {
		recvCommitted += rq.commitHead
		recvSet += rq.set
	}
	return [8]uint64{
		fw.sendSeq, fw.recvSeq,
		fw.sendCommitHead, recvCommitted,
		fw.sendSet, recvSet,
		retried, fw.Takeovers,
	}
}

// RecvSeq returns the number of frames the MAC has handed to firmware.
func (fw *Firmware) RecvSeq() uint64 { return fw.recvSeq }

// SendSeq returns the number of frames admitted by send-BD fetches.
func (fw *Firmware) SendSeq() uint64 { return fw.sendSeq }

// SabotageLeak deliberately corrupts the firmware by dropping one frame from
// an intake queue without any bookkeeping: the frame's ring entry and audit
// accounting are left dangling. Used only to prove the invariant checker
// detects frame leaks; never called in normal operation.
func (fw *Firmware) SabotageLeak(send bool) {
	if send {
		if fw.prepQ.Len() > 0 {
			fw.prepQ.Pop()
		}
	} else {
		for _, rq := range fw.rxq {
			if rq.arrivedQ.Len() > 0 {
				rq.arrivedQ.Pop()
				return
			}
		}
	}
}

// SabotageSwap deliberately swaps two adjacent occupied ring slots past the
// commit head so the next commits deliver frames out of order. Used only to
// prove the invariant checker detects ordering violations.
func (fw *Firmware) SabotageSwap(send bool) {
	if send {
		for i := uint64(0); i+1 < FlagBits; i++ {
			a := (fw.sendCommitHead + i) % FlagBits
			b := (fw.sendCommitHead + i + 1) % FlagBits
			if fw.sendRing[a] != nil && fw.sendRing[b] != nil {
				fw.sendRing[a], fw.sendRing[b] = fw.sendRing[b], fw.sendRing[a]
				return
			}
		}
	} else {
		for _, rq := range fw.rxq {
			bits := uint64(rq.flagBits)
			for i := uint64(0); i+1 < bits; i++ {
				a := (rq.commitHead + i) % bits
				b := (rq.commitHead + i + 1) % bits
				if rq.ring[a] != nil && rq.ring[b] != nil {
					rq.ring[a], rq.ring[b] = rq.ring[b], rq.ring[a]
					return
				}
			}
		}
	}
}
