package core

import "fmt"

// invariantChecker is the always-on run validator: it rides the host clock
// domain on every NIC.Run — including fault-free experiments — and verifies
// that the machine's externally observable behavior stays correct:
//
//   - Frame conservation, per direction: every frame the hardware admitted is
//     in exactly one pipeline stage or has been delivered (firmware audit
//     identities), and the MAC/firmware boundary counts agree.
//   - Strict in-order delivery: the transmit sink's and host's out-of-order
//     counters never increase.
//   - Forward progress: if the firmware holds pending work, its progress
//     signature must change between consecutive checks (retries and
//     takeovers count as progress, so legitimate fault recovery is not a
//     livelock).
//
// The checks read functional state only; they perturb no timing, so a
// fault-free run's report stays byte-identical with the checker on.
type invariantChecker struct {
	n *NIC

	lastSig    [8]uint64
	stalled    bool
	lastTxOOO  uint64
	lastRxOOO  uint64
	violations uint64
	detail     []string
	seen       map[string]bool
}

// checkMask gates the periodic check to every 2^14 host cycles (~123 µs at
// 133 MHz): frequent enough to catch livelock within a run, cheap enough to
// be always on.
const checkMask = 1<<14 - 1

func newInvariantChecker(n *NIC) *invariantChecker {
	return &invariantChecker{n: n, seen: make(map[string]bool)}
}

// Tick implements sim.Ticker in the host domain.
func (c *invariantChecker) Tick(cycle uint64) {
	if cycle&checkMask != 0 {
		return
	}
	c.check(true)
}

// violate records one violation; identical messages are recorded once in the
// detail list but each occurrence counts.
func (c *invariantChecker) violate(format string, args ...any) {
	c.violations++
	msg := fmt.Sprintf(format, args...)
	if !c.seen[msg] && len(c.detail) < 16 {
		c.seen[msg] = true
		c.detail = append(c.detail, msg)
	}
}

// check runs every invariant; watchdog additionally arms the forward-progress
// comparison (skipped for the final audit, where a quiet machine is normal).
func (c *invariantChecker) check(watchdog bool) {
	n := c.n
	if err := n.FW.AuditSend(); err != nil {
		c.violate("%v", err)
	}
	if err := n.FW.AuditRecv(); err != nil {
		c.violate("%v", err)
	}
	// MAC/firmware boundary: every frame the MAC accepted is either still in
	// its staging buffer or was handed to firmware.
	if rx, fwSeq, staged := n.As.MACRx.RxFrames.Value(), n.FW.RecvSeq(), uint64(n.As.MACRx.Staged()); rx != fwSeq+staged {
		c.violate("MAC boundary: rx accepted %d but firmware saw %d with %d staged", rx, fwSeq, staged)
	}
	// Transmit boundary: every committed frame is on the wire path or out.
	if n.TxSink != nil {
		if tc, out, backlog := n.FW.TxCommitted.Value(), n.TxSink.Frames.Value(), uint64(n.As.MACTx.Backlog()); tc != out+backlog {
			c.violate("TX boundary: committed %d but transmitted %d with %d backlogged", tc, out, backlog)
		}
		if ooo := n.TxSink.OutOfOrder.Value(); ooo > c.lastTxOOO {
			c.violate("in-order violation: tx out-of-order count rose to %d", ooo)
			c.lastTxOOO = ooo
		}
	}
	if ooo := n.Host.RecvOutOfOrd.Value(); ooo > c.lastRxOOO {
		c.violate("in-order violation: rx out-of-order count rose to %d", ooo)
		c.lastRxOOO = ooo
	}
	if !watchdog {
		return
	}
	sig := n.FW.ProgressSignature()
	if sig == c.lastSig && n.FW.PendingWork() > 0 {
		if !c.stalled {
			// Two consecutive quiet checks with work pending: livelock.
			c.stalled = true
		} else {
			c.violate("forward-progress violation: %d work items pending with no progress across consecutive checks", n.FW.PendingWork())
		}
	} else {
		c.stalled = false
	}
	c.lastSig = sig
}
