package main

import (
	"runtime"
	"strings"
	"time"

	"repro/internal/assist"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/firmware"
	"repro/internal/host"
)

// jobTrace counts the calls through one simulation's function-valued seams.
// A simulation runs on one goroutine, so its jobTrace needs no lock.
type jobTrace struct {
	nextCalls uint64 // cpu.Core.NextWork polls
	streams   uint64 // polls that returned work other than an idle poll pass
	ops       uint64 // operations in those streams
	nextNs    int64

	srcCalls uint64 // host.Host.Source and assist.MACRx.Source Next calls
	srcNs    int64

	txSeen uint64 // frames through firmware.Firmware.OnTransmit
}

// wrapSeams installs timing and counting wrappers on the NIC's public seams.
// Each wrapper calls through to the original, so the simulation is unchanged;
// the non-perturbation check proves it by comparing report digests.
func wrapSeams(n *core.NIC) *jobTrace {
	t := &jobTrace{}
	for _, c := range n.Cores {
		next := c.NextWork
		c.NextWork = func() *cpu.Stream {
			t0 := time.Now()
			s := next()
			t.nextNs += int64(time.Since(t0))
			t.nextCalls++
			if s != nil {
				t.ops += uint64(len(s.Ops))
				if len(s.Ops) > 0 && s.AcctID != firmware.AcctIdle {
					t.streams++
				}
			}
			return s
		}
	}
	if n.Host.Source != nil {
		n.Host.Source = &sendSource{in: n.Host.Source, t: t}
	}
	if n.As.MACRx.Source != nil {
		n.As.MACRx.Source = &netSource{in: n.As.MACRx.Source, t: t}
	}
	onTx := n.FW.OnTransmit
	n.FW.OnTransmit = func(f *host.Frame) {
		t.txSeen++
		onTx(f)
	}
	return t
}

type sendSource struct {
	in host.SendSource
	t  *jobTrace
}

func (s *sendSource) Next() *host.Frame {
	t0 := time.Now()
	f := s.in.Next()
	s.t.srcNs += int64(time.Since(t0))
	s.t.srcCalls++
	return f
}

type netSource struct {
	in assist.NetworkSource
	t  *jobTrace
}

func (s *netSource) Next() (int, any, bool) {
	t0 := time.Now()
	size, h, ok := s.in.Next()
	s.t.srcNs += int64(time.Since(t0))
	s.t.srcCalls++
	return size, h, ok
}

func (t *jobTrace) add(o *jobTrace) {
	t.nextCalls += o.nextCalls
	t.streams += o.streams
	t.ops += o.ops
	t.nextNs += o.nextNs
	t.srcCalls += o.srcCalls
	t.srcNs += o.srcNs
	t.txSeen += o.txSeen
}

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "repro/internal/"

// funcPackage returns the import path of a fully qualified Go function name,
// e.g. "repro/internal/cpu" for "repro/internal/cpu.(*Core).Tick".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf maps a package import path to the layer name the metrics use: the
// simulator package's last element, or "" outside the simulator.
func layerOf(pkg string) string {
	if !strings.HasPrefix(pkg, modulePrefix) {
		return ""
	}
	rest := strings.TrimPrefix(pkg, modulePrefix)
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// allocSites snapshots the process's allocation profile (MemProfileRate must
// be 1 for exact counts): allocated objects per stack.
func allocSites() map[[32]uintptr]int64 {
	runtime.GC() // publish every allocation made so far
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// allocsByLayer attributes the allocations made between two snapshots to the
// innermost simulator frame of each allocating stack; stacks with no
// simulator frame count under "".
func allocsByLayer(before, after map[[32]uintptr]int64) map[string]int64 {
	out := map[string]int64{}
	for stk, n := range after {
		d := n - before[stk]
		if d <= 0 {
			continue
		}
		layer := ""
		pcs := stk[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		frames := runtime.CallersFrames(pcs)
		for {
			fr, more := frames.Next()
			if l := layerOf(funcPackage(fr.Function)); l != "" {
				layer = l
				break
			}
			if !more {
				break
			}
		}
		out[layer] += d
	}
	return out
}
