package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// simFacts is what the benchmark reads from one finished simulation besides
// its report: exact simulated counts, and host time around the public calls.
type simFacts struct {
	id       string
	rep      core.Report
	steps    uint64
	simPs    uint64 // simulated time advanced
	frames   uint64 // frames transmitted plus frames the MAC accepted
	instr    uint64
	cycles   uint64
	newDur   time.Duration // core.New and Attach*
	runStart time.Time     // NIC.Run begins: the first engine step
	runDur   time.Duration // NIC.Run
	costs    []sim.DomainCost
	trace    *jobTrace
}

// simulate runs one job spec through the public core API. It builds and
// runs the NIC exactly as experiments.Simulate does (a test pins the two
// byte-identical), but keeps the NIC in hand so the benchmark can read the
// engine and MAC counters and, in a traced pass, wrap the seams.
func simulate(ctx context.Context, id string, s sweep.Spec, traced bool) (*simFacts, error) {
	cfg, err := experiments.ConfigFor(s)
	if err != nil {
		return nil, err
	}
	b := experiments.BudgetOf(s)
	t0 := time.Now()
	n := core.New(cfg)
	if s.Traffic != nil {
		err = n.AttachTraffic(s.UDPSize, *s.Traffic, false)
	} else {
		n.AttachWorkload(s.UDPSize, false)
	}
	if err == nil && s.Faults != nil {
		err = n.AttachFaults(*s.Faults)
	}
	if err == nil && s.SLO != nil {
		err = n.AttachSLO(*s.SLO)
	}
	if err != nil {
		return nil, err
	}
	f := &simFacts{id: id, newDur: time.Since(t0)}
	if traced {
		f.trace = wrapSeams(n)
		n.Engine.ProfileTicks(true)
	}
	stop := context.AfterFunc(ctx, n.Engine.Stop)
	defer stop()
	f.runStart = time.Now()
	f.rep = n.Run(b.Warmup, b.Measure)
	f.runDur = time.Since(f.runStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.steps = n.Engine.Steps()
	f.simPs = uint64(n.Engine.Now())
	f.frames = n.TxSink.Frames.Value() + n.As.MACRx.RxFrames.Value()
	for _, c := range n.Cores {
		f.instr += c.Stats.Instructions
		f.cycles += c.Stats.Cycles
	}
	if traced {
		f.costs = n.Engine.TickCosts()
		if seen, sent := f.trace.txSeen, n.TxSink.Frames.Value(); seen != sent {
			return nil, fmt.Errorf("perfbench: %s: OnTransmit wrapper saw %d frames, sink counted %d", id, seen, sent)
		}
	}
	return f, nil
}

// collector gathers the simFacts of every simulation an invocation runs.
// Sweep workers call run concurrently.
type collector struct {
	traced bool

	mu    sync.Mutex
	facts map[string]*simFacts // by spec hash
}

func newCollector(traced bool) *collector {
	return &collector{traced: traced, facts: map[string]*simFacts{}}
}

// run is the sweep.RunFunc the benchmark executes jobs with.
func (c *collector) run(ctx context.Context, j sweep.Job) (sweep.Outcome, error) {
	f, err := simulate(ctx, j.ID, j.Spec, c.traced)
	if err != nil {
		return sweep.Outcome{}, err
	}
	c.mu.Lock()
	c.facts[j.Spec.Hash()] = f
	c.mu.Unlock()
	return sweep.Outcome{Report: &f.rep, TickCosts: f.costs}, nil
}

// all returns the collected facts in job-ID order.
func (c *collector) all() []*simFacts {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*simFacts, 0, len(c.facts))
	for _, f := range c.facts {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
