// nicsim runs one NIC configuration and prints its report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// flags is nicsim's command line.
type flags struct {
	cores, banks, udp, rxqueues, traceSample int
	mhz, warmup, measure                     float64
	rmw, taskpar, payload, jsonOut, latency  bool
	faults, traffic, slo, steering, trace    string
}

// bindFlags registers nicsim's flags on fs.
func bindFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.IntVar(&f.cores, "cores", 6, "number of processing cores")
	fs.Float64Var(&f.mhz, "mhz", 200, "core and scratchpad frequency in MHz")
	fs.IntVar(&f.banks, "banks", 4, "scratchpad banks")
	fs.IntVar(&f.udp, "udp", 1472, "UDP datagram size in bytes")
	fs.BoolVar(&f.rmw, "rmw", false, "use the RMW-enhanced (set/update) firmware")
	fs.BoolVar(&f.taskpar, "taskparallel", false, "use the task-parallel (event register) baseline firmware")
	fs.Float64Var(&f.warmup, "warmup", 200, "warmup time in microseconds")
	fs.Float64Var(&f.measure, "measure", 500, "measurement time in microseconds")
	fs.BoolVar(&f.payload, "payload", false, "carry and verify real frame bytes")
	fs.StringVar(&f.faults, "faults", "", `fault plan: "ref" for the reference plan, compact syntax ("seed=1;rx_drop@250us*4,..."), or @file.json`)
	fs.StringVar(&f.traffic, "traffic", "", `adversarial traffic "class[,arrival][,seed=N][,flows=N]", e.g. "badcrc", "mcast,burst", "mixed,pareto,seed=7", "uniform,flows=64" (classes: uniform, jumbo, runt, oversize, badcrc, mcast, mixed, priority; arrivals: saturate, burst, pareto, sync); jumbo builds a jumbo-capable controller`)
	fs.StringVar(&f.slo, "slo", "", `latency/drop objective "recv_p99_us=40,send_p99_us=40,max_drop_frac=0.01"; empty values gate only survival (ordering, invariants, progress)`)
	fs.IntVar(&f.rxqueues, "rxqueues", 1, "RSS receive queues (power of two; 1 = the single-ring controller)")
	fs.StringVar(&f.steering, "steering", "", `RSS steering policy: "hash" (default), "rr", "flow"`)
	fs.BoolVar(&f.jsonOut, "json", false, "emit the report as JSON instead of text")
	fs.StringVar(&f.trace, "trace", "", "write a Chrome trace_event file (load in Perfetto or chrome://tracing)")
	fs.BoolVar(&f.latency, "latency", false, "enable frame-lifecycle observation and report latency percentiles")
	fs.IntVar(&f.traceSample, "trace-sample", 1, "record every Nth frame's lifecycle instants in the trace")
	return f
}

// spec maps the flags onto the sweep spec of the run and its build options,
// so nicsim assembles its NIC exactly as a sweep job with the same spec.
func (f *flags) spec() (sweep.Spec, experiments.Options, error) {
	if f.cores <= 0 || f.mhz <= 0 || f.banks <= 0 {
		return sweep.Spec{}, experiments.Options{}, errors.New("invalid configuration: -cores, -mhz and -banks must be positive")
	}
	s := sweep.Spec{
		Kind:        sweep.KindNIC,
		Cores:       f.cores,
		MHz:         f.mhz,
		Banks:       f.banks,
		Ordering:    experiments.OrderingSoftware,
		Parallelism: experiments.ParFrame,
		UDPSize:     f.udp,
		Steering:    f.steering,
		WarmupPs:    uint64(sim.Picoseconds(f.warmup) * sim.Microsecond),
		MeasurePs:   uint64(sim.Picoseconds(f.measure) * sim.Microsecond),
	}
	if f.rmw {
		s.Ordering = experiments.OrderingRMW
	}
	if f.taskpar {
		s.Parallelism = experiments.ParTask
	}
	// One queue is the single-ring controller, the zero value, as in SpecFor.
	if f.rxqueues != 1 {
		s.RxQueues = f.rxqueues
	}
	if f.traffic != "" {
		ts, err := workload.ParseTraffic(f.traffic)
		if err != nil {
			return sweep.Spec{}, experiments.Options{}, fmt.Errorf("bad traffic spec: %w", err)
		}
		s.Traffic = &ts
	}
	if f.slo != "" {
		slo, err := core.ParseSLO(f.slo)
		if err != nil {
			return sweep.Spec{}, experiments.Options{}, fmt.Errorf("bad SLO: %w", err)
		}
		s.SLO = &slo
	}
	var plan faults.Plan
	if f.faults == "ref" {
		// The reference plan starts after warmup so recovery behavior is
		// measured against a settled pipeline.
		plan = faults.Reference(sim.Picoseconds(s.WarmupPs))
	} else if f.faults != "" {
		var err error
		if plan, err = faults.ParsePlan(f.faults); err != nil {
			return sweep.Spec{}, experiments.Options{}, fmt.Errorf("bad fault plan: %w", err)
		}
	}
	if !plan.Empty() {
		s.Faults = &plan
	}
	o := experiments.Options{Payload: f.payload}
	if f.trace != "" || f.latency {
		o.Obs = &obs.Config{FrameSample: f.traceSample}
	}
	return s, o, nil
}

func main() {
	f := bindFlags(flag.CommandLine)
	flag.Parse()
	s, o, err := f.spec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nicsim: %v\n", err)
		os.Exit(2)
	}
	n, err := experiments.Build(s, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nicsim: %v\n", err)
		os.Exit(2)
	}
	budget := experiments.BudgetOf(s)
	rep := n.Run(budget.Warmup, budget.Measure)
	if f.trace != "" {
		rec := n.EnableObs(*o.Obs) // returns the recorder Build attached
		out, err := os.Create(f.trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nicsim: %v\n", err)
			os.Exit(1)
		}
		err = rec.WriteChromeTrace(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nicsim: write trace: %v\n", err)
			os.Exit(1)
		}
		total, dropped := rec.EventsRecorded()
		fmt.Fprintf(os.Stderr, "nicsim: wrote %s (%d events recorded, %d beyond ring capacity)\n", f.trace, total, dropped)
	}
	if f.jsonOut {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "nicsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	} else {
		fmt.Print(rep.String())
	}
	if rep.TxOutOfOrder+rep.RxOutOfOrder > 0 {
		fmt.Fprintln(os.Stderr, "ERROR: ordering violated")
		os.Exit(1)
	}
	if rep.InvariantViolations > 0 {
		fmt.Fprintln(os.Stderr, "ERROR: run invariants violated")
		os.Exit(1)
	}
	if rep.SLO != nil && rep.SLO.Violations > 0 {
		fmt.Fprintf(os.Stderr, "ERROR: %d SLO violation(s)\n", rep.SLO.Violations)
		os.Exit(1)
	}
}
