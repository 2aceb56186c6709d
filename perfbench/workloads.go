package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// workload is one named benchmark input: the simulation jobs one invocation
// runs, and how it runs them.
type workload struct {
	name string
	why  string

	// jobs builds the invocation's simulations from the benchmark seed.
	jobs func(seed int64) []sweep.Job

	// baselines, when set, makes the workload the CI loop: the jobs go
	// through sweep.Runner and the results are gated against this file.
	// Otherwise each job runs directly in the process, like one nicsim run.
	baselines string

	// gcPercent, when non-zero, is the GC target the invocation sets, as the
	// tool it stands for does (nicbench sets 400; nicsim keeps the default).
	gcPercent int

	// paperJob names the job whose report is scored against the paper's
	// default-point values (paper_rel_err).
	paperJob string
}

// lineBudget is line-1472's window: the quick warmup plus a measure window
// long enough that one cold process spends most of its time in the datapath.
var lineBudget = experiments.Budget{Warmup: 800 * sim.Microsecond, Measure: 3000 * sim.Microsecond}

// hostileBudget is hostile-rss's window. The mixed-pareto objective and the
// robustness matrix's fault plan were calibrated on the quick budget; the
// measure window is longer so one process does more work.
var hostileBudget = experiments.Budget{Warmup: 800 * sim.Microsecond, Measure: 1500 * sim.Microsecond}

// hostileFlows and hostileQueues shape the RSS build of hostile-rss.
const (
	hostileFlows  = 64
	hostileQueues = 8
)

var workloads = []workload{
	{
		name: "line-1472",
		why: "one cold default-point run of full-duplex 1472-byte UDP at line rate: " +
			"the datapath at its busiest, where the cpu domain and op-stream building dominate",
		jobs: func(int64) []sweep.Job {
			// The uniform stream has no seed yet (sweep.Spec.Seed is
			// reserved), so the benchmark seed changes nothing here.
			return []sweep.Job{{ID: "line-1472", Spec: experiments.SpecFor(core.DefaultConfig(), 1472, lineBudget)}}
		},
		paperJob: "line-1472",
	},
	{
		name: "hostile-rss",
		why: "the same datapath used differently: 8 flow-steered RSS queues under the mixed-pareto " +
			"hostile stream with a core-stuck fault, an armed SLO and half the frames dropped",
		jobs:     hostileJobs,
		paperJob: "hostile-rss",
	},
	{
		name: "gate-sweep",
		why: "the CI loop: the 35-job gate+robustness+rss -check set at the quick budget in one " +
			"process, warm hazard memo, many configurations, compared against baselines/gate.json",
		jobs:      gateJobs,
		baselines: "baselines/gate.json",
		gcPercent: 400,
		paperJob:  "gate/default",
	},
}

// hostileJobs is the robustness matrix's mixed-pareto point on an 8-queue
// flow-steered build with 64 flows, its SLO and its core-stuck fault plan.
// The benchmark seed drives both the traffic stream and the fault plan.
func hostileJobs(seed int64) []sweep.Job {
	var pt *experiments.MatrixPoint
	for _, p := range experiments.TrafficMatrix() {
		if p.Name == "mixed-pareto" {
			pt = &p
		}
	}
	if pt == nil {
		panic("perfbench: robustness matrix has no mixed-pareto point")
	}
	cfg := core.DefaultConfig()
	cfg.RxQueues = hostileQueues
	cfg.Steering = "flow"
	spec := experiments.SpecFor(cfg, pt.UDPSize, hostileBudget)
	ts := pt.Traffic
	ts.Seed = seed
	ts.Flows = hostileFlows
	spec.Traffic = &ts
	slo := pt.SLO
	spec.SLO = &slo
	plan := pt.Plan(hostileBudget.Warmup)
	plan.Seed = seed
	spec.Faults = &plan
	return []sweep.Job{{ID: "hostile-rss", Spec: spec}}
}

// gateJobs is nicbench's default -check set at the quick budget. Its
// streams have no seed yet, so the benchmark seed changes nothing here.
func gateJobs(int64) []sweep.Job {
	var jobs []sweep.Job
	for _, key := range []string{"gate", "robustness", "rss"} {
		s, ok := experiments.SuiteByKey(key)
		if !ok {
			panic(fmt.Sprintf("perfbench: no %q suite", key))
		}
		jobs = append(jobs, s.Jobs(experiments.Quick)...)
	}
	return jobs
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
