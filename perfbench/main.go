// Command perfbench is the repository's benchmark: it measures the NIC
// simulator end to end and layer by layer on three named workloads. See
// README.md in this directory for the workloads, the metrics and how to run
// it; run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload line-1472 --seed 1 --seconds 20 --trace 0
//
// Every repetition is a fresh process (the orchestrator re-executes this
// binary with -child), because the firmware's process-global hazard memo
// makes in-process reruns faster than the cold run a user waits for.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: line-1472, hostile-rss or gate-sweep")
	seed := flag.Int64("seed", 1, "workload seed (drives hostile-rss's traffic stream and fault plan)")
	seconds := flag.Float64("seconds", 20, "how long to keep starting fresh-process repetitions")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	child := flag.String("child", "", "run one invocation in this process and report it as JSON: plain, traced or allocs")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	if *child != "" {
		return runChild(ctx, w, *seed, *child)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	o := &orchestrator{w: w, seed: *seed}
	if *trace == 1 {
		return o.traced(ctx)
	}
	return o.untraced(ctx, time.Duration(*seconds*float64(time.Second)))
}

// runTimeout bounds one benchmark command, children included.
const runTimeout = 170 * time.Second
