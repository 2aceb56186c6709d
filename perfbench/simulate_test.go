package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestSimulateMatchesExperiments pins the benchmark's simulate, plain and
// traced, byte-identical to experiments.Simulate on one job of each kind the
// workloads run, with the windows cut short.
func TestSimulateMatchesExperiments(t *testing.T) {
	short := func(j sweep.Job) sweep.Job {
		j.Spec.WarmupPs = uint64(60 * sim.Microsecond)
		j.Spec.MeasurePs = uint64(60 * sim.Microsecond)
		return j
	}
	pick := map[string]bool{"gate/c6-f150-task": true, "robustness/mixed-pareto-faulted": true, "rss/q4-mixed-pareto": true}
	var jobs []sweep.Job
	for _, j := range gateJobs(1) {
		if pick[j.ID] {
			jobs = append(jobs, short(j))
		}
	}
	jobs = append(jobs, short(hostileJobs(7)[0]), short(workloads[0].jobs(1)[0]))
	if len(jobs) != len(pick)+2 {
		t.Fatalf("found %d of the picked jobs", len(jobs)-2)
	}
	ctx := context.Background()
	for _, j := range jobs {
		out, err := experiments.Simulate(ctx, j)
		if err != nil {
			t.Fatalf("%s: experiments.Simulate: %v", j.ID, err)
		}
		want, _ := json.Marshal(out.Report)
		for _, traced := range []bool{false, true} {
			f, err := simulate(ctx, j.ID, j.Spec, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", j.ID, traced, err)
			}
			got, _ := json.Marshal(f.rep)
			if !bytes.Equal(got, want) {
				t.Errorf("%s (traced %v): report differs from experiments.Simulate", j.ID, traced)
			}
			if traced && (f.trace.nextCalls == 0 || f.trace.srcCalls == 0 || len(f.costs) == 0) {
				t.Errorf("%s: traced run recorded nothing: %+v", j.ID, *f.trace)
			}
		}
	}
}

// TestCheckResultFlagsFailures feeds checkResult a report with each failure
// the benchmark must catch.
func TestCheckResultFlagsFailures(t *testing.T) {
	j := gateJobs(1)[0]
	out, err := experiments.Simulate(context.Background(), sweep.Job{ID: j.ID, Spec: func() sweep.Spec {
		s := j.Spec
		s.WarmupPs, s.MeasurePs = uint64(20*sim.Microsecond), uint64(40*sim.Microsecond)
		return s
	}()})
	if err != nil {
		t.Fatal(err)
	}
	ok := sweep.Result{ID: j.ID, Report: out.Report}
	if bad := checkResult(ok); len(bad) != 0 {
		t.Fatalf("clean run flagged: %v", bad)
	}
	rep := *out.Report
	rep.RxOutOfOrder = 2
	rep.InvariantViolations = 1
	bad := checkResult(sweep.Result{ID: j.ID, Report: &rep})
	if len(bad) != 2 || !strings.Contains(bad[0], "invariant") || !strings.Contains(bad[1], "out-of-order") {
		t.Errorf("checkResult = %v, want the invariant and ordering failures", bad)
	}
	if bad := checkResult(sweep.Result{ID: j.ID, Err: "panic: boom\nstack"}); len(bad) != 1 || bad[0] != "job error: panic: boom" {
		t.Errorf("checkResult of a failed job = %v", bad)
	}
}
