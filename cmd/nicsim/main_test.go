package main

import (
	"flag"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// specOf parses a nicsim command line into its spec and build options.
func specOf(t *testing.T, args ...string) (sweep.Spec, experiments.Options) {
	t.Helper()
	fs := flag.NewFlagSet("nicsim", flag.ContinueOnError)
	f := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s, o, err := f.spec()
	if err != nil {
		t.Fatal(err)
	}
	return s, o
}

// TestFlagsMapToGateSpecs ties nicsim to the sweep: at the quick budget its
// default and RMW command lines are exactly the gate's specs, so nicsim
// simulates what the gate checks.
func TestFlagsMapToGateSpecs(t *testing.T) {
	gate := map[string]sweep.Spec{}
	for _, j := range experiments.GateJobs(experiments.Quick) {
		gate[j.ID] = j.Spec
	}
	for _, tc := range []struct {
		id   string
		args []string
	}{
		{"gate/default", []string{"-warmup", "800", "-measure", "500"}},
		{"gate/rmw", []string{"-warmup", "800", "-measure", "500", "-mhz", "166", "-rmw"}},
	} {
		s, o := specOf(t, tc.args...)
		if got, want := s.Hash(), gate[tc.id].Hash(); got != want {
			t.Errorf("%v: spec %+v hashes %s, want %s's %s", tc.args, s, got, tc.id, want)
		}
		if o != (experiments.Options{}) {
			t.Errorf("%v: options = %+v, want none", tc.args, o)
		}
	}
}

// TestJumboTrafficBuildsJumboController: -traffic jumbo alone yields a
// jumbo-capable build, through ConfigFor as for every sweep job.
func TestJumboTrafficBuildsJumboController(t *testing.T) {
	s, _ := specOf(t, "-traffic", "jumbo", "-udp", "8972")
	cfg, err := experiments.ConfigFor(s)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.JumboFrames {
		t.Error("-traffic jumbo built a standard-MTU controller")
	}
}

// TestTraceFlagsArmObservation: -trace and -latency carry the frame sampling
// into the build options; -payload carries real frame bytes.
func TestTraceFlagsArmObservation(t *testing.T) {
	_, o := specOf(t, "-trace", "t.json", "-trace-sample", "8", "-payload")
	if o.Obs == nil || o.Obs.FrameSample != 8 || !o.Payload {
		t.Errorf("options = %+v (obs %+v), want FrameSample 8 and payload", o, o.Obs)
	}
	if _, o := specOf(t, "-latency"); o.Obs == nil {
		t.Error("-latency did not arm observation")
	}
}
