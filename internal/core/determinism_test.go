package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// reportJSON assembles a fresh NIC for cfg, runs it briefly (with the fault
// plan attached when non-empty), and returns the serialized report. Each call
// builds its own simulator so runs are fully independent.
func reportJSON(t *testing.T, cfg Config, udp int, plan faults.Plan) []byte {
	t.Helper()
	n := New(cfg)
	n.AttachWorkload(udp, false)
	if err := n.AttachFaults(plan); err != nil {
		t.Fatal(err)
	}
	r := n.Run(300*sim.Microsecond, 200*sim.Microsecond)
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReportJSONDeterministic: the simulator is a sequential deterministic
// machine, so the same Config and workload must produce byte-identical
// Report JSON on every run — the property the sweep harness's caching,
// resume, and baseline gating all rest on. Fault injection is part of the
// contract: given (config, plan, seed), every injected fault lands on the
// same frame, completion, and cycle, so faulted runs repeat exactly too.
func TestReportJSONDeterministic(t *testing.T) {
	ref := faults.Reference(300 * sim.Microsecond)
	seeded := ref
	seeded.Seed = 42
	for _, tc := range []struct {
		name string
		cfg  Config
		udp  int
		plan faults.Plan
	}{
		{"default-1472", DefaultConfig(), 1472, faults.Plan{}},
		{"rmw-400", RMWConfig(), 400, faults.Plan{}},
		{"default-1472-ref-faults", DefaultConfig(), 1472, ref},
		{"rmw-1472-ref-faults", RMWConfig(), 1472, ref},
		{"default-1472-seed42", DefaultConfig(), 1472, seeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := reportJSON(t, tc.cfg, tc.udp, tc.plan)
			b := reportJSON(t, tc.cfg, tc.udp, tc.plan)
			if !bytes.Equal(a, b) {
				t.Errorf("two runs of the same config diverge:\nrun1: %s\nrun2: %s", a, b)
			}
		})
	}
}

// TestReportJSONDeterministicAcrossGOMAXPROCS: scheduling pressure must not
// leak into results. A single simulation never spawns goroutines, but the
// sweep harness runs many concurrently, so the report must be identical
// whether the runtime has one OS thread or eight — with and without a fault
// plan attached.
func TestReportJSONDeterministicAcrossGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan faults.Plan
	}{
		{"fault-free", faults.Plan{}},
		{"ref-faults", faults.Reference(300 * sim.Microsecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			prev := runtime.GOMAXPROCS(1)
			one := reportJSON(t, cfg, 1472, tc.plan)
			runtime.GOMAXPROCS(8)
			eight := reportJSON(t, cfg, 1472, tc.plan)
			runtime.GOMAXPROCS(prev)
			if !bytes.Equal(one, eight) {
				t.Errorf("GOMAXPROCS=1 vs 8 reports diverge:\n1: %s\n8: %s", one, eight)
			}
		})
	}
}
