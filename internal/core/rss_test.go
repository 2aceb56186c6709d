package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/assist"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSingleQueueCollapsesToSeedPath: an explicitly-spelled single-queue
// static-hash configuration must produce a report byte-identical to the
// default controller's — RSS at one queue IS the seed receive path, not an
// approximation of it. This is the same equivalence CI's smoke job
// checks end-to-end through nicsim.
func TestSingleQueueCollapsesToSeedPath(t *testing.T) {
	run := func(cfg Config) []byte {
		n := New(cfg)
		n.AttachWorkload(1472, true)
		rep := n.Run(100*sim.Microsecond, 200*sim.Microsecond)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal report: %v", err)
		}
		return b
	}
	base := run(DefaultConfig())
	explicit := DefaultConfig()
	explicit.RxQueues = 1
	explicit.Steering = "hash"
	if got := run(explicit); !bytes.Equal(base, got) {
		t.Errorf("explicit 1-queue/static-hash report differs from the default:\n default: %s\nexplicit: %s", base, got)
	}
	if strings.Contains(string(base), `"rss"`) {
		t.Error("single-queue report serialized an rss section")
	}
}

// TestPerQueueOrderingUnderBurstWithFaults runs every steering policy over a
// bursty multi-flow load with the reference fault plan armed. Per-queue
// in-order delivery is the invariant RSS must preserve even while faults
// stall and recover the pipeline; cross-queue reordering is the relaxation
// the design accepts and reports.
func TestPerQueueOrderingUnderBurstWithFaults(t *testing.T) {
	for _, steering := range assist.SteeringNames {
		t.Run(steering, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RxQueues = 4
			cfg.Steering = steering
			n := New(cfg)
			ts := workload.TrafficSpec{Class: workload.ClassUniform, Arrival: workload.ArrivalBurst, Seed: 1, Flows: 64}
			if err := n.AttachTraffic(1472, ts, true); err != nil {
				t.Fatalf("AttachTraffic: %v", err)
			}
			if err := n.AttachFaults(faults.Reference(200 * sim.Microsecond)); err != nil {
				t.Fatalf("AttachFaults: %v", err)
			}
			rep := n.Run(200*sim.Microsecond, 300*sim.Microsecond)
			if rep.RxOutOfOrder != 0 {
				t.Errorf("per-queue order violated %d times", rep.RxOutOfOrder)
			}
			if rep.InvariantViolations != 0 {
				t.Errorf("invariant violations: %d", rep.InvariantViolations)
			}
			if rep.RxCorrupt != 0 {
				t.Errorf("corrupt deliveries: %d", rep.RxCorrupt)
			}
			if rep.RSS == nil {
				t.Fatal("multi-queue report has no rss section")
			}
			if rep.RSS.Queues != 4 || rep.RSS.Steering != steering {
				t.Errorf("rss section reports %d queues steering %q, want 4 %q",
					rep.RSS.Queues, rep.RSS.Steering, steering)
			}
			var frames, ooo uint64
			active := 0
			for _, q := range rep.RSS.PerQueue {
				frames += q.Frames
				ooo += q.OutOfOrder
				if q.Frames > 0 {
					active++
				}
			}
			if got := float64(frames) / rep.Seconds; got < rep.RxFPS*0.999 || got > rep.RxFPS*1.001 {
				t.Errorf("per-queue frames sum %d (%.0f fps) disagrees with delivered rate %.0f fps", frames, got, rep.RxFPS)
			}
			if ooo != 0 {
				t.Errorf("per-queue ooo sum %d", ooo)
			}
			if active < 2 {
				t.Errorf("only %d of 4 queues received frames under a 64-flow load", active)
			}
		})
	}
}

// TestSteeringPoliciesDivergeButStayDeterministic: different policies must
// actually steer differently (otherwise the axis measures nothing), and each
// policy must reproduce its report byte-for-byte.
func TestSteeringPoliciesDivergeButStayDeterministic(t *testing.T) {
	run := func(steering string) []byte {
		cfg := DefaultConfig()
		cfg.RxQueues = 4
		cfg.Steering = steering
		n := New(cfg)
		ts := workload.TrafficSpec{Class: workload.ClassUniform, Seed: 1, Flows: 64}
		if err := n.AttachTraffic(1472, ts, false); err != nil {
			t.Fatalf("AttachTraffic: %v", err)
		}
		rep := n.Run(100*sim.Microsecond, 200*sim.Microsecond)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	byPolicy := map[string][]byte{}
	for _, s := range assist.SteeringNames {
		a, b := run(s), run(s)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: report not deterministic across runs", s)
		}
		byPolicy[s] = a
	}
	if bytes.Equal(byPolicy["hash"], byPolicy["rr"]) {
		t.Error("hash and rr steering produced identical reports over 64 flows")
	}
}

func TestRSSConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative queues", func(c *Config) { c.RxQueues = -1 }, "receive queues"},
		{"non-power-of-two", func(c *Config) { c.RxQueues = 3 }, "power of two"},
		{"too many queues", func(c *Config) { c.RxQueues = 32 }, "power of two"},
		{"unknown steering", func(c *Config) { c.Steering = "lru" }, "steering"},
		{"conflicting counts", func(c *Config) { c.RxQueues = 2; c.Host.RxQueues = 4 }, "conflicting"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	// Matching explicit counts are not a conflict.
	cfg := DefaultConfig()
	cfg.RxQueues = 2
	cfg.Host.RxQueues = 2
	if err := cfg.Validate(); err != nil {
		t.Errorf("matching queue counts rejected: %v", err)
	}
}
