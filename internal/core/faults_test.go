package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// runWithPlan assembles a NIC, attaches the plan (empty = fault-free), and
// runs the standard acceptance window.
func runWithPlan(t *testing.T, cfg Config, plan faults.Plan) Report {
	t.Helper()
	n := New(cfg)
	n.AttachWorkload(1472, false)
	if err := n.AttachFaults(plan); err != nil {
		t.Fatalf("AttachFaults: %v", err)
	}
	return n.Run(200*sim.Microsecond, 500*sim.Microsecond)
}

// TestReferencePlanRecovery is the robustness acceptance criterion: under the
// reference plan — at least one event of every recoverable fault class — both
// paper operating points must complete with zero invariant violations,
// recover every lost DMA completion, absorb every duplicate, rescue the stuck
// core's work, and sustain at least 90% of fault-free throughput.
func TestReferencePlanRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sw-200", DefaultConfig()},
		{"rmw-166", RMWConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := runWithPlan(t, tc.cfg, faults.Plan{})
			faulted := runWithPlan(t, tc.cfg, faults.Reference(200*sim.Microsecond))

			if faulted.InvariantViolations != 0 {
				t.Fatalf("invariant violations under reference plan: %d\n%s",
					faulted.InvariantViolations, strings.Join(faulted.InvariantDetail, "\n"))
			}
			fr := faulted.Faults
			if fr == nil {
				t.Fatal("faulted report has no fault section")
			}
			// Every class actually injected.
			if fr.Injected.RxCorrupt != 4 || fr.Injected.RxDrop != 4 {
				t.Errorf("rx injections corrupt=%d drop=%d, want 4/4", fr.Injected.RxCorrupt, fr.Injected.RxDrop)
			}
			if fr.Injected.DMALoss != 2 || fr.Injected.DMADup != 2 {
				t.Errorf("dma injections loss=%d dup=%d, want 2/2", fr.Injected.DMALoss, fr.Injected.DMADup)
			}
			if fr.Injected.BankStall == 0 || fr.Injected.CoreStuck != 1 || fr.Injected.CoreSlow != 1 ||
				fr.Injected.RingStarve != 1 || fr.Injected.MailboxLoss != 3 {
				t.Errorf("window injections incomplete: %+v", fr.Injected)
			}
			if fr.WireDrops != 4 || fr.CRCDrops != 4 {
				t.Errorf("MAC saw %d wire / %d crc drops, want 4/4", fr.WireDrops, fr.CRCDrops)
			}
			if fr.MailboxLost != 3 || fr.StarvedTicks == 0 {
				t.Errorf("host saw %d lost mailboxes (%d starved ticks), want 3 and >0", fr.MailboxLost, fr.StarvedTicks)
			}
			// Every lost completion recovered by timeout/retry; every duplicate
			// absorbed; the stuck core's work rescued by takeover.
			if fr.DMARetried != fr.Injected.DMALoss || fr.DMARecovered != fr.Injected.DMALoss {
				t.Errorf("recovery retried=%d recovered=%d, want both == %d lost",
					fr.DMARetried, fr.DMARecovered, fr.Injected.DMALoss)
			}
			if fr.DMADupSuppressed != fr.Injected.DMADup {
				t.Errorf("dup suppressed=%d, want %d", fr.DMADupSuppressed, fr.Injected.DMADup)
			}
			if fr.Takeovers != 1 || fr.StreamsRescued == 0 {
				t.Errorf("takeovers=%d rescued=%d, want 1 and >0", fr.Takeovers, fr.StreamsRescued)
			}
			// Graceful degradation: >= 90% of fault-free throughput.
			if faulted.TotalGbps < 0.9*clean.TotalGbps {
				t.Errorf("faulted throughput %.2f Gb/s < 90%% of fault-free %.2f Gb/s",
					faulted.TotalGbps, clean.TotalGbps)
			}
			// The clean run's report must carry no fault section at all.
			if clean.Faults != nil || clean.InvariantViolations != 0 {
				t.Errorf("fault-free run has fault artifacts: %+v violations=%d", clean.Faults, clean.InvariantViolations)
			}
		})
	}
}

// TestSabotageDetected: the fw_* sabotage kinds corrupt firmware state in
// ways recovery does not (and must not) paper over; the invariant checker has
// to flag them. This is the checker's own acceptance test — a seeded frame
// leak breaks conservation, a seeded ring swap breaks in-order delivery.
func TestSabotageDetected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   string
		detail string
	}{
		{"leak-send", "fw_leak@100us", "conservation"},
		{"leak-recv", "fw_leak@100us:1", "conservation"},
		{"swap-send", "fw_swap@100us", "in-order"},
		{"swap-recv", "fw_swap@100us:1", "in-order"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := faults.ParsePlan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			n := New(DefaultConfig())
			n.AttachWorkload(1472, false)
			if err := n.AttachFaults(plan); err != nil {
				t.Fatal(err)
			}
			rep := n.Run(50*sim.Microsecond, 150*sim.Microsecond)
			if rep.InvariantViolations == 0 {
				t.Fatal("sabotage went undetected")
			}
			found := false
			for _, d := range rep.InvariantDetail {
				if strings.Contains(d, tc.detail) {
					found = true
				}
			}
			if !found {
				t.Errorf("violation detail lacks %q:\n%s", tc.detail, strings.Join(rep.InvariantDetail, "\n"))
			}
		})
	}
}

func TestAttachFaultsValidatesPlan(t *testing.T) {
	n := New(DefaultConfig())
	n.AttachWorkload(1472, false)
	bad, err := faults.ParsePlan("core_stuck@10us+5us:9") // core 9 on a 6-core machine
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachFaults(bad); err == nil {
		t.Error("AttachFaults accepted an out-of-range plan")
	}
	good := faults.Reference(0)
	if err := n.AttachFaults(good); err != nil {
		t.Fatalf("AttachFaults: %v", err)
	}
	if err := n.AttachFaults(good); err == nil {
		t.Error("AttachFaults accepted a second plan")
	}
}

func TestConfigValidate(t *testing.T) {
	mutate := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero-cores", mutate(func(c *Config) { c.Cores = 0 })},
		{"negative-mhz", mutate(func(c *Config) { c.CPUMHz = -1 })},
		{"zero-banks", mutate(func(c *Config) { c.ScratchpadBanks = 0 })},
		{"unaligned-scratchpad", mutate(func(c *Config) { c.ScratchpadBytes = 1000 })},
		{"zero-icache-line", mutate(func(c *Config) { c.ICacheLine = 0 })},
		{"zero-sdram", mutate(func(c *Config) { c.SDRAMMHz = 0 })},
		{"zero-tx-slots", mutate(func(c *Config) { c.TxSlots = 0 })},
		{"zero-dma-depth", mutate(func(c *Config) { c.DMADepth = 0 })},
		{"bad-host-ring", mutate(func(c *Config) { c.Host.SendRing = 0 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Error("Validate accepted an invalid config")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("Validate rejected the default config: %v", err)
	}
	if err := RMWConfig().Validate(); err != nil {
		t.Errorf("Validate rejected the RMW config: %v", err)
	}
}

// TestStuckCoreTakeoverWithRecycling: a core-stuck plan preempts a stream
// mid-flight, and its remainder aliases the evicted stream's op buffer. The
// firmware's stream recycling must not change that run: the report is
// byte-identical to one with recycling unhooked, ordering and the run
// invariants hold, and the takeover rescues the same streams as before
// recycling existed.
func TestStuckCoreTakeoverWithRecycling(t *testing.T) {
	plan := faults.Plan{Events: []faults.Event{{Kind: faults.CoreStuck, At: 330 * sim.Microsecond, Target: 1}}}
	run := func(cfg Config, recycle bool) (Report, []byte) {
		n := New(cfg)
		n.AttachWorkload(1472, false)
		if err := n.AttachFaults(plan); err != nil {
			t.Fatalf("AttachFaults: %v", err)
		}
		if !recycle {
			for _, c := range n.Cores {
				c.Recycle = nil
			}
		}
		r := n.Run(200*sim.Microsecond, 500*sim.Microsecond)
		b, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return r, b
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		rescued uint64
	}{
		{"sw-200", DefaultConfig(), 1},
		{"rmw-166", RMWConfig(), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, got := run(tc.cfg, true)
			_, want := run(tc.cfg, false)
			if !bytes.Equal(got, want) {
				t.Errorf("recycling changed the report:\nwith:    %s\nwithout: %s", got, want)
			}
			if r.InvariantViolations != 0 || r.TxOutOfOrder != 0 || r.RxOutOfOrder != 0 {
				t.Errorf("violations=%d out-of-order tx=%d rx=%d, want all 0",
					r.InvariantViolations, r.TxOutOfOrder, r.RxOutOfOrder)
			}
			if f := r.Faults; f == nil || f.Injected.CoreStuck != 1 || f.Takeovers != 1 || f.StreamsRescued != tc.rescued {
				t.Errorf("faults = %+v, want 1 stuck core, 1 takeover, %d rescued", f, tc.rescued)
			}
		})
	}
}
