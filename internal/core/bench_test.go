package core

import (
	"testing"

	"repro/internal/sim"
)

// benchPoint runs one full NIC simulation (300 µs warmup + 500 µs measure)
// at the given operating point and reports simulated nanoseconds per wall
// second. These are quick local probes; the repeatable end-to-end speed and
// allocation figures come from `bash perfbench/run.sh --workload line-1472`
// (sim_us_per_s and allocs_per_frame).
func benchPoint(b *testing.B, cfg Config) {
	b.ReportAllocs()
	const simulated = 800 * sim.Microsecond
	for i := 0; i < b.N; i++ {
		n := New(cfg)
		n.AttachWorkload(1472, false)
		n.Run(300*sim.Microsecond, 500*sim.Microsecond)
	}
	simNs := float64(simulated) / float64(sim.Nanosecond) * float64(b.N)
	b.ReportMetric(simNs/b.Elapsed().Seconds(), "sim-ns/s")
}

// BenchmarkSimSpeed6x166 measures the paper's six-core 166 MHz RMW-enhanced
// operating point (the "RMW reaches line rate" configuration).
func BenchmarkSimSpeed6x166(b *testing.B) {
	benchPoint(b, RMWConfig())
}

// BenchmarkSimSpeed8x175 measures the eight-core 175 MHz software-only point,
// the largest Figure 7 grid column and the heaviest gated configuration.
func BenchmarkSimSpeed8x175(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.CPUMHz = 175
	benchPoint(b, cfg)
}
