package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the repository root
// declares the same names and units, with each metric's direction and, for
// the end-to-end ones, its bound; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, from untraced runs.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_us_per_s", "sim_us/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_frame", "allocs/frame"},
	{"pass_frac", "frac"},
	{"paper_rel_err", "frac"},
}

// perLayer are the traced pass's metrics, named <layer>.<metric>.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	add("count", "sim.steps")
	add("ns", "sim.ns_per_step")
	add("ms", "sim.cpu_ms", "sim.sdram_ms", "sim.mac_ms", "sim.host_ms")
	add("count", "firmware.next_calls", "firmware.streams")
	add("ratio", "firmware.stream_yield")
	add("count", "firmware.ops_built")
	add("ms", "firmware.next_ms")
	add("ns", "firmware.ns_per_op")
	add("ratio", "firmware.warm_rerun_ratio")
	add("instr/cycle", "cpu.ipc")
	add("frac", "cpu.frac_imiss", "cpu.frac_load", "cpu.frac_conflict", "cpu.frac_pipeline", "cpu.frac_idle_poll", "cpu.self_share")
	add("Gb/s", "mem.scratch_gbps")
	add("frac", "mem.sdram_util")
	add("ratio", "mem.sdram_useful_ratio")
	add("frac", "mem.imem_util", "mem.self_share")
	add("count", "assist.rx_drops", "assist.rejected")
	add("ratio", "assist.rss_skew")
	add("frac", "assist.self_share")
	add("count", "host.delivered", "host.ooo")
	add("frac", "host.self_share")
	add("count", "workload.next_calls")
	add("ms", "workload.next_ms")
	add("count", "faults.injected", "faults.recovered")
	add("sim_us", "obs.recv_p99_us", "obs.send_p99_us")
	add("frac", "obs.self_share")
	add("ms", "core.new_ms")
	add("count", "sweep.jobs")
	add("s", "sweep.job_s_p50", "sweep.runner_overhead_s")
	add("count", "sweep.failed", "sweep.retried")
	for _, l := range allocLayers {
		add("allocs/frame", "go.allocs_per_frame."+l)
	}
	add("count", "go.gc_cycles")
	add("ms", "go.gc_pause_ms")
	add("MB", "go.heap_peak_mb")
	add("ratio", "bench.trace_overhead")
	return defs
}()

// minReps is the fewest fresh-process repetitions an untraced run makes.
const minReps = 3

// runChild is the -child entry point: one invocation, reported as JSON.
func runChild(ctx context.Context, w workload, seed int64, mode string) int {
	switch mode {
	case modePlain, modeTraced:
	case modeAllocs:
		runtime.MemProfileRate = 1
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -child mode %q\n", mode)
		return 2
	}
	inv, err := execute(ctx, w, seed, mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(inv); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type orchestrator struct {
	w    workload
	seed int64
}

// sample is one fresh-process repetition as the orchestrator saw it.
type sample struct {
	mode  string
	wall  time.Duration // process start to exit
	setup time.Duration // process start to the first engine step
	rssMB float64
	inv   *invocation
}

// spawn runs one invocation in a fresh process and waits for it.
func (o *orchestrator) spawn(ctx context.Context, mode string) (*sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", o.w.name, "-seed", strconv.FormatInt(o.seed, 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", mode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var inv invocation
	if err := json.Unmarshal(lines[len(lines)-1], &inv); err != nil {
		return nil, fmt.Errorf("%s run: decode report: %w", mode, err)
	}
	s := &sample{mode: mode, wall: wall, setup: time.Unix(0, inv.FirstStepUnixNs).Sub(t0), inv: &inv}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, nil
}

// verdict accumulates the correctness outcome of a benchmark command.
type verdict struct {
	attempted, failed int
	problems          []string
}

// add folds in one repetition's correctness checks.
func (v *verdict) add(i int, s *sample) {
	v.attempted += s.inv.Attempted
	v.failed += s.inv.Failed
	for _, f := range s.inv.Failures {
		v.problems = append(v.problems, fmt.Sprintf("run %d (%s): %s", i+1, s.mode, f))
	}
}

// same requires a repetition to reproduce the reference run's reports and
// simulated counts exactly.
func (v *verdict) same(check string, i int, s, ref *sample, refName string) {
	if s.inv.Digest != ref.inv.Digest {
		v.problems = append(v.problems, fmt.Sprintf("run %d (%s): %s: report digest %.12s differs from %s's %.12s",
			i+1, s.mode, check, s.inv.Digest, refName, ref.inv.Digest))
	}
	if !maps.Equal(s.inv.Counts, ref.inv.Counts) {
		v.problems = append(v.problems, fmt.Sprintf("run %d (%s): %s: simulated counts %v differ from %s's %v",
			i+1, s.mode, check, s.inv.Counts, refName, ref.inv.Counts))
	}
}

// untraced repeats fresh-process invocations for at least d and reports the
// end-to-end metrics.
func (o *orchestrator) untraced(ctx context.Context, d time.Duration) int {
	start := time.Now()
	var samples []*sample
	var v verdict
	for len(samples) < minReps || time.Since(start) < d {
		s, err := o.spawn(ctx, modePlain)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: run %d: %v\n", o.w.name, len(samples)+1, err)
			return 1
		}
		v.add(len(samples), s)
		if len(samples) > 0 {
			v.same("determinism", len(samples), s, samples[0], "run 1")
		}
		samples = append(samples, s)
	}

	values := map[string][]float64{}
	for _, s := range samples {
		values["wall_s"] = append(values["wall_s"], s.wall.Seconds())
		values["setup_s"] = append(values["setup_s"], s.setup.Seconds())
		values["peak_rss_mb"] = append(values["peak_rss_mb"], s.rssMB)
		values["sim_us_per_s"] = append(values["sim_us_per_s"], ratio(s.inv.SimUs, s.inv.SimHostS))
		values["allocs_per_frame"] = append(values["allocs_per_frame"], ratio(float64(s.inv.Mallocs), float64(s.inv.Frames)))
		values["paper_rel_err"] = append(values["paper_rel_err"], s.inv.PaperRelErr)
	}
	values["pass_frac"] = []float64{1 - ratio(float64(v.failed), float64(v.attempted))}

	fmt.Printf("perfbench %s seed=%d trace=0: %d fresh-process runs in %.1f s\n",
		o.w.name, o.seed, len(samples), time.Since(start).Seconds())
	fmt.Printf("  digest %s\n", samples[0].inv.Digest)
	printBaselines(samples)
	return o.finish(endToEnd, values, v)
}

// traced runs the workload untraced, traced, allocation-profiled and
// untraced again, checks all four agree exactly, and reports the per-layer
// metrics.
func (o *orchestrator) traced(ctx context.Context) int {
	var runs []*sample
	for _, mode := range []string{modePlain, modeTraced, modeAllocs, modePlain} {
		s, err := o.spawn(ctx, mode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.w.name, err)
			return 1
		}
		runs = append(runs, s)
	}
	var v verdict
	for i, s := range runs {
		v.add(i, s)
	}
	a, t, al, b := runs[0], runs[1], runs[2], runs[3]
	for i, s := range runs[1:] {
		v.same("non-perturbation", i+1, s, a, "run 1")
	}
	if t.inv.WarmDigest != a.inv.Digest {
		v.problems = append(v.problems, fmt.Sprintf("run 2 (traced): in-process rerun: report digest %.12s differs from run 1's %.12s",
			t.inv.WarmDigest, a.inv.Digest))
	}

	values := map[string][]float64{}
	for _, m := range perLayer {
		for _, s := range []*sample{t, al} {
			if x, ok := s.inv.Layers[m.name]; ok {
				values[m.name] = []float64{x}
			}
		}
	}
	// The traced process also reruns its pass warm, so compare passes, not
	// process wall times.
	values["bench.trace_overhead"] = []float64{t.inv.PassS / ((a.inv.PassS + b.inv.PassS) / 2)}

	fmt.Printf("perfbench %s seed=%d trace=1: pass seconds untraced %.3f, traced %.3f, allocs %.3f, untraced %.3f\n",
		o.w.name, o.seed, a.inv.PassS, t.inv.PassS, al.inv.PassS, b.inv.PassS)
	fmt.Printf("  digest %s (all four runs and the traced run's in-process rerun)\n", a.inv.Digest)
	printBaselines(runs)
	fmt.Printf("  sim.faults_ms %.3f ms (fault event domain; 0 when the workload has no fault plan)\n", t.inv.Layers["sim.faults_ms"])
	return o.finish(perLayer, values, v)
}

// finish prints every metric with its unit, spread and raw samples, the
// provenance, any failed check, and the result line; it returns the exit
// code.
func (o *orchestrator) finish(defs []metricDef, values map[string][]float64, v verdict) int {
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metricOut{}
	for _, m := range defs {
		xs, ok := values[m.name]
		if !ok {
			v.problems = append(v.problems, "metric "+m.name+" was not measured")
			continue
		}
		q := quartiles(xs)
		metrics[m.name] = metricOut{Value: q[1], Unit: m.unit}
		if len(xs) == 1 {
			fmt.Printf("  %-32s %14.6g %s\n", m.name, q[1], m.unit)
			continue
		}
		fmt.Printf("  %-32s %14.6g %-12s median; q1 %.6g q3 %.6g; n=%d; samples %s\n",
			m.name, q[1], m.unit, q[0], q[2], len(xs), formatSamples(xs))
	}
	prov := provenance()
	fmt.Printf("  provenance: %s\n", strings.Join(prov, " "))
	for _, p := range v.problems {
		fmt.Printf("  FAILED %s\n", p)
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED %s\n", o.w.name, p)
	}
	correct := len(v.problems) == 0
	res, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, v.attempted, v.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(res))
	if !correct {
		return 1
	}
	return 0
}

// printBaselines reports the baseline gate, for workloads that have one.
func printBaselines(samples []*sample) {
	path := samples[0].inv.Baselines
	if path == "" {
		return
	}
	bad := 0
	for _, s := range samples {
		bad += s.inv.BaselineViolations
	}
	if bad == 0 {
		fmt.Printf("  baselines OK (%s, %d runs)\n", path, len(samples))
	} else {
		fmt.Printf("  %d baseline violation(s) against %s over %d runs\n", bad, path, len(samples))
	}
}

func formatSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 6, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// provenance identifies the machine and build a result came from.
func provenance() []string {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return []string{
		"nproc=" + strconv.Itoa(runtime.NumCPU()),
		"GOMAXPROCS=" + strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		strconv.Quote("cpu=" + cpuModel()),
		"commit=" + commit + dirty,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, where there is one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}
