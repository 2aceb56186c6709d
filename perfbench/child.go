package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// invocation is what one benchmark process reports about itself to the
// orchestrator, as one JSON line on its standard output.
type invocation struct {
	// FirstStepUnixNs is the wall clock just before the first NIC.Run:
	// the end of set-up.
	FirstStepUnixNs int64 `json:"first_step_unix_ns"`
	// SimHostS is host seconds from the first NIC.Run to the end of the
	// last simulation; SimUs is the simulated time all runs advanced.
	SimHostS float64 `json:"sim_host_s"`
	SimUs    float64 `json:"sim_us"`
	// PassS is host seconds for the whole pass over the jobs.
	PassS float64 `json:"pass_s"`
	// Frames and Mallocs cover the simulation phase, core.New through the
	// last NIC.Run.
	Frames  uint64 `json:"frames"`
	Mallocs uint64 `json:"mallocs"`

	Attempted int `json:"attempted"`
	// Failures lists every failed correctness check, one "<job>: <check>"
	// line each; Failed counts the jobs with at least one.
	Failures []string `json:"failures,omitempty"`
	Failed   int      `json:"failed"`
	// Baselines names the baseline file the results were compared with,
	// and BaselineViolations counts the gated metrics outside tolerance.
	Baselines          string `json:"baselines,omitempty"`
	BaselineViolations int    `json:"baseline_violations"`

	// Digest is the SHA-256 of the canonical results JSON and Counts the
	// exact simulated counts: the non-perturbation and determinism checks
	// compare both across runs.
	Digest      string            `json:"digest"`
	Counts      map[string]uint64 `json:"counts"`
	PaperRelErr float64           `json:"paper_rel_err"`

	// Traced and allocs runs only: their per-layer metrics. WarmDigest is
	// the digest of a traced run's in-process rerun (the warm hazard memo).
	Layers     map[string]float64 `json:"layers,omitempty"`
	WarmDigest string             `json:"warm_digest,omitempty"`
}

// pass is one execution of a workload's jobs inside the process.
type pass struct {
	start, end time.Time
	firstStep  time.Time
	results    []sweep.Result
	facts      []*simFacts
	stats      sweep.RunnerStats
	workers    int
	ms0, ms1   runtime.MemStats
}

func (p *pass) wall() time.Duration { return p.end.Sub(p.start) }

// runPass executes the jobs once: through sweep.Runner for the CI loop,
// otherwise directly, one after another.
func runPass(ctx context.Context, w workload, jobs []sweep.Job, traced bool) (*pass, error) {
	col := newCollector(traced)
	p := &pass{workers: 1}
	runtime.ReadMemStats(&p.ms0)
	p.start = time.Now()
	if w.baselines != "" {
		// The pool is the machine's CPUs, capped at two so the figure stays
		// comparable across machines.
		r := &sweep.Runner{Run: col.run, Workers: min(2, runtime.NumCPU())}
		p.workers = r.Workers
		var err error
		if p.results, err = r.Sweep(ctx, jobs); err != nil {
			return nil, err
		}
		p.stats = r.Stats()
	} else {
		for _, j := range jobs {
			res := sweep.Execute(ctx, col.run, j, 0)
			if !res.OK() {
				p.stats.Failed++
			}
			p.results = append(p.results, res)
		}
	}
	p.end = time.Now()
	runtime.ReadMemStats(&p.ms1)
	p.facts = col.all()
	for _, f := range p.facts {
		if p.firstStep.IsZero() || f.runStart.Before(p.firstStep) {
			p.firstStep = f.runStart
		}
	}
	if p.firstStep.IsZero() {
		p.firstStep = p.end
	}
	return p, nil
}

// digest hashes the pass's canonical results: equal digests mean
// byte-identical reports.
func (p *pass) digest() string {
	canon := make([]sweep.Result, len(p.results))
	for i, r := range p.results {
		canon[i] = r.Canonical()
	}
	b, err := json.Marshal(canon)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode results: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// counts sums the exact simulated counts over the pass's simulations.
func (p *pass) counts() map[string]uint64 {
	c := map[string]uint64{}
	for _, f := range p.facts {
		c["sims"]++
		c["steps"] += f.steps
		c["sim_ps"] += f.simPs
		c["frames"] += f.frames
		c["instructions"] += f.instr
		c["core_cycles"] += f.cycles
	}
	return c
}

// checkResult lists the correctness checks one job failed.
func checkResult(r sweep.Result) []string {
	if !r.OK() {
		msg, _, _ := strings.Cut(r.Err, "\n")
		return []string{"job error: " + msg}
	}
	rep := r.Report
	var out []string
	if rep.InvariantViolations > 0 {
		out = append(out, fmt.Sprintf("%d run invariant violation(s): %s", rep.InvariantViolations, strings.Join(rep.InvariantDetail, "; ")))
	}
	if rep.TxOutOfOrder > 0 || rep.RxOutOfOrder > 0 {
		out = append(out, fmt.Sprintf("out-of-order frames: tx %d, rx %d", rep.TxOutOfOrder, rep.RxOutOfOrder))
	}
	if rep.RxCorrupt > 0 {
		out = append(out, fmt.Sprintf("%d corrupt frame(s) delivered", rep.RxCorrupt))
	}
	if rep.RSS != nil {
		for q, s := range rep.RSS.PerQueue {
			if s.OutOfOrder > 0 {
				out = append(out, fmt.Sprintf("queue %d delivered %d frame(s) out of order", q, s.OutOfOrder))
			}
		}
	}
	if rep.SLO != nil && rep.SLO.Violations > 0 {
		for _, c := range rep.SLO.Checks {
			if !c.Pass {
				out = append(out, fmt.Sprintf("SLO %s: got %g, bound %g", c.Name, c.Got, c.Bound))
			}
		}
	}
	if rep.TotalGbps == 0 {
		out = append(out, "no frames moved")
	}
	return out
}

// Invocation modes. A plain run measures end to end. A traced run wraps the
// seams, profiles tick costs and CPU by package, and reruns its pass
// in-process warm. An allocs run records every allocation's stack
// (MemProfileRate = 1), which slows allocation too much to share a process
// with the timed layers.
const (
	modePlain  = "plain"
	modeTraced = "traced"
	modeAllocs = "allocs"
)

// execute runs one invocation of the workload in this process.
func execute(ctx context.Context, w workload, seed int64, mode string) (*invocation, error) {
	if w.gcPercent != 0 {
		debug.SetGCPercent(w.gcPercent)
	}
	jobs := w.jobs(seed)
	var bf *sweep.BaselineFile
	if w.baselines != "" {
		b, err := sweep.LoadBaselines(w.baselines)
		if err != nil {
			return nil, err
		}
		bf = &b
	}

	traced := mode == modeTraced
	var prof bytes.Buffer
	var sites0, sites1 map[[32]uintptr]int64
	if mode == modeAllocs {
		sites0 = allocSites()
	}
	if traced {
		// Sample at 500 Hz rather than pprof's 100 Hz so small layers get
		// enough samples; pprof warns on stderr that the rate was preset.
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	p, err := runPass(ctx, w, jobs, traced)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	if mode == modeAllocs {
		sites1 = allocSites()
	}

	inv := &invocation{
		FirstStepUnixNs: p.firstStep.UnixNano(),
		PassS:           p.wall().Seconds(),
		SimHostS:        p.end.Sub(p.firstStep).Seconds(),
		Mallocs:         p.ms1.Mallocs - p.ms0.Mallocs,
		Attempted:       len(p.results),
		Digest:          p.digest(),
		Counts:          p.counts(),
	}
	for _, f := range p.facts {
		inv.SimUs += float64(f.simPs) / 1e6
		inv.Frames += f.frames
	}

	failures := map[string][]string{}
	paper, ok := reportOf(p.results, w.paperJob)
	if ok {
		inv.PaperRelErr = paperRelErr(paper)
	} else {
		failures[w.paperJob] = append(failures[w.paperJob], "no report to score against the paper")
	}
	for _, r := range p.results {
		if bad := checkResult(r); len(bad) > 0 {
			failures[r.ID] = append(failures[r.ID], bad...)
		}
	}
	if bf != nil {
		inv.Baselines = w.baselines
		vs := sweep.Compare(p.results, *bf)
		inv.BaselineViolations = len(vs)
		for _, v := range vs {
			failures[v.ID] = append(failures[v.ID], "baseline "+w.baselines+": "+v.String())
		}
	}
	ids := make([]string, 0, len(failures))
	for id := range failures {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, f := range failures[id] {
			inv.Failures = append(inv.Failures, id+": "+f)
		}
	}
	inv.Failed = len(ids)

	switch mode {
	case modeTraced:
		self, err := selfSamplesByPackage(prof.Bytes())
		if err != nil {
			return nil, err
		}
		warm, err := runPass(ctx, w, jobs, true)
		if err != nil {
			return nil, err
		}
		inv.WarmDigest = warm.digest()
		inv.Layers = layerMetrics(p, paper, self, warm)
	case modeAllocs:
		inv.Layers = map[string]float64{}
		byLayer := allocsByLayer(sites0, sites1)
		for _, l := range allocLayers {
			inv.Layers["go.allocs_per_frame."+l] = ratio(float64(byLayer[l]), float64(inv.Frames))
		}
	}
	return inv, nil
}

// cpuProfileHz is the traced run's CPU profile sampling rate.
const cpuProfileHz = 500

func reportOf(results []sweep.Result, id string) (core.Report, bool) {
	for _, r := range results {
		if r.ID == id && r.Report != nil {
			return *r.Report, true
		}
	}
	return core.Report{}, false
}

// layerMetrics computes the traced run's per-layer metrics; perLayer lists
// their names and units, and the allocs run adds go.allocs_per_frame.*.
// The computation and memory layers' simulated quantities come from the
// paper job's report. Everything else sums, or takes the worst case, over
// the pass's unique jobs.
func layerMetrics(p *pass, paper core.Report, self map[string]int64, warm *pass) map[string]float64 {
	m := map[string]float64{}
	var tr jobTrace
	var steps uint64
	var runNs int64
	dom := map[string]time.Duration{}
	var newMs []float64
	for _, f := range p.facts {
		tr.add(f.trace)
		steps += f.steps
		runNs += int64(f.runDur)
		for _, c := range f.costs {
			dom[c.Name] += c.Wall
		}
		newMs = append(newMs, ms(f.newDur))
	}
	m["sim.steps"] = float64(steps)
	m["sim.ns_per_step"] = ratio(float64(runNs), float64(steps))
	for _, d := range []string{"cpu", "sdram", "mac", "host", "faults"} {
		m["sim."+d+"_ms"] = ms(dom[d])
	}

	m["firmware.next_calls"] = float64(tr.nextCalls)
	m["firmware.streams"] = float64(tr.streams)
	m["firmware.stream_yield"] = ratio(float64(tr.streams), float64(tr.nextCalls))
	m["firmware.ops_built"] = float64(tr.ops)
	m["firmware.next_ms"] = float64(tr.nextNs) / 1e6
	m["firmware.ns_per_op"] = ratio(float64(tr.nextNs), float64(tr.ops))
	m["firmware.warm_rerun_ratio"] = ratio(warm.wall().Seconds(), p.wall().Seconds())

	var total int64
	for _, n := range self {
		total += n
	}
	share := func(layer string) float64 { return ratio(float64(self[modulePrefix+layer]), float64(total)) }

	m["cpu.ipc"] = paper.IPC
	m["cpu.frac_imiss"] = paper.FracIMiss
	m["cpu.frac_load"] = paper.FracLoad
	m["cpu.frac_conflict"] = paper.FracConflict
	m["cpu.frac_pipeline"] = paper.FracPipeline
	m["cpu.frac_idle_poll"] = paper.FracIdlePoll
	m["cpu.self_share"] = share("cpu")

	m["mem.scratch_gbps"] = paper.ScratchGbps
	m["mem.sdram_util"] = paper.SDRAMUtilization
	m["mem.sdram_useful_ratio"] = ratio(paper.FrameUsefulGbps, paper.FrameMemGbps)
	m["mem.imem_util"] = paper.IMemUtilization
	m["mem.self_share"] = share("mem")

	var drops, rejected, delivered, ooo, injected, recovered uint64
	skew, recvP99, sendP99 := 1.0, 0.0, 0.0
	for _, r := range unique(p.results) {
		rep := r.Report
		if rep == nil {
			continue
		}
		drops += rep.RxDrops
		if rep.Traffic != nil {
			rejected += rep.Traffic.HostileRejected()
		}
		delivered += uint64(math.Round(rep.RxFPS * rep.Seconds))
		ooo += rep.TxOutOfOrder + rep.RxOutOfOrder
		if rep.RSS != nil {
			skew = math.Max(skew, rep.RSS.QueueSkew)
			for _, q := range rep.RSS.PerQueue {
				ooo += q.OutOfOrder
			}
		}
		if fr := rep.Faults; fr != nil {
			c := fr.Injected
			injected += c.RxCorrupt + c.RxDrop + c.DMALoss + c.DMADup + c.CoreStuck +
				c.CoreSlow + c.RingStarve + c.MailboxLoss + c.Sabotage
			recovered += fr.DMARecovered + fr.Takeovers + fr.StreamsRescued + fr.FlagRepairs
		}
		if l := rep.Latency; l != nil {
			recvP99 = math.Max(recvP99, l.Recv.P99Us)
			sendP99 = math.Max(sendP99, l.Send.P99Us)
		}
	}
	m["assist.rx_drops"] = float64(drops)
	m["assist.rejected"] = float64(rejected)
	m["assist.rss_skew"] = skew
	m["assist.self_share"] = share("assist")
	m["host.delivered"] = float64(delivered)
	m["host.ooo"] = float64(ooo)
	m["host.self_share"] = share("host")
	m["workload.next_calls"] = float64(tr.srcCalls)
	m["workload.next_ms"] = float64(tr.srcNs) / 1e6
	m["faults.injected"] = float64(injected)
	m["faults.recovered"] = float64(recovered)
	m["obs.recv_p99_us"] = recvP99
	m["obs.send_p99_us"] = sendP99
	m["obs.self_share"] = share("obs")

	m["core.new_ms"] = median(newMs)

	var elapsed []float64
	var sumElapsed float64
	for _, r := range unique(p.results) {
		elapsed = append(elapsed, r.ElapsedSec)
		sumElapsed += r.ElapsedSec
	}
	m["sweep.jobs"] = float64(len(p.results))
	m["sweep.job_s_p50"] = median(elapsed)
	m["sweep.runner_overhead_s"] = p.wall().Seconds() - sumElapsed/float64(p.workers)
	m["sweep.failed"] = float64(p.stats.Failed)
	m["sweep.retried"] = float64(p.stats.Retries)

	m["go.gc_cycles"] = float64(p.ms1.NumGC - p.ms0.NumGC)
	m["go.gc_pause_ms"] = float64(p.ms1.PauseTotalNs-p.ms0.PauseTotalNs) / 1e6
	m["go.heap_peak_mb"] = float64(p.ms1.HeapSys) / (1 << 20)
	return m
}

// unique drops the results of jobs that repeat an earlier job's spec: the
// runner simulates each spec once and hands the result to every duplicate.
func unique(results []sweep.Result) []sweep.Result {
	seen := map[string]bool{}
	var out []sweep.Result
	for _, r := range results {
		if !seen[r.Hash] {
			seen[r.Hash] = true
			out = append(out, r)
		}
	}
	return out
}

// allocLayers are the simulator packages allocations are attributed to.
var allocLayers = []string{"assist", "firmware", "cpu", "sim", "host", "workload", "obs", "core"}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
