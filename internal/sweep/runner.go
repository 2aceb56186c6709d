package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// RunFunc executes one job. Implementations must honor ctx: when it is
// canceled they should stop the simulation and return ctx.Err() (the NIC
// simulator's engine exposes Stop for exactly this; see
// experiments.Simulate). A RunFunc may panic — the runner records the panic
// as that job's failure without killing the pool.
type RunFunc func(ctx context.Context, job Job) (Outcome, error)

// RunnerStats counts how a sweep's unique configuration points were
// resolved, so "every point simulated exactly once" is checkable from the
// counters alone. Counts are per unique spec hash, not per job ID:
// duplicate jobs served from one execution count that execution once.
type RunnerStats struct {
	// Fresh is the number of unique points simulated to completion.
	Fresh int64 `json:"fresh"`
	// CacheHits is the number of unique points served from the runner's
	// in-process memo, filled by an earlier Sweep, without simulating.
	CacheHits int64 `json:"cache_hits"`
	// Retries is always zero: the runner never re-runs a job. Kept for the
	// benchmark, which reports it until its next change.
	Retries int64 `json:"retries"`
	// Failed is the number of unique points whose run failed.
	Failed int64 `json:"failed"`
}

// Runner executes sweeps over a worker pool.
type Runner struct {
	// Run executes one job. Required.
	Run RunFunc

	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int

	// Timeout bounds each job's execution; 0 means no per-job timeout. A
	// diverging simulation fails its own job (deadline exceeded), not the
	// sweep.
	Timeout time.Duration

	mu    sync.Mutex
	memo  map[string]Result //nic:guardedby mu — in-process cache of successes, by hash
	stats RunnerStats       //nic:guardedby mu
}

// Stats returns a snapshot of the runner's counters. Every update happens
// under the runner's lock before Sweep returns, so a snapshot taken after
// Sweep returns is complete.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Sweep executes all jobs and returns results aligned with the input order.
// Jobs sharing a spec hash are simulated once. Failed jobs (error, panic,
// timeout) are reported in their Result and do not stop the sweep. When ctx
// is canceled, in-flight jobs are stopped, unstarted jobs are marked
// canceled, and the returned error is ctx's error; everything already
// completed is in the results and the memo, so a second Sweep on the same
// Runner simulates only the rest.
func (r *Runner) Sweep(ctx context.Context, jobs []Job) ([]Result, error) {
	if r.Run == nil {
		return nil, fmt.Errorf("sweep: Runner.Run is nil")
	}
	results := make([]Result, len(jobs))
	filled := make([]bool, len(jobs))

	// Group duplicate specs so each unique hash simulates once.
	idxByHash := map[string][]int{}
	var order []string
	for i, j := range jobs {
		h := j.Spec.Hash()
		if _, ok := idxByHash[h]; !ok {
			order = append(order, h)
		}
		idxByHash[h] = append(idxByHash[h], i)
	}

	settle := func(res Result) {
		r.mu.Lock()
		switch {
		case res.Cached:
			r.stats.CacheHits++
		case res.OK():
			r.stats.Fresh++
		default:
			r.stats.Failed++
		}
		if res.OK() {
			if r.memo == nil {
				r.memo = map[string]Result{}
			}
			r.memo[res.Hash] = res
		}
		for _, i := range idxByHash[res.Hash] {
			rr := res
			rr.ID = jobs[i].ID
			results[i] = rr
			filled[i] = true
		}
		r.mu.Unlock()
	}

	// Serve cached hashes; collect the rest.
	var pending []Job
	for _, h := range order {
		job := jobs[idxByHash[h][0]]
		r.mu.Lock()
		res, ok := r.memo[h]
		r.mu.Unlock()
		if ok {
			res.Cached = true
			settle(res)
			continue
		}
		pending = append(pending, job)
	}

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	ch := make(chan Job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range ch {
				settle(Execute(ctx, r.Run, job, r.Timeout))
			}
		}()
	}
dispatch:
	for _, job := range pending {
		select {
		case ch <- job:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(ch)
	wg.Wait()

	// Anything not settled was never dispatched.
	for i := range results {
		if !filled[i] {
			results[i] = Result{
				ID:   jobs[i].ID,
				Hash: jobs[i].Spec.Hash(),
				Spec: jobs[i].Spec,
				Err:  "canceled before start",
			}
		}
	}
	return results, ctx.Err()
}

// Execute runs a single job with a per-job timeout and panic isolation: a
// panicking run fails its own Result (stack attached) instead of crashing
// the caller. The Runner executes every job through this one path, and
// callers that time a single job outside a Runner use it too,
// so a job fails the same way wherever it runs.
func Execute(ctx context.Context, run RunFunc, job Job, timeout time.Duration) (res Result) {
	res = Result{ID: job.ID, Hash: job.Spec.Hash(), Spec: job.Spec}
	start := time.Now() //nic:wallclock ElapsedSec reports real job duration
	defer func() {
		res.ElapsedSec = time.Since(start).Seconds() //nic:wallclock
		if p := recover(); p != nil {
			res.Report, res.Aux = nil, nil
			res.Err = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	jctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	out, err := run(jctx, job)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Report, res.Aux, res.TickCosts = out.Report, out.Aux, out.TickCosts
	return res
}
