package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// mkResult fabricates a successful stored result for grid point i with a
// distinguishable throughput value.
func mkResult(i int, gbps float64) Result {
	spec := Spec{Kind: KindNIC, Cores: i + 1, MHz: 200, Banks: 4, UDPSize: 1472, Ordering: "sw", Parallelism: "frame"}
	r := &core.Report{TotalGbps: gbps, IPC: 0.7}
	r.Cfg.Cores = spec.Cores
	return Result{ID: fmt.Sprintf("grid/c%d", i+1), Hash: spec.Hash(), Spec: spec, Report: r}
}

func TestTornMiddleLineSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), StoreFileName)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Put(mkResult(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Tear the MIDDLE line in half — a lost sector after a crash, not just
	// an interrupt on the final append.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("store has %d lines, want 3", len(lines))
	}
	lines[1] = lines[1][:len(lines[1])/2]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("reopened store has %d results, want 2 (torn middle line skipped)", st2.Len())
	}
	for _, i := range []int{0, 2} {
		if _, ok := st2.Get(mkResult(i, 1).Hash); !ok {
			t.Errorf("intact line %d lost on reload", i)
		}
	}
	if _, ok := st2.Get(mkResult(1, 1).Hash); ok {
		t.Error("torn line must not resolve to a result")
	}
}

func TestDuplicateHashLinesFirstWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), StoreFileName)
	first, _ := json.Marshal(mkResult(0, 1.0))
	second, _ := json.Marshal(mkResult(0, 9.9)) // same spec hash, different report
	content := string(first) + "\n" + string(second) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 1 {
		t.Fatalf("store has %d results, want 1", st.Len())
	}
	got, ok := st.Get(mkResult(0, 1).Hash)
	if !ok {
		t.Fatal("duplicated hash missing")
	}
	if got.Report.TotalGbps != 1.0 {
		t.Errorf("TotalGbps = %v, want 1.0 (first valid line wins, matching Put's append-once)", got.Report.TotalGbps)
	}
}

func TestRunnerStatsCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), StoreFileName)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(mkResult(0, 1)); err != nil { // pre-seed one point: a cache hit
		t.Fatal(err)
	}

	run := func(ctx context.Context, j Job) (Outcome, error) {
		if j.Spec.Cores == 3 {
			return Outcome{}, fmt.Errorf("diverging simulation")
		}
		return fakeRun(nil)(ctx, j)
	}
	r := &Runner{Run: run, Workers: 2, Store: st}
	jobs := append(grid(4), grid(4)...) // duplicates must not inflate any counter
	if _, err := r.Sweep(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	want := RunnerStats{Fresh: 2, CacheHits: 1, Failed: 1}
	if s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
}

func TestRetriesRerunFailedAttempts(t *testing.T) {
	var mu sync.Mutex
	attempts := map[string]int{}
	flaky := func(failures int) RunFunc {
		return func(ctx context.Context, j Job) (Outcome, error) {
			mu.Lock()
			attempts[j.Spec.Hash()]++
			n := attempts[j.Spec.Hash()]
			mu.Unlock()
			if j.Spec.Cores == 2 && n <= failures {
				return Outcome{}, fmt.Errorf("transient divergence %d", n)
			}
			return fakeRun(nil)(ctx, j)
		}
	}

	// Budget covers the failures: every point converges.
	r := &Runner{Run: flaky(2), Workers: 1, Retries: 2}
	rs, err := r.Sweep(context.Background(), grid(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rs {
		if !res.OK() {
			t.Errorf("job %s failed despite retry budget: %s", res.ID, res.Err)
		}
	}
	if s := r.Stats(); s.Retries != 2 || s.Fresh != 3 || s.Failed != 0 {
		t.Errorf("stats = %+v, want 2 retries, 3 fresh, 0 failed", s)
	}

	// Budget one short: the failure is recorded, the rest of the sweep is
	// untouched.
	attempts = map[string]int{}
	r2 := &Runner{Run: flaky(2), Workers: 1, Retries: 1}
	rs2, err := r2.Sweep(context.Background(), grid(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rs2 {
		if res.Spec.Cores == 2 {
			if res.OK() {
				t.Error("exhausted retry budget must record the failure")
			}
		} else if !res.OK() {
			t.Errorf("job %s failed: %s", res.ID, res.Err)
		}
	}
	if s := r2.Stats(); s.Retries != 1 || s.Fresh != 2 || s.Failed != 1 {
		t.Errorf("stats = %+v, want 1 retry, 2 fresh, 1 failed", s)
	}
}

func TestPutErrorCountsStoreError(t *testing.T) {
	path := filepath.Join(t.TempDir(), StoreFileName)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	st.f.Close() // sabotage the descriptor: every append now fails

	r := &Runner{Run: fakeRun(nil), Workers: 1, Store: st}
	rs, err := r.Sweep(context.Background(), grid(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rs {
		if !res.OK() {
			t.Errorf("a store error must not fail the job: %s", res.Err)
		}
	}
	if s := r.Stats(); s.StoreErrors != 2 || s.Fresh != 2 {
		t.Errorf("stats = %+v, want 2 store errors alongside 2 fresh results", s)
	}
}
