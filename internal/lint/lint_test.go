package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

const fixtures = "testdata/src"

func TestDetlintFixtures(t *testing.T) {
	linttest.Run(t, fixtures, lint.Detlint, "fixture/detlint")
}

func TestDetlintImplicitInternal(t *testing.T) {
	linttest.Run(t, fixtures, lint.Detlint, "fixture/internal/implicit")
}

func TestHotpathFixtures(t *testing.T) {
	linttest.Run(t, fixtures, lint.Hotpath, "fixture/hotpath")
}

func TestUnitlintFixtures(t *testing.T) {
	linttest.Run(t, fixtures, lint.Unitlint, "fixture/unitlint")
}

func TestExhaustiveFixtures(t *testing.T) {
	linttest.Run(t, fixtures, lint.Exhaustive, "fixture/exhaustive")
}

func TestGuardlintFixtures(t *testing.T) {
	linttest.Run(t, fixtures, lint.Guardlint, "fixture/guardlint")
}

// TestGuardlintEdgeCases covers defer-after-early-return, RWMutex read
// paths, and nested independent locks.
func TestGuardlintEdgeCases(t *testing.T) {
	linttest.Run(t, fixtures, lint.Guardlint, "fixture/guardlint/edge")
}

func TestLeaklintFixtures(t *testing.T) {
	linttest.Run(t, fixtures, lint.Leaklint, "fixture/leaklint")
}

func TestHashlintFixtures(t *testing.T) {
	linttest.Run(t, fixtures, lint.Hashlint, "fixture/hashlint")
}

// TestConcurrentPackagesCleanUnderConcurrencyAnalyzers pins the packages
// that hold the tree's //nic:guardedby fields and goroutine sites — the
// sweep runner and the experiments watchdog — and the firmware, whose
// state is per NIC and which parallel sweep workers run side by side, clean
// under the three concurrency-contract analyzers even in -short mode, where
// the whole-tree check is skipped.
func TestConcurrentPackagesCleanUnderConcurrencyAnalyzers(t *testing.T) {
	prog, err := lint.NewProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	// Patterns resolve against the module root, not this package directory.
	patterns := []string{"internal/sweep", "internal/experiments", "internal/firmware"}
	pkgs, err := prog.LoadPatterns(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(patterns) {
		t.Fatalf("loaded %d packages for %d patterns; a pattern matched nothing", len(pkgs), len(patterns))
	}
	diags, err := prog.Run(pkgs, []*lint.Analyzer{lint.Guardlint, lint.Leaklint, lint.Hashlint})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestTreeClean runs the full suite over the repository and requires zero
// findings, mirroring CI's niclint step.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree analysis skipped in -short mode")
	}
	prog, err := lint.NewProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := prog.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := prog.Run(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
