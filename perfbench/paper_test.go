package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestPaperRelErrHandComputed checks the formula against a report whose
// error was worked out by hand.
func TestPaperRelErrHandComputed(t *testing.T) {
	r := core.Report{
		IPC:          0.63,  // |0.63-0.72|/0.72 = 0.125
		FracIMiss:    0.03,  // |0.03-0.01| = 0.02 slots (absolute)
		FracLoad:     0.15,  // 0.03/0.12 = 0.25
		FracConflict: 0.05,  // 0
		FracPipeline: 0.08,  // 0.02/0.10 = 0.2
		ScratchGbps:  9.4,   // 0
		FrameMemGbps: 43.67, // 3.97/39.7 = 0.1
	}
	want := (0.125 + 0.02 + 0.25 + 0 + 0.2 + 0 + 0.1) / 7
	if got := paperRelErr(r); math.Abs(got-want) > 1e-12 {
		t.Fatalf("paperRelErr = %.15g, want %.15g", got, want)
	}
}

// TestPaperRefsCiteSources requires every reference value to appear on the
// PAPER.md line it cites.
func TestPaperRefsCiteSources(t *testing.T) {
	b, err := os.ReadFile("../PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	for _, p := range paperRefs {
		file, num, ok := strings.Cut(p.source, ":")
		n, err := strconv.Atoi(num)
		if !ok || file != "PAPER.md" || err != nil || n < 1 || n > len(lines) {
			t.Errorf("%s: bad source %q", p.name, p.source)
			continue
		}
		if v := strconv.FormatFloat(p.want, 'g', -1, 64); !strings.Contains(lines[n-1], v) {
			t.Errorf("%s: %s does not mention %s: %q", p.name, p.source, v, lines[n-1])
		}
	}
}
