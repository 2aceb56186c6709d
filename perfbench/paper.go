package main

import (
	"math"

	"repro/internal/core"
)

// paperRef is one of the paper's default-point quantities that survive in
// PAPER.md's prose, with where it comes from and how it is compared.
type paperRef struct {
	name   string
	want   float64
	source string // PAPER.md line
	// abs compares in absolute units instead of relative to want: the
	// 0.01 I-miss share is too small a denominator for a relative error.
	abs bool
	got func(core.Report) float64
}

// paperRefs is the reference table paper_rel_err is computed against: the
// 6x200 MHz software-only point's Table 3 computation breakdown and its
// Table 4 bandwidths.
var paperRefs = []paperRef{
	{name: "ipc", want: 0.72, source: "PAPER.md:23", got: func(r core.Report) float64 { return r.IPC }},
	{name: "frac_imiss", want: 0.01, source: "PAPER.md:23", abs: true, got: func(r core.Report) float64 { return r.FracIMiss }},
	{name: "frac_load", want: 0.12, source: "PAPER.md:23", got: func(r core.Report) float64 { return r.FracLoad }},
	{name: "frac_conflict", want: 0.05, source: "PAPER.md:23", got: func(r core.Report) float64 { return r.FracConflict }},
	{name: "frac_pipeline", want: 0.10, source: "PAPER.md:24", got: func(r core.Report) float64 { return r.FracPipeline }},
	{name: "scratch_gbps", want: 9.4, source: "PAPER.md:27", got: func(r core.Report) float64 { return r.ScratchGbps }},
	{name: "frame_mem_gbps", want: 39.7, source: "PAPER.md:27", got: func(r core.Report) float64 { return r.FrameMemGbps }},
}

// paperRelErr is the mean error of a report against paperRefs: relative
// for every quantity except the I-miss share, which is compared in absolute
// instruction slots.
func paperRelErr(r core.Report) float64 {
	var sum float64
	for _, p := range paperRefs {
		d := math.Abs(p.got(r) - p.want)
		if !p.abs {
			d /= p.want
		}
		sum += d
	}
	return sum / float64(len(paperRefs))
}
