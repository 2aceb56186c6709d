package main

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFuncPackageAndLayer(t *testing.T) {
	for _, c := range []struct{ fn, pkg, layer string }{
		{"repro/internal/cpu.(*Core).Tick", "repro/internal/cpu", "cpu"},
		{"repro/internal/core.New.func1", "repro/internal/core", "core"},
		{"runtime.mallocgc", "runtime", ""},
		{"main.spin", "main", ""},
		{"slices.Grow[...]", "slices", ""},
	} {
		if got := funcPackage(c.fn); got != c.pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", c.fn, got, c.pkg)
		}
		if got := layerOf(c.pkg); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.pkg, got, c.layer)
		}
	}
}

var spinSink uint64

// spin burns CPU in this package, on a local so that race-detector
// instrumentation stays out of the loop.
//
//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestSelfSamplesByPackage decodes a real CPU profile of a busy loop.
func TestSelfSamplesByPackage(t *testing.T) {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinSink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	self, err := selfSamplesByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range self {
		total += n
	}
	pkg := funcPackage(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	if total == 0 || self[pkg]*2 < total {
		t.Errorf("self samples %v: want most in package %s", self, pkg)
	}
}
