package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: github.com/quicknn/quicknn/internal/kdtree
BenchmarkHotSearchAllApprox-8   	     266	   4487313 ns/op	  573696 B/op	    2050 allocs/op
BenchmarkHotSearchApprox-8      	  467000	      2571 ns/op	     368 B/op	       2 allocs/op
PASS
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench), "sample")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := got["HotSearchAllApprox"]
	if !ok {
		t.Fatalf("HotSearchAllApprox missing: %+v", got)
	}
	if m.NsPerOp != 4487313 || m.BytesPerOp != 573696 || m.AllocsPerOp != 2050 {
		t.Fatalf("HotSearchAllApprox = %+v", m)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(got))
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok\n"), "empty"); err == nil {
		t.Fatal("want error for input without benchmark lines")
	}
}

func TestCheckGates(t *testing.T) {
	report := Report{Benchmarks: map[string]Comparison{
		"Fast": {Speedup: 2.0, AllocReduction: 0.99},
		"Slow": {Speedup: 1.1, AllocReduction: 0.5},
	}}
	if failed := checkGates(report, "Fast", 1.4, 0.9); len(failed) != 0 {
		t.Fatalf("Fast should pass, got %v", failed)
	}
	if failed := checkGates(report, "Fast,Slow", 1.4, 0.9); len(failed) != 2 {
		t.Fatalf("Slow should fail both gates, got %v", failed)
	}
	if failed := checkGates(report, "Missing", 1.4, 0); len(failed) != 1 {
		t.Fatalf("missing benchmark should fail the gate, got %v", failed)
	}
	if failed := checkGates(report, "Slow", 0, 0); len(failed) != 0 {
		t.Fatalf("no thresholds means no gate, got %v", failed)
	}
}

func TestAddOverheads(t *testing.T) {
	current := map[string]Measurement{
		"RecordOn":  {NsPerOp: 1040},
		"RecordOff": {NsPerOp: 1000},
		"SlowOn":    {NsPerOp: 2000},
		"SlowOff":   {NsPerOp: 1000},
	}
	report := &Report{}
	if failed := addOverheads(report, current, "RecordOn=RecordOff", 1.05); len(failed) != 0 {
		t.Fatalf("4%% overhead should pass a 1.05 gate, got %v", failed)
	}
	o, ok := report.Overheads["RecordOn"]
	if !ok || o.DisabledName != "RecordOff" || o.Ratio < 1.03 || o.Ratio > 1.05 {
		t.Fatalf("overhead entry wrong: %+v", o)
	}

	if failed := addOverheads(&Report{}, current, "SlowOn=SlowOff", 1.05); len(failed) != 1 {
		t.Fatalf("2x overhead must fail a 1.05 gate, got %v", failed)
	}
	// Report-only mode: the ratio is recorded but nothing fails.
	rep := &Report{}
	if failed := addOverheads(rep, current, "SlowOn=SlowOff", 0); len(failed) != 0 {
		t.Fatalf("max-overhead 0 must not gate, got %v", failed)
	}
	if rep.Overheads["SlowOn"].Ratio != 2.0 {
		t.Fatalf("report-only ratio = %v, want 2.0", rep.Overheads["SlowOn"].Ratio)
	}
	// A missing half fails only when gating.
	if failed := addOverheads(&Report{}, current, "RecordOn=Gone", 1.05); len(failed) != 1 {
		t.Fatalf("incomplete pair must fail the gate, got %v", failed)
	}
	if failed := addOverheads(&Report{}, current, "RecordOn=Gone", 0); len(failed) != 0 {
		t.Fatalf("incomplete pair without a gate must not fail, got %v", failed)
	}
	// Malformed entries are always reported.
	if failed := addOverheads(&Report{}, current, "NoEquals", 0); len(failed) != 1 {
		t.Fatalf("malformed pair must be reported, got %v", failed)
	}
}

func TestCurrentHostStamped(t *testing.T) {
	h := currentHost()
	if h.CPU == "" || h.NumCPU < 1 || h.GOMAXPROCS < 1 || !strings.HasPrefix(h.GoVersion, "go") {
		t.Fatalf("incomplete host stamp: %+v", h)
	}
}
