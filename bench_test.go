package quicknn

import (
	"io"
	"testing"

	"github.com/quicknn/quicknn/internal/bench"
)

// benchOpts keeps the per-iteration cost of the experiment benchmarks
// bounded while still exercising the full pipeline of each paper artifact.
var benchOpts = bench.Options{Points: 8000, Queries: 200, Frames: 5, Seed: 1}

// benchmarkExperiment runs one registered paper experiment per iteration.
// Regenerating the full-size tables is cmd/benchtables' job; these benches
// measure and regression-guard the machinery behind each artifact.
func benchmarkExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table and figure (DESIGN.md §3).

func BenchmarkTable1Methods(b *testing.B)            { benchmarkExperiment(b, "table1") }
func BenchmarkFig3Accuracy(b *testing.B)             { benchmarkExperiment(b, "fig3") }
func BenchmarkFig8WriteGather(b *testing.B)          { benchmarkExperiment(b, "fig8") }
func BenchmarkFig9Traversal(b *testing.B)            { benchmarkExperiment(b, "fig9") }
func BenchmarkFig10Incremental(b *testing.B)         { benchmarkExperiment(b, "fig10") }
func BenchmarkTable2LinearResources(b *testing.B)    { benchmarkExperiment(b, "table2") }
func BenchmarkTable3QuickNNResources(b *testing.B)   { benchmarkExperiment(b, "table3") }
func BenchmarkTable4LinearArch(b *testing.B)         { benchmarkExperiment(b, "table4") }
func BenchmarkTable5QuickNNArch(b *testing.B)        { benchmarkExperiment(b, "table5") }
func BenchmarkFig12MemAccesses(b *testing.B)         { benchmarkExperiment(b, "fig12") }
func BenchmarkFig13Utilization(b *testing.B)         { benchmarkExperiment(b, "fig13") }
func BenchmarkFig14KSweep(b *testing.B)              { benchmarkExperiment(b, "fig14") }
func BenchmarkFig15FrameSweep(b *testing.B)          { benchmarkExperiment(b, "fig15") }
func BenchmarkFig16PerfPerAreaWatt(b *testing.B)     { benchmarkExperiment(b, "fig16") }
func BenchmarkTable6PlatformComparison(b *testing.B) { benchmarkExperiment(b, "table6") }
func BenchmarkFig17LatencyComparison(b *testing.B)   { benchmarkExperiment(b, "fig17") }
func BenchmarkHeadlineSpeedup(b *testing.B)          { benchmarkExperiment(b, "headline") }
func BenchmarkExactComparison(b *testing.B)          { benchmarkExperiment(b, "exactcmp") }
func BenchmarkFig7Timeline(b *testing.B)             { benchmarkExperiment(b, "fig7") }
func BenchmarkAblations(b *testing.B)                { benchmarkExperiment(b, "ablations") }

// Core-library micro-benchmarks: the software costs behind the paper's
// CPU baseline.

func benchFrames(b *testing.B, n int) (ref, qry []Point) {
	b.Helper()
	ref, qry = SuccessiveFrames(n, 1)
	b.ResetTimer()
	return ref, qry
}

func BenchmarkIndexBuild30k(b *testing.B) {
	ref, _ := benchFrames(b, 30000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = mustIndex(b, ref)
	}
}

func BenchmarkSearchApprox30k(b *testing.B) {
	ref, qry := SuccessiveFrames(30000, 1)
	ix := mustIndex(b, ref)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = mustQuery(b, ix, qry[i%len(qry)], QueryOptions{K: 8})
	}
}

func BenchmarkSearchExact30k(b *testing.B) {
	ref, qry := SuccessiveFrames(30000, 1)
	ix := mustIndex(b, ref)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = mustQuery(b, ix, qry[i%len(qry)], QueryOptions{K: 8, Mode: ModeExact})
	}
}

func BenchmarkSearchFrame30k(b *testing.B) {
	// The full successive-frame workload: the software equivalent of one
	// accelerator round.
	ref, qry := SuccessiveFrames(30000, 1)
	ix := mustIndex(b, ref)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mustQueryBatch(b, ix, qry, QueryOptions{K: 8, Workers: 1})
	}
}

func BenchmarkBruteForce30k(b *testing.B) {
	ref, qry := SuccessiveFrames(30000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BruteForce(ref, qry[i%len(qry)], 8)
	}
}

func BenchmarkIncrementalUpdate30k(b *testing.B) {
	frames := SyntheticFrames(30000, 2, 1)
	ix := mustIndex(b, frames[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Update(frames[1+i%1])
	}
}

func BenchmarkSimulateAccelerator8k(b *testing.B) {
	prev, cur := SuccessiveFrames(8000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SimulateAccelerator(prev, cur, SimConfig{FUs: 64, K: 8}, 1)
	}
}

func BenchmarkEstimateMotion8k(b *testing.B) {
	prev, cur := SuccessiveFrames(8000, 1)
	ix := mustIndex(b, prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EstimateMotion(ix, cur, ICPConfig{Iterations: 10, Subsample: 4})
	}
}
