package quicknn

import (
	"testing"

	"github.com/quicknn/quicknn/internal/obs"
)

// TestPipelineObsMetrics checks the per-frame software metrics the
// pipeline publishes: frame/point counters, build/search wall-time
// histograms, and index-shape gauges.
func TestPipelineObsMetrics(t *testing.T) {
	frames := SyntheticFrames(1500, 3, 11)
	sink := obs.NewSink("pipeline")
	p := NewPipeline(PipelineConfig{K: 4, BucketSize: 128, Obs: sink})
	for _, f := range frames {
		p.Process(f)
	}

	snap := sink.Reg().Snapshot()
	if fam, _ := snap.Find("quicknn_pipeline_frames_total"); fam.Series[0].Counter != 3 {
		t.Errorf("frames_total = %d, want 3", fam.Series[0].Counter)
	}
	var wantPoints int64
	for _, f := range frames {
		wantPoints += int64(len(f))
	}
	if fam, _ := snap.Find("quicknn_pipeline_points_total"); fam.Series[0].Counter != wantPoints {
		t.Errorf("points_total = %d, want %d", fam.Series[0].Counter, wantPoints)
	}
	// Build time is observed for every frame, search time only for the
	// frames that had a previous index to search against.
	if fam, _ := snap.Find("quicknn_pipeline_build_seconds"); fam.Series[0].Count != 3 {
		t.Errorf("build_seconds samples = %d, want 3", fam.Series[0].Count)
	}
	if fam, _ := snap.Find("quicknn_pipeline_search_seconds"); fam.Series[0].Count != 2 {
		t.Errorf("search_seconds samples = %d, want 2", fam.Series[0].Count)
	}
	if fam, ok := snap.Find("quicknn_pipeline_queries_per_second"); !ok || fam.Series[0].Gauge <= 0 {
		t.Errorf("queries_per_second gauge missing or non-positive")
	}
	if fam, _ := snap.Find("quicknn_pipeline_tree_depth"); fam.Series[0].Gauge <= 0 {
		t.Errorf("tree_depth gauge = %v", fam.Series[0].Gauge)
	}
	st := p.Index().Stats()
	if fam, _ := snap.Find("quicknn_pipeline_bucket_max"); fam.Series[0].Gauge != float64(st.Max) {
		t.Errorf("bucket_max gauge = %v, want %d", fam.Series[0].Gauge, st.Max)
	}
}

// TestPipelineNilSinkUnchanged pins that a pipeline without a sink
// behaves identically (results-wise) to one with a sink.
func TestPipelineNilSinkUnchanged(t *testing.T) {
	frames := SyntheticFrames(800, 3, 5)
	base := NewPipeline(PipelineConfig{K: 4, BucketSize: 128})
	inst := NewPipeline(PipelineConfig{K: 4, BucketSize: 128, Obs: obs.NewSink("x")})
	for i, f := range frames {
		a := base.Process(f)
		b := inst.Process(f)
		if len(a.Neighbors) != len(b.Neighbors) {
			t.Fatalf("frame %d: neighbor counts differ", i)
		}
		for q := range a.Neighbors {
			if len(a.Neighbors[q]) != len(b.Neighbors[q]) {
				t.Fatalf("frame %d query %d: result lengths differ", i, q)
			}
			for j := range a.Neighbors[q] {
				if a.Neighbors[q][j] != b.Neighbors[q][j] {
					t.Fatalf("frame %d query %d: results differ", i, q)
				}
			}
		}
	}
}

// TestIndexDepth covers the Depth accessor the pipeline metrics use.
func TestIndexDepth(t *testing.T) {
	pts := SyntheticFrames(2000, 1, 3)[0]
	ix := mustIndex(t, pts, WithBucketSize(64))
	if d := ix.Depth(); d <= 0 {
		t.Fatalf("Depth = %d, want > 0 for %d points with bucket 64", d, len(pts))
	}
}

// TestPipelineFlightRecords checks the per-frame flight records: one per
// processed frame, identified by the 1-based frame count, with the
// build/search phase split in the window/exec slots.
func TestPipelineFlightRecords(t *testing.T) {
	frames := SyntheticFrames(1200, 3, 7)
	sink := obs.NewSink("pipeline")
	sink.Flight = obs.NewFlightRecorder(64)
	p := NewPipeline(PipelineConfig{K: 4, BucketSize: 128, Obs: sink})
	for _, f := range frames {
		p.Process(f)
	}

	recs := sink.Fr().Snapshot()
	if len(recs) != 3 {
		t.Fatalf("flight ring has %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		wantFrame := uint64(3 - i) // newest first
		if rec.ID != wantFrame || rec.Epoch != wantFrame {
			t.Errorf("record %d: ID/Epoch = %d/%d, want %d", i, rec.ID, rec.Epoch, wantFrame)
		}
		if rec.Queries != 1200 || rec.K != 4 || rec.Outcome != obs.OutcomeOK {
			t.Errorf("record %d identity wrong: %+v", i, rec)
		}
		if rec.Window <= 0 || rec.Total < rec.Window+rec.Exec {
			t.Errorf("record %d phase split wrong: %+v", i, rec)
		}
		// Only the first frame (index build, no search) has zero exec.
		if wantFrame > 1 && rec.Exec <= 0 {
			t.Errorf("record %d (frame %d) has no search time: %+v", i, wantFrame, rec)
		}
	}
}
