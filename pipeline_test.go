package quicknn

import (
	"math"
	"testing"
)

func TestPipelineFirstFrameBuildsOnly(t *testing.T) {
	frames := SyntheticFrames(3000, 2, 60)
	p := NewPipeline(PipelineConfig{})
	res := p.Process(frames[0])
	if res.FrameIndex != 0 || res.Neighbors != nil {
		t.Errorf("first frame should only build: %+v", res)
	}
	if p.Index() == nil || p.Index().Len() != 3000 {
		t.Fatal("index not built")
	}
}

func TestPipelineSearchesAgainstPreviousFrame(t *testing.T) {
	frames := SyntheticFrames(3000, 3, 61)
	p := NewPipeline(PipelineConfig{K: 4})
	p.Process(frames[0])
	prevIndex := mustIndex(t, frames[0]) // independent reference
	res := p.Process(frames[1])
	if len(res.Neighbors) != len(frames[1]) {
		t.Fatalf("neighbors = %d", len(res.Neighbors))
	}
	for qi := 0; qi < len(frames[1]); qi += 211 {
		want := mustQuery(t, prevIndex, frames[1][qi], QueryOptions{K: 4})
		got := res.Neighbors[qi]
		if len(got) != len(want) {
			t.Fatal("length mismatch")
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatal("pipeline searched the wrong reference frame")
			}
		}
	}
	// After processing, the index holds frame 1 for the next round.
	res2 := p.Process(frames[2])
	if res2.FrameIndex != 2 || len(res2.Neighbors) != len(frames[2]) {
		t.Errorf("round 2: %+v", res2.FrameIndex)
	}
}

func TestPipelineModes(t *testing.T) {
	frames := SyntheticFrames(3000, 4, 62)
	for _, mode := range []PipelineConfig{
		{Mode: ModeRebuild},
		{Mode: ModeStatic},
		{Mode: ModeIncremental},
	} {
		p := NewPipeline(mode)
		for _, f := range frames {
			p.Process(f)
		}
		if p.Index().Len() != 3000 {
			t.Errorf("mode %v: index holds %d points", mode.Mode, p.Index().Len())
		}
		if mode.Mode == ModeIncremental {
			if s := p.Index().Stats(); s.Max > 512 {
				t.Errorf("incremental pipeline bucket max = %d", s.Max)
			}
		}
	}
}

func TestPipelineMotionCompensation(t *testing.T) {
	frames := SyntheticFrames(6000, 2, 63)
	plain := NewPipeline(PipelineConfig{K: 1})
	comp := NewPipeline(PipelineConfig{K: 1, EstimateMotion: true,
		ICP: ICPConfig{Iterations: 15, Subsample: 2}})
	plain.Process(frames[0])
	comp.Process(frames[0])
	plainRes := plain.Process(frames[1])
	compRes := comp.Process(frames[1])
	if compRes.Motion.Pairs == 0 {
		t.Fatal("motion estimation did not run")
	}
	// Compensation must reduce the median nearest-neighbor residual.
	med := func(rs [][]Neighbor) float64 {
		var ds []float64
		for _, r := range rs {
			if len(r) > 0 {
				ds = append(ds, math.Sqrt(r[0].DistSq))
			}
		}
		return quantile(ds, 0.5)
	}
	mPlain, mComp := med(plainRes.Neighbors), med(compRes.Neighbors)
	if mComp >= mPlain {
		t.Errorf("compensation did not help: median %.3f vs %.3f", mComp, mPlain)
	}
}
