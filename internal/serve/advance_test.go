package serve

import (
	"bytes"
	"context"
	"testing"

	"github.com/quicknn/quicknn"
)

// TestEngineAndPipelineBuildTheSameTrees drives a Pipeline and an Engine
// with equal bucket size, seed and ingest workers through the same frames:
// both advance through quicknn.Index.Advance, so after every frame their
// indexes must serialize byte for byte alike, in every tree mode.
func TestEngineAndPipelineBuildTheSameTrees(t *testing.T) {
	frames := quicknn.SyntheticFrames(4000, 5, 66)
	for _, mode := range []quicknn.TreeMode{quicknn.ModeRebuild, quicknn.ModeStatic, quicknn.ModeIncremental} {
		p := quicknn.NewPipeline(quicknn.PipelineConfig{K: 4, BucketSize: 64, Seed: 9, IngestWorkers: 2, Mode: mode})
		e := NewEngine(Config{BucketSize: 64, Seed: 9, IngestWorkers: 2, Maintenance: mode})
		for f, frame := range frames {
			p.Process(frame)
			if _, err := e.Advance(context.Background(), frame); err != nil {
				t.Fatalf("%v frame %d: Advance: %v", mode, f, err)
			}
			pix, eix := p.Index(), e.Index()
			var pdump, edump bytes.Buffer
			if _, err := pix.WriteTo(&pdump); err != nil {
				t.Fatal(err)
			}
			if _, err := eix.WriteTo(&edump); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pdump.Bytes(), edump.Bytes()) {
				t.Fatalf("%v frame %d: pipeline and engine dumps differ (%d vs %d bytes)",
					mode, f, pdump.Len(), edump.Len())
			}
			if pix.Stats() != eix.Stats() || pix.Depth() != eix.Depth() {
				t.Fatalf("%v frame %d: pipeline stats %+v depth %d, engine %+v depth %d",
					mode, f, pix.Stats(), pix.Depth(), eix.Stats(), eix.Depth())
			}
		}
		if err := e.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
