// Command quicknn runs the successive-frame kNN workload end to end: it
// synthesizes a LiDAR drive, indexes each frame, searches the next frame
// against it, and reports software timings alongside the simulated
// QuickNN accelerator's cycle counts for the same frames.
//
// Usage:
//
//	quicknn -points 30000 -frames 4 -k 8 -fus 64
//	quicknn -mode incremental -frames 10
//	quicknn -input 'frames/frame_*.csv'       # real frames instead of synthetic
//	quicknn -trace out.json -metrics out.prom # observability artifacts
//
// With -trace, every simulated round's engine phases and DRAM events are
// stitched onto one drive timeline and written as Chrome trace-event JSON
// (load it at ui.perfetto.dev). With -metrics, the run's counters, gauges
// and histograms are written in Prometheus text format. See
// docs/observability.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/arch"
	qsim "github.com/quicknn/quicknn/internal/arch/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
)

func main() {
	var (
		points  = flag.Int("points", 30000, "points per frame (after ground removal)")
		frames  = flag.Int("frames", 4, "number of successive frames")
		k       = flag.Int("k", 8, "nearest neighbors per query")
		fus     = flag.Int("fus", 64, "functional units in the simulated accelerator")
		bucket  = flag.Int("bucket", 256, "k-d tree bucket size B_N")
		mode    = flag.String("mode", "rebuild", "tree maintenance: rebuild|static|incremental")
		seed    = flag.Int64("seed", 1, "workload seed")
		sim     = flag.Bool("sim", true, "also run the accelerator simulation")
		input   = flag.String("input", "", "glob of CSV frame files (x,y,z per line); overrides synthesis")
		trace   = flag.String("trace", "", "write a Chrome trace-event JSON timeline of the simulated rounds")
		metrics = flag.String("metrics", "", "write a Prometheus text-format metrics snapshot")
		flight  = flag.String("flightrecord", "", "write a JSON dump of per-frame flight records (phase split, throughput identity)")
	)
	flag.Parse()

	treeMode, ok := qsim.ParseTreeMode(*mode)
	if !ok {
		fmt.Fprintf(os.Stderr, "quicknn: unknown -mode %q\n", *mode)
		os.Exit(2)
	}

	// One sink covers the whole run: the software pipeline feeds the
	// registry, each simulated round feeds both the registry and the
	// tracer. A nil sink (no -trace/-metrics) keeps every hook inert.
	var sink *obs.Sink
	if *trace != "" || *metrics != "" || *flight != "" {
		sink = obs.NewSink("quicknn drive")
	}
	if *flight != "" {
		sink.Flight = obs.NewFlightRecorder(1024)
	}

	var drive [][]quicknn.Point
	if *input != "" {
		var err error
		drive, err = loadFrames(*input)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quicknn: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("loaded %d frames from %s\n", len(drive), *input)
	} else {
		fmt.Printf("synthesizing %d frames of %d points (seed %d)...\n", *frames, *points, *seed)
		drive = quicknn.SyntheticFrames(*points, *frames, *seed)
	}
	if len(drive) < 2 {
		fmt.Fprintln(os.Stderr, "quicknn: need at least two frames")
		os.Exit(1)
	}

	pipe := quicknn.NewPipeline(quicknn.PipelineConfig{
		K:          *k,
		BucketSize: *bucket,
		Mode:       treeMode,
		Seed:       *seed,
		Obs:        sink,
	})

	// Rounds restart their simulated clocks at zero; the tracer offset
	// stitches them into one drive timeline.
	var cum int64
	for fi, frame := range drive {
		start := time.Now()
		res := pipe.Process(frame)
		dur := time.Since(start)
		if fi == 0 {
			fmt.Printf("frame 0: built index over %d points in %v\n",
				pipe.Index().Len(), dur.Round(time.Microsecond))
			continue
		}
		found := 0
		for _, r := range res.Neighbors {
			found += len(r)
		}
		stats := res.IndexStats
		fmt.Printf("frame %d: software search+advance %d queries (k=%d) in %v (%.0f q/ms); buckets [%d..%d], mean %.0f\n",
			fi, len(frame), *k, dur.Round(time.Microsecond),
			float64(len(frame))/float64(dur.Milliseconds()+1), stats.Min, stats.Max, stats.Mean)

		if *sim {
			sink.Tr().SetOffset(cum)
			cfg := quicknn.SimConfig{FUs: *fus, K: *k, BucketSize: *bucket, Mode: treeMode, Obs: sink}
			rep := quicknn.SimulateAccelerator(drive[fi-1], frame, cfg, *seed)
			cum += rep.Cycles
			fmt.Printf("         accelerator (%d FUs): %d cycles = %.2f ms @100MHz → %.1f FPS, mem util %.0f%%\n",
				*fus, rep.Cycles, 1000*quicknn.CyclesToSeconds(rep.Cycles), rep.FPS, 100*rep.Mem.Utilization())
		}
		_ = found
	}
	sink.Tr().SetOffset(cum)

	if *metrics != "" {
		if err := writeMetrics(*metrics, sink); err != nil {
			fmt.Fprintf(os.Stderr, "quicknn: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *metrics)
	}
	if *trace != "" {
		if err := writeTrace(*trace, sink); err != nil {
			fmt.Fprintf(os.Stderr, "quicknn: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace (%d events) to %s — open it at ui.perfetto.dev\n",
			sink.Tr().Len(), *trace)
	}
	if *flight != "" {
		if err := writeFlight(*flight, sink); err != nil {
			fmt.Fprintf(os.Stderr, "quicknn: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d flight records to %s\n", len(sink.Fr().Snapshot()), *flight)
	}
}

// writeMetrics dumps the sink's registry in Prometheus text format.
func writeMetrics(path string, sink *obs.Sink) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sink.Reg().WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace dumps the sink's tracer as Chrome trace-event JSON; simulated
// timestamps are core cycles at the prototype's 100 MHz clock, so
// arch.CyclesPerMicrosecond converts them to Perfetto's microseconds.
func writeTrace(path string, sink *obs.Sink) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sink.Tr().WriteChrome(f, arch.CyclesPerMicrosecond); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFlight dumps the run's per-frame flight records as JSON, newest
// first, with the ring's bookkeeping alongside — the offline analog of
// quicknnd's /v1/debug/quicknn/flightrecorder endpoint.
func writeFlight(path string, sink *obs.Sink) error {
	fr := sink.Fr()
	dump := struct {
		Capacity int                `json:"capacity"`
		Total    uint64             `json:"total"`
		Dropped  uint64             `json:"dropped"`
		Records  []obs.FlightRecord `json:"records"`
	}{Capacity: fr.Cap(), Total: fr.Total(), Dropped: fr.Dropped(), Records: fr.Snapshot()}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(dump); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadFrames reads every CSV file matching the glob, in sorted name order.
func loadFrames(glob string) ([][]quicknn.Point, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no files match %q", glob)
	}
	sort.Strings(paths)
	frames := make([][]quicknn.Point, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		pts, err := quicknn.ReadFrameCSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		frames = append(frames, pts)
	}
	return frames, nil
}
