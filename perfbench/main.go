// Command perfbench is the repository's end-to-end benchmark. It drives
// the QuickNN serving stack at the paper's operating point (30,000
// points per frame after ground removal, k=8, bucket 256) on one of
// three workloads, checks every answer against a reference computed in
// this package, and prints one JSON result line:
//
//	perfbench --workload drive_incremental --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer ledger (see README.md). Run it
// through run.sh from the repository root, which builds this package and
// quicknnd from source first.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/serve"
)

// The paper's operating point (§4.4, Fig. 7) and the drive shape.
const (
	framePoints = 30000 // points per frame after ground removal
	knn         = 8     // neighbours per query
	bucketSize  = 256   // k-d tree bucket target B_N
	engineSeed  = 1     // tree-construction seed (quicknnd's default)
	// A run replays drivesPerRun short drives of driveFrames successive
	// frames each. Search cost depends on the scene, so a run spans many
	// scenes to keep its figures from depending on which ones the seed
	// drew.
	drivesPerRun = 24
	driveFrames  = 2
	// sampleStride picks the recall/exactness sample: every query whose
	// index within its frame is a multiple of it, on the first round.
	sampleStride = 128
)

// workload is one traffic mix: how the index advances, which search
// mode answers, and the request shape of a frame's search phase.
type workload struct {
	name  string
	maint serve.Maintenance
	mode  quicknn.QueryMode
	// reqPoints query points per request, reqsPerStep requests per
	// frame, split round-robin over callers concurrent closed-loop
	// callers.
	reqPoints, reqsPerStep, callers int
	// wire sends the requests to a quicknnd process over HTTP instead
	// of calling an in-process engine.
	wire bool
}

var workloads = []workload{
	{name: "drive_incremental", maint: serve.MaintIncremental, mode: quicknn.ModeApprox,
		reqPoints: 1000, reqsPerStep: 30, callers: 1},
	{name: "drive_rebuild_exact", maint: serve.MaintRebuild, mode: quicknn.ModeExact,
		reqPoints: 1000, reqsPerStep: 30, callers: 1},
	{name: "wire_search", maint: serve.MaintRebuild, mode: quicknn.ModeApprox,
		reqPoints: 64, reqsPerStep: 50, callers: 2, wire: true},
}

// options are the parsed command line.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	quicknnd string // quicknnd binary for the wire layer
	workDir  string // scratch and cache directory inside the checkout
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: drive_incremental, drive_rebuild_exact or wire_search")
	seed := fs.Int64("seed", 1, "workload seed: drives the synthetic LiDAR frames")
	seconds := fs.Float64("seconds", 20, "measured run length; the run ends at the first whole round past it")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	daemon := fs.String("quicknnd", ".bench_build/bin/quicknnd", "quicknnd binary built from this tree")
	workDir := fs.String("work-dir", ".bench_build/perfbench", "frame cache and trace output directory")
	genFrames := fs.String("gen-frames", "", "internal: generate the seed's frames into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *genFrames != "" {
		if err := writeDrives(*genFrames, *seed); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, quicknnd: *daemon, workDir: *workDir}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			o.workload, found = w, true
		}
	}
	if !found || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := execute(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// execute loads the frames and runs the workload, untraced or traced.
func execute(ctx context.Context, o options, stdout io.Writer) (result, error) {
	drives, err := loadDrives(ctx, o)
	if err != nil {
		return result{}, err
	}
	p := newPlan(o.workload, drives)
	var t tally
	run := runInProcess
	if o.workload.wire {
		run = runWire
	}
	e2e, err := run(ctx, o, p, &t)
	if err != nil {
		return result{}, err
	}
	metrics := e2e.metrics()
	if o.trace {
		metrics, err = traceLayers(ctx, o, p, e2e, &t, stdout)
		if err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(stdout, "%s seed=%d: %d steps, %d requests, %d set-ups, recall over %d sampled queries; %d operations, %d failed, %d wrong answers\n",
		o.workload.name, o.seed, e2e.steps, len(e2e.latency), len(e2e.setup), e2e.recallN,
		t.attempted.Load(), t.failed.Load(), t.wrong.Load())
	return result{
		Correct:   t.wrong.Load() == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   metrics,
	}, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// cpuModel reads the host CPU model for the result header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
