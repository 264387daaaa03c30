// Command benchjson turns two `go test -bench -benchmem` outputs — a
// checked-in baseline and a current run — into one machine-readable JSON
// report with per-benchmark ns/op, B/op, allocs/op and the
// baseline/current ratios. `make bench-hot` uses it to produce
// BENCH_hotpath.json (see docs/performance.md for the methodology), and
// can gate the run: benchmarks named with -gate must meet -min-speedup
// and -min-alloc-reduction or benchjson exits non-zero.
//
//	go test -run '^$' -bench '^BenchmarkHot' -benchmem ./... > current.txt
//	benchjson -baseline testdata/bench/hotpath_baseline.txt \
//	          -current current.txt -out BENCH_hotpath.json \
//	          -gate HotSearchAllApprox,HotQueryBatch \
//	          -min-speedup 1.4 -min-alloc-reduction 0.9 \
//	          -overhead-pair HotFlightRecordOn=HotFlightRecordOff \
//	          -max-overhead 1.05
//
// -overhead-pair names Enabled=Disabled benchmark pairs compared WITHIN
// the current run (the pair need not exist in the baseline); with
// -max-overhead the enabled/disabled ns ratio is gated, bounding what a
// feature — e.g. the flight recorder — may cost the hot path.
//
// Every report is stamped with the host it was produced on (CPU model,
// nproc, GOMAXPROCS, Go version). The make targets run benchjson right
// after the benchmarks it reads, so its own process sees the same host
// and the same GOMAXPROCS setting as the current run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Measurement is one benchmark's numbers from one run. Metrics holds
// the benchmark's custom b.ReportMetric figures keyed by unit (for
// example "points/query").
type Measurement struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Comparison is one benchmark's baseline/current pair plus derived
// ratios: Speedup = baseline ns / current ns (higher is better),
// AllocReduction = 1 - current allocs / baseline allocs (1.0 = all
// allocations eliminated; 0 when the baseline already allocated nothing).
type Comparison struct {
	Baseline       Measurement `json:"baseline"`
	Current        Measurement `json:"current"`
	Speedup        float64     `json:"speedup"`
	AllocReduction float64     `json:"alloc_reduction"`
}

// Overhead is one enabled/disabled benchmark pair measured WITHIN the
// current run (both halves come from -current, never the baseline, so a
// newly added pair gates on day one). Ratio = enabled ns / disabled ns;
// 1.0 means the feature is free.
type Overhead struct {
	DisabledName string      `json:"disabled_name"`
	Enabled      Measurement `json:"enabled"`
	Disabled     Measurement `json:"disabled"`
	Ratio        float64     `json:"ratio"`
}

// Host is the machine a report was produced on.
type Host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// currentHost describes the machine this process runs on.
func currentHost() Host {
	return Host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo, falling back to
// the architecture where that file does not exist.
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

// Report is the BENCH_*.json schema.
type Report struct {
	Host         Host                  `json:"host"`
	BaselineFile string                `json:"baseline_file"`
	CurrentFile  string                `json:"current_file"`
	Benchmarks   map[string]Comparison `json:"benchmarks"`
	// Overheads is keyed by the enabled benchmark's name (see -overhead-pair).
	Overheads map[string]Overhead `json:"overheads,omitempty"`
	// CurrentOnly holds the current run's benchmarks that have no line in
	// the baseline (added after it was frozen): reported, never gated.
	CurrentOnly map[string]Measurement `json:"current_only,omitempty"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "baseline `go test -bench` output file")
		currentPath  = flag.String("current", "", "current `go test -bench` output file (- = stdin)")
		outPath      = flag.String("out", "", "write the JSON report here (default stdout)")
		gateList     = flag.String("gate", "", "comma-separated benchmark names the thresholds apply to")
		minSpeedup   = flag.Float64("min-speedup", 0, "gated benchmarks must be at least this much faster (0 = no gate)")
		minAllocRed  = flag.Float64("min-alloc-reduction", 0, "gated benchmarks must cut allocs/op by at least this fraction (0 = no gate)")
		pairList     = flag.String("overhead-pair", "", "comma-separated Enabled=Disabled benchmark pairs compared within the current run")
		maxOverhead  = flag.Float64("max-overhead", 0, "overhead pairs must stay at or below this enabled/disabled ns ratio (0 = report only, no gate)")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -baseline and -current are required")
		os.Exit(2)
	}
	baseline, err := parseFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	current, err := parseFile(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	report := Report{
		Host:         currentHost(),
		BaselineFile: *baselinePath,
		CurrentFile:  *currentPath,
		Benchmarks:   make(map[string]Comparison),
	}
	for name, base := range baseline {
		cur, ok := current[name]
		if !ok {
			continue
		}
		c := Comparison{Baseline: base, Current: cur}
		if cur.NsPerOp > 0 {
			c.Speedup = base.NsPerOp / cur.NsPerOp
		}
		if base.AllocsPerOp > 0 {
			c.AllocReduction = 1 - cur.AllocsPerOp/base.AllocsPerOp
		}
		report.Benchmarks[name] = c
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark appears in both runs")
		os.Exit(1)
	}
	pairFailures := addOverheads(&report, current, *pairList, *maxOverhead)
	addCurrentOnly(&report, baseline, current)

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if *outPath == "" {
		os.Stdout.Write(out)
	} else if err := os.WriteFile(*outPath, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	failed := append(checkGates(report, *gateList, *minSpeedup, *minAllocRed), pairFailures...)
	if len(failed) > 0 {
		sort.Strings(failed)
		for _, msg := range failed {
			fmt.Fprintln(os.Stderr, "benchjson: GATE FAILED:", msg)
		}
		os.Exit(1)
	}
}

// addOverheads resolves the -overhead-pair list against the CURRENT run,
// records each pair in the report, and returns gate failures: a pair
// whose ratio exceeds maxOverhead, or (when gating) a pair with a
// missing half — a silently absent benchmark must not pass.
func addOverheads(report *Report, current map[string]Measurement, pairList string, maxOverhead float64) []string {
	if pairList == "" {
		return nil
	}
	var failed []string
	for _, pair := range strings.Split(pairList, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		enabledName, disabledName, ok := strings.Cut(pair, "=")
		if !ok {
			failed = append(failed, fmt.Sprintf("%s: malformed -overhead-pair entry (want Enabled=Disabled)", pair))
			continue
		}
		enabled, okE := current[enabledName]
		disabled, okD := current[disabledName]
		if !okE || !okD {
			if maxOverhead > 0 {
				failed = append(failed, fmt.Sprintf("%s: overhead pair incomplete in current run (enabled present: %v, disabled present: %v)",
					pair, okE, okD))
			}
			continue
		}
		o := Overhead{DisabledName: disabledName, Enabled: enabled, Disabled: disabled}
		if disabled.NsPerOp > 0 {
			o.Ratio = enabled.NsPerOp / disabled.NsPerOp
		}
		if report.Overheads == nil {
			report.Overheads = make(map[string]Overhead)
		}
		report.Overheads[enabledName] = o
		if maxOverhead > 0 && o.Ratio > maxOverhead {
			failed = append(failed, fmt.Sprintf("%s: overhead %.3fx over %s exceeds max %.3fx",
				enabledName, o.Ratio, disabledName, maxOverhead))
		}
	}
	return failed
}

// addCurrentOnly records the current run's benchmarks that neither have
// a baseline line nor belong to an overhead pair.
func addCurrentOnly(report *Report, baseline, current map[string]Measurement) {
	paired := make(map[string]bool)
	for enabled, o := range report.Overheads {
		paired[enabled], paired[o.DisabledName] = true, true
	}
	for name, cur := range current {
		if _, ok := baseline[name]; ok || paired[name] {
			continue
		}
		if report.CurrentOnly == nil {
			report.CurrentOnly = make(map[string]Measurement)
		}
		report.CurrentOnly[name] = cur
	}
}

// checkGates applies the thresholds to the named benchmarks and returns
// one message per violation (including gated benchmarks absent from the
// report — a silently skipped benchmark must not pass the gate).
func checkGates(report Report, gateList string, minSpeedup, minAllocRed float64) []string {
	if gateList == "" || (minSpeedup <= 0 && minAllocRed <= 0) {
		return nil
	}
	var failed []string
	for _, name := range strings.Split(gateList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, ok := report.Benchmarks[name]
		if !ok {
			failed = append(failed, fmt.Sprintf("%s: not present in both runs", name))
			continue
		}
		if minSpeedup > 0 && c.Speedup < minSpeedup {
			failed = append(failed, fmt.Sprintf("%s: speedup %.2fx < required %.2fx", name, c.Speedup, minSpeedup))
		}
		if minAllocRed > 0 && c.AllocReduction < minAllocRed {
			failed = append(failed, fmt.Sprintf("%s: alloc reduction %.1f%% < required %.1f%%",
				name, c.AllocReduction*100, minAllocRed*100))
		}
	}
	return failed
}

func parseFile(path string) (map[string]Measurement, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return parseBench(r, path)
}

// parseBench extracts benchmark result lines of the standard form
//
//	BenchmarkName-8   266   4487313 ns/op   573696 B/op   2050 allocs/op
//
// keyed by the benchmark name with the -GOMAXPROCS suffix stripped. Any
// other value-unit pair on the line is a custom metric.
func parseBench(r io.Reader, path string) (map[string]Measurement, error) {
	out := make(map[string]Measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var m Measurement
		seen := false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp, seen = v, true
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			default:
				if m.Metrics == nil {
					m.Metrics = make(map[string]float64)
				}
				m.Metrics[fields[i+1]] = v
			}
		}
		if seen {
			out[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	return out, nil
}
