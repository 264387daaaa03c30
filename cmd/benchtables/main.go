// Command benchtables regenerates the tables and figures of the QuickNN
// paper's evaluation (§6–§7) from this repository's models.
//
// Usage:
//
//	benchtables -exp all            # every experiment, paper order
//	benchtables -exp table5         # one experiment
//	benchtables -list               # list experiment ids
//	benchtables -exp fig15 -quick   # reduced workload sizes
//
// See DESIGN.md §3 for the experiment ↔ paper-artifact mapping and
// EXPERIMENTS.md for recorded paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/quicknn/quicknn/internal/bench"
	"github.com/quicknn/quicknn/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id, comma-separated list, or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		points  = flag.Int("points", 0, "frame size override (default 30000)")
		queries = flag.Int("queries", 0, "accuracy query count override (default 1000)")
		frames  = flag.Int("frames", 0, "sequence length override (default 12)")
		seed    = flag.Int64("seed", 1, "workload seed")
		quick   = flag.Bool("quick", false, "reduced workload sizes")
		mdir    = flag.String("metrics-dir", "", "write a Prometheus metrics snapshot per experiment to <dir>/<id>.prom")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := bench.Options{
		Points:  *points,
		Queries: *queries,
		Frames:  *frames,
		Seed:    *seed,
		Quick:   *quick,
	}

	var selected []bench.Experiment
	if *exp == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "benchtables: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *mdir != "" {
		if err := os.MkdirAll(*mdir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
			os.Exit(1)
		}
	}

	if err := run(os.Stdout, selected, opts, *mdir); err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		os.Exit(1)
	}
}

// run executes the selected experiments in order, writing each table and
// its "[id completed in d]" footer to w. With mdir set, a fresh metrics
// sink per experiment is dumped to <mdir>/<id>.prom.
func run(w io.Writer, selected []bench.Experiment, opts bench.Options, mdir string) error {
	for _, e := range selected {
		runOpts := opts
		if mdir != "" {
			// Fresh sink per experiment: the snapshot next to a table
			// describes that table only.
			runOpts.Obs = obs.NewSink("benchtables/" + e.ID)
		}
		start := time.Now()
		if err := bench.RunExperiment(e, w, runOpts); err != nil {
			return fmt.Errorf("%s: %v", e.ID, err)
		}
		if mdir != "" {
			if err := writeMetrics(filepath.Join(mdir, e.ID+".prom"), runOpts.Obs); err != nil {
				return fmt.Errorf("%s: %v", e.ID, err)
			}
		}
		fmt.Fprintf(w, "[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
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
