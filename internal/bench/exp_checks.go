package bench

import (
	"io"

	"github.com/quicknn/quicknn/internal/kdtree"
	"github.com/quicknn/quicknn/internal/linear"
)

func init() {
	register(Experiment{
		ID:    "checks",
		Title: "FLANN-style accuracy vs check budget (the CPU baseline's tuning knob)",
		Run:   runChecks,
	})
}

// runChecks sweeps the best-bin-first check budget from the hardware's
// single-bucket point to near-exact, charting the accuracy/cost curve the
// software baseline tunes (§7: FLANN) and locating the paper's two
// hardware operating points (approximate ≙ checks=0, exact ≙ unlimited)
// on it.
func runChecks(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	ref, qry := framePair(opts.Points, opts.Seed)
	queries := qry
	if len(queries) > opts.Queries {
		queries = queries[:opts.Queries]
	}
	tree := buildTree(ref, 256, opts.Seed)
	budgets := []int{0, 512, 1024, 2048, 4096, 8192}
	if err := header(w, "Accuracy vs best-bin-first check budget (k=1)"); err != nil {
		return err
	}
	if err := fprintf(w, "%-9s %-9s %-14s %-10s\n", "Checks", "Recall", "PtsScanned/q", "Buckets/q"); err != nil {
		return err
	}
	for _, budget := range budgets {
		hits := 0
		var scanned, buckets int
		for _, q := range queries {
			exact := linear.Search(ref, q, 1)
			res, stats := tree.Search(q, kdtree.Spec{Mode: kdtree.Checks, K: 1, Checks: budget})
			scanned += stats.PointsScanned
			buckets += stats.BucketsVisited
			if len(res) > 0 && len(exact) > 0 && res[0].Index == exact[0].Index {
				hits++
			}
		}
		nq := float64(len(queries))
		if err := fprintf(w, "%-9d %-9.1f %-14.0f %-10.1f\n",
			budget, 100*float64(hits)/nq, float64(scanned)/nq, float64(buckets)/nq); err != nil {
			return err
		}
	}
	return fprintf(w, "(checks=0 is the hardware's single-bucket search; recall climbs toward exact as the budget grows)\n")
}
