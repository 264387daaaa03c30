package bench

import (
	"io"
	"math/rand"
	"time"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/kdtree"
	"github.com/quicknn/quicknn/internal/kmeans"
	"github.com/quicknn/quicknn/internal/linear"
	"github.com/quicknn/quicknn/internal/lsh"
	"github.com/quicknn/quicknn/internal/nn"
)

func init() {
	register(Experiment{
		ID:    "annbench",
		Title: "Software recall-vs-throughput curves (ann-benchmarks style)",
		Run:   runANNBench,
	})
}

// runANNBench measures, on the host CPU, the recall/throughput operating
// curve of every software search method — the standard way approximate-NN
// libraries are compared, and the context for Table 1's single-point
// accuracy column. Throughput numbers are host-dependent; the curve
// shapes are the point.
func runANNBench(w io.Writer, opts Options) error {
	opts = opts.withDefaults()
	ref, qry := framePair(opts.Points, opts.Seed)
	queries := qry
	if len(queries) > opts.Queries {
		queries = queries[:opts.Queries]
	}
	const k = 8
	exact := make([][]nn.Neighbor, len(queries))
	for i, q := range queries {
		exact[i] = linear.Search(ref, q, k)
	}
	recallOf := func(res []nn.Neighbor, truth []nn.Neighbor) float64 {
		hits := 0
		for _, e := range truth {
			for _, r := range res {
				if r.Index == e.Index {
					hits++
					break
				}
			}
		}
		return float64(hits) / float64(len(truth))
	}

	if err := header(w, "Recall vs throughput on the host CPU (k=8)"); err != nil {
		return err
	}
	if err := fprintf(w, "%-26s %-9s %-12s\n", "Method / operating point", "Recall", "Queries/s"); err != nil {
		return err
	}
	measure := func(name string, search func(q geom.Point) []nn.Neighbor) error {
		var recall float64
		start := time.Now()
		for i, q := range queries {
			recall += recallOf(search(q), exact[i])
		}
		elapsed := time.Since(start).Seconds()
		qps := float64(len(queries)) / elapsed
		return fprintf(w, "%-26s %-9.1f %-12.0f\n", name, 100*recall/float64(len(queries)), qps)
	}

	tree := buildTree(ref, 256, opts.Seed)
	for _, checks := range []int{0, 1024, 4096} {
		checks := checks
		name := "k-d tree"
		if checks == 0 {
			name += " (1 bucket)"
		} else {
			name += " (checks=" + fmtInt(checks) + ")"
		}
		if err := measure(name, func(q geom.Point) []nn.Neighbor {
			res, _ := tree.Search(q, kdtree.Spec{Mode: kdtree.Checks, K: k, Checks: checks})
			return res
		}); err != nil {
			return err
		}
	}

	km := kmeans.Build(ref, kmeans.DefaultConfig(), rand.New(rand.NewSource(opts.Seed)))
	for _, checks := range []int{0, 1024} {
		checks := checks
		if err := measure("k-means tree (checks="+fmtInt(checks)+")", func(q geom.Point) []nn.Neighbor {
			res, _ := km.Search(q, k, checks)
			return res
		}); err != nil {
			return err
		}
	}

	idx := lsh.Build(ref, lsh.DefaultConfig(), rand.New(rand.NewSource(opts.Seed)))
	if err := measure("LSH (default)", func(q geom.Point) []nn.Neighbor {
		res, _ := idx.Search(q, k)
		return res
	}); err != nil {
		return err
	}

	if err := measure("linear (exact)", func(q geom.Point) []nn.Neighbor {
		return linear.Search(ref, q, k)
	}); err != nil {
		return err
	}
	return fprintf(w, "(throughput is host-dependent; the shape — recall bought with points scanned — is the result)\n")
}
