package simplekd

import (
	"math/rand"
	"testing"

	"github.com/quicknn/quicknn/internal/arch/lineararch"
	"github.com/quicknn/quicknn/internal/arch/quicknn"
	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/kdtree"
)

func frames(n int, seed int64) (prev, cur []geom.Point) {
	rng := rand.New(rand.NewSource(seed))
	prev = make([]geom.Point, n)
	for i := range prev {
		prev[i] = geom.Point{X: rng.Float32()*100 - 50, Y: rng.Float32()*100 - 50, Z: rng.Float32() * 4}
	}
	return prev, (geom.Transform{Translation: geom.Point{X: 0.8}}).ApplyAll(prev)
}

func TestFig12Ordering(t *testing.T) {
	// Fig. 12: Linear ≫ Simple k-d ≫ QuickNN in external memory accesses.
	if testing.Short() {
		t.Skip("large frames in -short mode")
	}
	prev, cur := frames(20000, 1)
	tree := kdtree.Build(prev, kdtree.Config{BucketSize: 256}, rand.New(rand.NewSource(2)))

	simple := Simulate(tree, cur, Config{FUs: 64, K: 8}, checkedProto(), 3)
	quick := quicknn.SimulateFrame(tree, cur, quicknn.Config{FUs: 64, K: 8},
		checkedProto(), 3)
	lin := lineararch.Simulate(prev, cur, lineararch.Config{FUs: 64, K: 8},
		checkedProto())

	lb, sb, qb := lin.Mem.TotalBurstBytes(), simple.Mem.TotalBurstBytes(), quick.Mem.TotalBurstBytes()
	if !(lb > sb && sb > qb) {
		t.Fatalf("traffic ordering violated: linear=%d simple=%d quicknn=%d", lb, sb, qb)
	}
	if ratio := float64(sb) / float64(qb); ratio < 3 {
		t.Errorf("simple/quicknn traffic = %.1f×, want ≫ (paper ~13×)", ratio)
	}
	if simple.Cycles <= quick.Cycles {
		t.Errorf("simple k-d (%d cycles) should be slower than QuickNN (%d)",
			simple.Cycles, quick.Cycles)
	}
}

func TestSameComputationAsQuickNN(t *testing.T) {
	// The baseline performs identical searches — results must match.
	prev, cur := frames(2000, 4)
	tree := kdtree.Build(prev, kdtree.Config{BucketSize: 128}, rand.New(rand.NewSource(5)))
	cfg := Config{FUs: 16, K: 4, BucketSize: 128}
	full := quicknn.Config{
		FUs: 16, K: 4, BucketSize: 128,
		DisableStreamMerge: true, DisableWriteGather: true,
		DisableReadGather: true, TreeInDRAM: true, ComputeResults: true,
	}
	rep := quicknn.SimulateFrame(tree, cur, full, checkedProto(), 6)
	_ = cfg
	for qi, q := range cur {
		want, _ := tree.Search(q, kdtree.Spec{K: 4})
		got := rep.Results[qi]
		if len(got) != len(want) {
			t.Fatalf("query %d: %d vs %d results", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d mismatch", qi, i)
			}
		}
	}
}
