package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/serve"
)

// This file is the benchmark's answer oracle. It shares no code with the
// program under test: distances are recomputed here from the frames the
// benchmark generated, and the exact neighbours come from a brute-force
// scan over the answering epoch's frame.

// distSq is the squared distance the index reports: coordinates are
// widened to float64 before subtracting, as the tree's scan does.
// Subtracting in float32 first disagrees with a correct exact search on
// a few percent of queries.
func distSq(a, b quicknn.Point) float64 {
	dx := float64(a.X) - float64(b.X)
	dy := float64(a.Y) - float64(b.Y)
	dz := float64(a.Z) - float64(b.Z)
	return dx*dx + dy*dy + dz*dz
}

// bruteForce returns the k smallest squared distances from q to ref,
// ascending.
func bruteForce(ref []quicknn.Point, q quicknn.Point) [knn]float64 {
	var best [knn]float64
	n := 0
	for _, p := range ref {
		d := distSq(q, p)
		if n == knn && d >= best[knn-1] {
			continue
		}
		j := n
		if n < knn {
			n++
		} else {
			j = knn - 1
		}
		for j > 0 && best[j-1] > d {
			best[j] = best[j-1]
			j--
		}
		best[j] = d
	}
	return best
}

// wrongAnswer marks a check failure: the program answered, but not
// correctly (as opposed to an error or refusal).
type wrongAnswer struct{ msg string }

func (w wrongAnswer) Error() string { return w.msg }

func wrongf(format string, args ...any) error { return wrongAnswer{fmt.Sprintf(format, args...)} }

// checkAnswer verifies one query's neighbour list against the frame the
// answering epoch was built from: k neighbours, nearest first, distinct
// in-range indices, and every point and squared distance as recomputed
// here.
func checkAnswer(q quicknn.Point, got []quicknn.Neighbor, ref []quicknn.Point) error {
	if len(got) != knn {
		return wrongf("%d neighbours, want %d", len(got), knn)
	}
	for i, nb := range got {
		if nb.Index < 0 || nb.Index >= len(ref) {
			return wrongf("neighbour %d index %d outside [0,%d)", i, nb.Index, len(ref))
		}
		if nb.Point != ref[nb.Index] {
			return wrongf("neighbour %d point %v, frame holds %v at %d", i, nb.Point, ref[nb.Index], nb.Index)
		}
		if d := distSq(q, ref[nb.Index]); nb.DistSq != d {
			return wrongf("neighbour %d dist_sq %v, recomputed %v", i, nb.DistSq, d)
		}
		if i > 0 && nb.DistSq < got[i-1].DistSq {
			return wrongf("neighbours not sorted at %d", i)
		}
		for _, prev := range got[:i] {
			if prev.Index == nb.Index {
				return wrongf("index %d repeated", nb.Index)
			}
		}
	}
	return nil
}

// tally counts a run's operations: every request and every frame
// advance is one. An operation fails on any error or refusal; a failed
// answer check also makes the run incorrect.
type tally struct {
	attempted, failed, wrong atomic.Int64
	notes                    atomic.Int64
}

// record counts one operation and its outcome.
func (t *tally) record(what string, err error) {
	t.attempted.Add(1)
	if err != nil {
		t.fail(what, err)
	}
}

// fail marks an already counted operation failed.
func (t *tally) fail(what string, err error) {
	t.failed.Add(1)
	if errors.As(err, new(wrongAnswer)) {
		t.wrong.Add(1)
	}
	if t.notes.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// sample is one query kept for scoring after the timed loop: the frame
// its answering epoch was built from, the query point, and the answered
// distances.
type sample struct {
	ref []quicknn.Point
	q   quicknn.Point
	got [knn]float64
	op  int64 // request the query rode in, for failing it afterwards
}

// samples collects the deterministic scoring sample of a run: the
// queries of the first round whose index within the frame is a multiple
// of sampleStride. Later rounds repeat the same steps, so the sample —
// and recall_at_8 — is fixed by the seed, not by how long the run was.
type samples struct {
	mu    sync.Mutex
	items []sample
}

// add keeps the sampled queries of one answered request.
func (s *samples) add(p *plan, st stepID, r int, op int64, answers [][]quicknn.Neighbor) {
	if st.round > 0 {
		return
	}
	off, _ := p.querySpan(p.frame(st), r)
	first := (sampleStride - off%sampleStride) % sampleStride
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := first; i < len(answers); i += sampleStride {
		sm := sample{ref: p.prev(st), q: p.frame(st)[off+i], op: op}
		for j := range sm.got {
			sm.got[j] = -1 // short answers never match a reference
			if j < len(answers[i]) {
				sm.got[j] = answers[i][j].DistSq
			}
		}
		s.items = append(s.items, sm)
	}
}

// score runs the brute-force reference over the sample. recall is the
// paper's per-neighbour accuracy (Table 1, Fig. 3 at x=0): the mean
// share of the true 8 nearest that the answer holds, counted by
// distance so that ties pass. With exact set, any answer whose sorted
// distances differ from the reference fails its request.
func (s *samples) score(exact bool, t *tally) (recall float64, n int) {
	items := s.items
	hits := make([]int, len(items))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(items); i += workers {
				want := bruteForce(items[i].ref, items[i].q)
				if exact && items[i].got != want {
					hits[i] = -1
					continue
				}
				for _, d := range items[i].got {
					if d >= 0 && d <= want[knn-1] {
						hits[i]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	failedOps := map[int64]bool{}
	total := 0
	for i, h := range hits {
		if h < 0 {
			if !failedOps[items[i].op] {
				failedOps[items[i].op] = true
				t.fail("exact check", wrongf("query %v: distances %v, brute force %v",
					items[i].q, items[i].got, bruteForce(items[i].ref, items[i].q)))
			}
			continue
		}
		total += h
	}
	if len(items) == 0 {
		return 0, 0
	}
	return float64(total) / float64(knn*len(items)), len(items)
}

// checkResult verifies an engine answer: the epoch that answered, one
// neighbour list per query, and each list against the epoch's frame.
func checkResult(res serve.QueryResult, epoch uint64, q, ref []quicknn.Point) error {
	if err := expectEpoch(res.Epoch, epoch); err != nil {
		return err
	}
	if len(res.Results) != len(q) {
		return wrongf("%d answers for %d queries", len(res.Results), len(q))
	}
	for i := range q {
		if err := checkAnswer(q[i], res.Results[i], ref); err != nil {
			return err
		}
	}
	return nil
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
