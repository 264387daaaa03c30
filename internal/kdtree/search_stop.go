package kdtree

import (
	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/nn"
)

// This file holds the cancellable variants of the backtracking searches.
// Each takes a stop predicate that is polled once per bucket visit — the
// natural quantum of work in the bucketed tree (a bucket scan is B_N
// distance tests, a few microseconds) — and reports stopped=true when the
// search was abandoned. The predicate is the hook the root package's
// context-aware Query API plugs ctx.Err checks into; keeping kdtree free
// of the context package preserves its zero-dependency, simulation-grade
// surface. The *StopInto forms additionally take a caller-owned Scratch
// and dst, making the cancellable paths allocation-free too; a nil stop
// degenerates to the plain search.

// SearchExactStop is SearchExact with a cancellation hook: stop is polled
// before every bucket scan, and a true return abandons the search. The
// partial candidate list is discarded (results are nil when stopped).
func (t *Tree) SearchExactStop(query geom.Point, k int, stop func() bool) (res []nn.Neighbor, stats SearchStats, stopped bool) {
	s := getScratch()
	res, stats, stopped = t.SearchExactStopInto(query, k, s, nil, stop)
	putScratch(s)
	return res, stats, stopped
}

// SearchExactStopInto is the scratch-reusing, dst-appending form of
// SearchExactStop. When stopped, dst is returned unextended (res keeps
// the caller's prefix; no partial results are appended).
func (t *Tree) SearchExactStopInto(query geom.Point, k int, s *Scratch, dst []nn.Neighbor, stop func() bool) (res []nn.Neighbor, stats SearchStats, stopped bool) {
	s.initCands(k)
	if t.searchExactCore(query, tightBounds, s, &stats, stop, nil) {
		return stopReturn(dst), stats, true
	}
	return t.appendCands(dst, s.cands), stats, false
}

// SearchChecksStop is SearchChecks with a cancellation hook: stop is
// polled before every deferred-branch descent (each descent ends in one
// bucket scan). A true return abandons the search with nil results.
func (t *Tree) SearchChecksStop(query geom.Point, k, checks int, stop func() bool) (res []nn.Neighbor, stats SearchStats, stopped bool) {
	s := getScratch()
	res, stats, stopped = t.SearchChecksStopInto(query, k, checks, s, nil, stop)
	putScratch(s)
	return res, stats, stopped
}

// SearchChecksStopInto is the scratch-reusing, dst-appending form of
// SearchChecksStop.
func (t *Tree) SearchChecksStopInto(query geom.Point, k, checks int, s *Scratch, dst []nn.Neighbor, stop func() bool) (res []nn.Neighbor, stats SearchStats, stopped bool) {
	s.initCands(k)
	if t.searchChecksCore(query, checks, s, &stats, stop) {
		return stopReturn(dst), stats, true
	}
	return t.appendCands(dst, s.cands), stats, false
}

// SearchRadiusStop is SearchRadius with a cancellation hook: stop is
// polled before every bucket scan. A true return abandons the search with
// nil results.
func (t *Tree) SearchRadiusStop(query geom.Point, radius float64, stop func() bool) (res []nn.Neighbor, stats SearchStats, stopped bool) {
	s := getScratch()
	res, stats, stopped = t.SearchRadiusStopInto(query, radius, s, nil, stop)
	putScratch(s)
	return res, stats, stopped
}

// SearchRadiusStopInto is the scratch-reusing, dst-appending form of
// SearchRadiusStop. When stopped, any matches already appended to dst are
// discarded: the returned slice is the caller's prefix, unextended.
func (t *Tree) SearchRadiusStopInto(query geom.Point, radius float64, s *Scratch, dst []nn.Neighbor, stop func() bool) (res []nn.Neighbor, stats SearchStats, stopped bool) {
	base := len(dst)
	out, stopped := t.searchRadiusCore(query, radius, s, dst, &stats, stop)
	if stopped {
		return stopReturn(out[:base]), stats, true
	}
	return out, stats, false
}

// stopReturn normalizes the abandoned-search result: a nil dst stays nil
// (preserving the historical "results are nil when stopped" contract),
// a caller-owned dst is returned unextended.
func stopReturn(dst []nn.Neighbor) []nn.Neighbor {
	if len(dst) == 0 && cap(dst) == 0 {
		return nil
	}
	return dst
}
