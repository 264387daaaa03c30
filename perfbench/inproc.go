package main

import (
	"context"
	"fmt"
	"os"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
	"github.com/quicknn/quicknn/internal/serve"
)

// newEngine builds an engine configured and observed as quicknnd
// configures its own with default flags: a metrics sink with a
// 1024-record flight recorder, the default slowlog and tail sampler,
// and the degrade ladder on.
func newEngine(w workload) *serve.Engine {
	sink := obs.NewSink("perfbench")
	sink.Flight = obs.NewFlightRecorder(1024)
	return serve.NewEngine(serve.Config{
		BucketSize:  bucketSize,
		Seed:        engineSeed,
		Maintenance: w.maint,
		Obs:         sink,
	})
}

// runInProcess measures a drive workload against in-process engines.
func runInProcess(ctx context.Context, o options, p *plan, t *tally) (runStats, error) {
	var st runStats
	var sm samples
	a0, g0, p0 := memCounters()
	if err := driveLoop(ctx, p, 0, o.seconds, t, &sm, &st, nil); err != nil {
		return st, err
	}
	a1, g1, p1 := memCounters()
	st.allocBytes, st.gcCycles, st.gcPauseSec = a1-a0, g1-g0, p1-p0
	var err error
	if st.memPeakMB, err = peakRSSMB(fmt.Sprint(os.Getpid())); err != nil {
		return st, err
	}
	st.recall, st.recallN = sm.score(p.w.mode == quicknn.ModeExact, t)
	return st, nil
}

// answer is one request's outcome, kept until the phase is over so that
// checking it stays outside the timed search phase.
type answer struct {
	res   serve.QueryResult
	err   error
	start float64
	sec   float64
}

// driveLoop runs the closed loop. Each drive visit starts a fresh
// engine; the time from creating it to its first answered request is a
// set-up sample. Each step then searches the frame's points against the
// previous epoch and advances. probe, when non-nil, records spans and
// times the layers below after each phase.
func driveLoop(ctx context.Context, p *plan, rounds int, seconds float64,
	t *tally, sm *samples, st *runStats, probe *layerProbe) error {
	var e *serve.Engine
	closeEngine := func() error {
		if e == nil {
			return nil
		}
		err := e.Close(ctx)
		e = nil
		return err
	}
	answers := make([]answer, p.w.reqsPerStep)
	var opID int64
	start := func(d int) error {
		if err := closeEngine(); err != nil {
			return err
		}
		first := stepID{drive: d, j: 1}
		begin := now()
		e = newEngine(p.w)
		info, err := e.Advance(ctx, p.prev(first))
		t.record(opName(first, "set-up frame"), err)
		if err == nil {
			q := p.request(first, 0)
			var res serve.QueryResult
			res, err = e.Do(ctx, serve.Submission{Queries: q, Opts: p.opts(), Strict: true})
			if err == nil {
				err = checkResult(res, info.Epoch, q, p.prev(first))
			}
			t.record(opName(first, "set-up search"), err)
		}
		st.setup = append(st.setup, now()-begin)
		probe.startDrive(p, d)
		return nil
	}
	step := func(s stepID) error {
		epoch := e.Epoch()
		stepStart := now()
		phase := searchPhase(p, func(r int) {
			a := answer{start: now()}
			a.res, a.err = e.Do(ctx, serve.Submission{Queries: p.request(s, r), Opts: p.opts(), Strict: true})
			a.sec = now() - a.start
			answers[r] = a
		})
		for r, a := range answers {
			opID++
			q := p.request(s, r)
			err := a.err
			if err == nil {
				err = checkResult(a.res, epoch, q, p.prev(s))
			}
			t.record(opName(s, fmt.Sprintf("request %d", r)), err)
			st.latency = append(st.latency, a.sec)
			if err == nil {
				st.points += int64(len(q))
				sm.add(p, s, r, opID, a.res.Results)
			}
			probe.request(s, r, a)
			answers[r] = answer{}
		}
		prev := e.Index()
		probe.search(ctx, p, s, prev)
		allocs := probe.allocStart()
		advStart := now()
		info, err := e.Advance(ctx, p.frame(s))
		adv := now() - advStart
		probe.advance(s, advStart, adv, allocs)
		if err == nil {
			err = expectEpoch(info.Epoch, epoch+1)
		}
		t.record(opName(s, "advance"), err)
		probe.ingest(p, s, prev, stepStart, phase+adv)
		st.ingest = append(st.ingest, adv)
		st.frame = append(st.frame, phase+adv)
		st.searchSec += phase
		st.steps++
		return nil
	}
	err := runRounds(p, rounds, seconds, start, step)
	if cerr := closeEngine(); err == nil {
		err = cerr
	}
	return err
}
