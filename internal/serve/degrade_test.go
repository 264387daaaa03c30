package serve

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/degrade"
	"github.com/quicknn/quicknn/internal/obs"
)

// pressuredEngine builds a white-box engine (no batcher) whose queue can
// be filled by hand, with a controller tuned to step on every hot
// observation and never decay on its own.
func pressuredEngine(queueDepth int, dcfg degrade.Config) *Engine {
	cfg := Config{QueueDepth: queueDepth}.withDefaults()
	e := &Engine{
		cfg:   cfg,
		m:     newMetrics(&obs.Sink{Metrics: obs.NewRegistry()}),
		queue: make(chan *request, queueDepth),
		sem:   make(chan struct{}, cfg.Workers),
		stop:  make(chan struct{}),
		live:  make(map[uint64]struct{}),
	}
	e.deg = degrade.NewController(dcfg)
	return e
}

// fillQueue stuffs the submission queue to the given depth so QueueFrac
// reads as depth/capacity without a batcher draining it.
func fillQueue(e *Engine, depth int) {
	for i := 0; i < depth; i++ {
		e.queue <- newRequest(context.Background(), []quicknn.Point{{X: 1}}, quicknn.QueryOptions{K: 1})
	}
}

// TestAdmitWalksLadderToShed drives admission under a saturated queue:
// each observation climbs exactly one rung, option rewrites accumulate
// rung by rung, and the top rung refuses with the typed ErrShed.
func TestAdmitWalksLadderToShed(t *testing.T) {
	e := pressuredEngine(4, degrade.Config{StepUp: 1e-9, StepDown: 1e9})
	fillQueue(e, 4) // QueueFrac = 1: every observation is hot

	exact := quicknn.QueryOptions{K: 16, Mode: quicknn.ModeExact}
	wantActs := []degrade.Actions{
		0, // level 1 clamps only explicit ModeChecks budgets
		degrade.ActForceChecks,
		degrade.ActForceChecks | degrade.ActClampK,
	}
	for step, want := range wantActs {
		opts := exact
		level, acts, err := e.admit(&opts, false)
		if err != nil {
			t.Fatalf("step %d: admit: %v", step, err)
		}
		if got, wantLvl := level, degrade.Level(step+1); got != wantLvl {
			t.Fatalf("step %d: level = %v, want %v", step, got, wantLvl)
		}
		if acts != want {
			t.Fatalf("step %d: actions = %b, want %b", step, acts, want)
		}
		if want.Has(degrade.ActForceChecks) && opts.Mode != quicknn.ModeChecks {
			t.Fatalf("step %d: ModeExact not forced to ModeChecks", step)
		}
		if want.Has(degrade.ActClampK) && opts.K != e.deg.Config().MaxK {
			t.Fatalf("step %d: K = %d, want clamped to %d", step, opts.K, e.deg.Config().MaxK)
		}
	}
	// Fourth hot observation reaches LevelShed: typed refusal.
	opts := exact
	if _, _, err := e.admit(&opts, false); !errors.Is(err, ErrShed) {
		t.Fatalf("admit at shed rung = %v, want ErrShed", err)
	}
	if got := e.m.degShed.Value(); got != 1 {
		t.Fatalf("quicknn_degrade_shed_total = %d, want 1", got)
	}
	if got := e.m.degTransitions.With("up").Value(); got != 4 {
		t.Fatalf("up transitions = %d, want 4", got)
	}
}

// TestAdmitStrictRefusesDegraded checks the strict contract: a caller
// demanding full fidelity gets the typed ErrDegraded the moment the
// ladder is engaged, while a tolerant caller is admitted degraded.
func TestAdmitStrictRefusesDegraded(t *testing.T) {
	e := pressuredEngine(4, degrade.Config{StepUp: 1e-9, StepDown: 1e9})
	fillQueue(e, 4)

	opts := quicknn.QueryOptions{K: 2}
	if _, _, err := e.admit(&opts, false); err != nil {
		t.Fatalf("first hot admit: %v", err)
	}
	strict := quicknn.QueryOptions{K: 2}
	if _, _, err := e.admit(&strict, true); !errors.Is(err, ErrDegraded) {
		t.Fatalf("strict admit on engaged ladder = %v, want ErrDegraded", err)
	}
	if got := e.m.degStrict.Value(); got != 1 {
		t.Fatalf("quicknn_degrade_strict_rejects_total = %d, want 1", got)
	}
	tolerant := quicknn.QueryOptions{K: 2}
	if _, _, err := e.admit(&tolerant, false); err != nil {
		t.Fatalf("tolerant admit on engaged ladder: %v", err)
	}
}

// TestDegradeLevelPollRecovers checks the idle-recovery path: once
// pressure stops, polling DegradeLevel (what /v1/readyz and the metrics
// endpoint do) walks the ladder back to LevelNone within the bounded
// MaxLevel×StepDown calm interval — no traffic required.
func TestDegradeLevelPollRecovers(t *testing.T) {
	e := pressuredEngine(4, degrade.Config{StepUp: 1e-9, StepDown: 5e-3})
	fillQueue(e, 4)
	for i := 0; i < 4; i++ {
		opts := quicknn.QueryOptions{K: 1}
		e.admit(&opts, false)
	}
	if got := e.DegradeLevel(); got != degrade.LevelShed {
		t.Fatalf("level after 4 hot admits = %v, want shed", got)
	}
	// Drain the queue: pressure is gone, decay is purely time-based.
	for len(e.queue) > 0 {
		<-e.queue
	}
	deadline := time.After(2 * time.Second)
	for e.DegradeLevel() != degrade.LevelNone {
		select {
		case <-deadline:
			t.Fatalf("ladder stuck at %v after calm deadline", e.DegradeLevel())
		case <-time.After(time.Millisecond):
		}
	}
	if got := e.m.degTransitions.With("down").Value(); got != 4 {
		t.Fatalf("down transitions = %d, want 4", got)
	}
	if got := e.m.degLevel.Value(); got != 0 {
		t.Fatalf("quicknn_degrade_level gauge = %v, want 0", got)
	}
}

// TestQueryBatchExStampsResultAndFlight drives a real engine into
// degradation via the tail-budget signal and checks the public contract:
// Do reports the level and actions, the answer's flight record
// carries the stamped degrade level, and tolerant queries keep getting
// answers the whole way — tail-only pressure plateaus at the clamp-k
// rung (shed requires genuine queue backlog), so nothing is refused.
func TestQueryBatchExStampsResultAndFlight(t *testing.T) {
	sink := obs.NewSink("degrade-test")
	sink.Flight = obs.NewFlightRecorder(64)
	e := NewEngine(Config{
		Workers: 2,
		Obs:     sink,
		Degrade: degrade.Config{
			TailBudget: 1e-12, // any observed latency is over budget
			StepUp:     1e-9,
			StepDown:   1e9, // no decay during the test
		},
	})
	defer e.Close(context.Background())
	rng := rand.New(rand.NewSource(7))
	mustAdvance(t, e, 1, 500, rng)

	// First request seeds the tail estimate (no pressure yet: estimate
	// is zero when admission runs), then every later request observes an
	// over-budget tail and climbs one rung per admission.
	if _, err := e.Do(context.Background(), Submission{Queries: taggedFrame(1, 2, rng), Opts: quicknn.QueryOptions{K: 2}}); err != nil {
		t.Fatalf("seed request: %v", err)
	}
	var sawForce bool
	for i := 0; i < 3; i++ {
		res, err := e.Do(context.Background(), Submission{Queries: taggedFrame(1, 1, rng),
			Opts: quicknn.QueryOptions{K: 16, Mode: quicknn.ModeExact}})
		if err != nil {
			t.Fatalf("degraded request %d: %v", i, err)
		}
		if res.Level != degrade.Level(i+1) {
			t.Fatalf("request %d: level = %v, want %v", i, res.Level, degrade.Level(i+1))
		}
		if res.Epoch != 1 {
			t.Fatalf("request %d: epoch = %d, want 1", i, res.Epoch)
		}
		if res.Actions.Has(degrade.ActForceChecks) {
			sawForce = true
		}
	}
	if !sawForce {
		t.Fatal("no request reported ActForceChecks at level >= 2")
	}
	// The fourth admission holds at clamp-k: with no queue backlog the
	// tail signal alone never unlocks the shed rung, so tolerant callers
	// keep getting (cheap) answers.
	res, err := e.Do(context.Background(), Submission{Queries: taggedFrame(1, 1, rng), Opts: quicknn.QueryOptions{K: 2}})
	if err != nil {
		t.Fatalf("tail-only plateau request: %v", err)
	}
	if res.Level != degrade.LevelClampK {
		t.Fatalf("tail-only plateau level = %v, want clamp-k", res.Level)
	}
	// Flight records carry the stamped ladder level.
	var maxStamp uint8
	for _, rec := range e.FlightRecords() {
		if rec.Degrade > maxStamp {
			maxStamp = rec.Degrade
		}
	}
	if maxStamp < uint8(degrade.LevelForceChecks) {
		t.Fatalf("max flight-record degrade stamp = %d, want >= %d", maxStamp, degrade.LevelForceChecks)
	}
	// The metric families surfaced the episode.
	snap := sink.Metrics.Snapshot()
	if fam, ok := snap.Find("quicknn_degrade_transitions_total"); !ok || len(fam.Series) == 0 {
		t.Fatal("quicknn_degrade_transitions_total missing")
	}
	if fam, ok := snap.Find("quicknn_degrade_shed_total"); ok && len(fam.Series) > 0 && fam.Series[0].Counter != 0 {
		t.Fatalf("quicknn_degrade_shed_total = %d, want 0 (no backlog, no shed)", fam.Series[0].Counter)
	}
}

// TestDegradeDisabledIsInert pins the opt-out: a disabled controller
// admits everything at full fidelity no matter the pressure.
func TestDegradeDisabledIsInert(t *testing.T) {
	e := pressuredEngine(2, degrade.Config{Disabled: true})
	fillQueue(e, 2)
	for i := 0; i < 20; i++ {
		opts := quicknn.QueryOptions{K: 64, Mode: quicknn.ModeExact}
		level, acts, err := e.admit(&opts, true)
		if err != nil || level != degrade.LevelNone || acts != 0 {
			t.Fatalf("disabled admit %d = (%v, %b, %v), want (none, 0, nil)", i, level, acts, err)
		}
		if opts.K != 64 || opts.Mode != quicknn.ModeExact {
			t.Fatalf("disabled admit %d rewrote options: %+v", i, opts)
		}
	}
	if e.DegradeLevel() != degrade.LevelNone {
		t.Fatal("disabled controller reported a level")
	}
}
