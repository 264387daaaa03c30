// Package faults is the repository's fault-injection harness: a set of
// named injection points threaded through the serving engine's seams
// (submission, batch workers, index builds, epoch retirement, frame
// ingest) that can delay, stall or corrupt on command. It exists so the
// chaos tests and `make chaos-demo` can *prove* the degradation story —
// under injected slow builds, stuck workers and corrupt frames the
// engine must degrade, shed with typed errors, never deadlock, and
// recover (docs/robustness.md).
//
// The harness is build-tag-gated: in the default build every hook
// compiles to an immediate return (inject_disabled.go) so production
// binaries carry no injection machinery; `-tags quicknn_faults` arms the
// hooks (inject_enabled.go). A Plan is the always-compiled configuration
// — which points fire, how often, and with what delay — so flags and
// tests can parse and inspect plans in either build.
//
// Firing decisions are deterministic functions of (Seed, point, visit
// ordinal): a rule with Every=N fires on every Nth visit; a rule with
// Prob=p hashes the visit ordinal with a splitmix64 mix and fires when
// the resulting uniform variate falls below p. Re-running the same call
// sequence against the same plan reproduces the same fault schedule —
// no global RNG, nothing seeded from the clock.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Point names one injection seam in the serving path.
type Point uint8

const (
	// SubmitDelay delays request submission before it reaches the
	// bounded queue (slow client path / admission stall).
	SubmitDelay Point = iota
	// WorkerStall stalls a batch goroutine before it executes a
	// request (stuck worker).
	WorkerStall
	// BuildSlow slows the index build/update of a frame advance.
	BuildSlow
	// RetireDelay delays the epoch-retire callback (snapshot churn).
	RetireDelay
	// FrameCorrupt corrupts an ingested frame by truncating it to a
	// deterministic prefix — possibly empty, which must surface as the
	// typed quicknn.ErrEmptyInput, never a crash.
	FrameCorrupt

	numPoints = 5
)

// pointNames maps spec names onto points; String inverts it.
var pointNames = map[string]Point{
	"submit":  SubmitDelay,
	"stall":   WorkerStall,
	"build":   BuildSlow,
	"retire":  RetireDelay,
	"corrupt": FrameCorrupt,
}

// String returns the point's spec name.
func (p Point) String() string {
	for name, pt := range pointNames {
		if pt == p {
			return name
		}
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// Rule configures one injection point. The zero rule is inert.
type Rule struct {
	// Prob is the chance a visit fires, in [0, 1]; evaluated
	// deterministically from (Seed, point, visit). Ignored when Every
	// is set.
	Prob float64
	// Every fires on every Every-th visit (1 = always); 0 selects
	// probabilistic firing via Prob.
	Every uint64
	// Delay is how long a firing visit sleeps (the delay points); the
	// corruption point ignores it.
	Delay time.Duration
}

// active reports whether the rule can ever fire.
func (r Rule) active() bool { return r.Every > 0 || r.Prob > 0 }

// Plan is one configured fault schedule: a rule per point plus the seed
// that makes probabilistic rules reproducible. A nil *Plan is the no-op
// schedule; every hook tolerates it, so the engine threads one
// unconditionally. Visit and fire counters are exported so chaos tests
// can assert the schedule actually ran.
type Plan struct {
	seed   uint64
	rules  [numPoints]Rule
	visits [numPoints]atomic.Uint64
	fired  [numPoints]atomic.Uint64
}

// New returns an empty (inert) plan with the given seed.
func New(seed uint64) *Plan { return &Plan{seed: seed} }

// Set installs the rule for one point.
func (p *Plan) Set(pt Point, r Rule) *Plan {
	p.rules[pt] = r
	return p
}

// Rule returns the rule installed for the point.
func (p *Plan) Rule(pt Point) Rule {
	if p == nil {
		return Rule{}
	}
	return p.rules[pt]
}

// Visits returns how many times the point's hook has been evaluated.
func (p *Plan) Visits(pt Point) uint64 {
	if p == nil {
		return 0
	}
	return p.visits[pt].Load()
}

// Fired returns how many times the point has actually fired.
func (p *Plan) Fired(pt Point) uint64 {
	if p == nil {
		return 0
	}
	return p.fired[pt].Load()
}

// Seed returns the plan's determinism seed.
func (p *Plan) Seed() uint64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// decide is the deterministic firing function shared by every hook.
func (p *Plan) decide(pt Point, r Rule, visit uint64) bool {
	if r.Every > 0 {
		return visit%r.Every == 0
	}
	// splitmix64 over (seed, point, visit): a uniform 53-bit variate.
	x := p.seed ^ (uint64(pt)+1)*0x9e3779b97f4a7c15 ^ visit*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < r.Prob
}

// ParseSpec parses the quicknnd -faults syntax into a plan:
//
//	point:key=value[,key=value...][;point:...]
//
// with points submit|stall|build|retire|corrupt and keys p (probability
// in [0,1]), every (fire each Nth visit), delay (Go duration, e.g. 2ms).
// Example: "submit:p=0.2,delay=1ms;stall:every=3,delay=5ms;corrupt:p=0.5".
func ParseSpec(spec string, seed uint64) (*Plan, error) {
	plan := New(seed)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, params, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q lacks a ':' (want point:key=value,...)", clause)
		}
		pt, ok := pointNames[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("faults: unknown point %q (want submit|stall|build|retire|corrupt)", name)
		}
		var rule Rule
		for _, kv := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("faults: parameter %q lacks '=' in clause %q", kv, clause)
			}
			switch key {
			case "p":
				prob, err := strconv.ParseFloat(val, 64)
				if err != nil || prob < 0 || prob > 1 {
					return nil, fmt.Errorf("faults: p=%q is not a probability in [0,1]", val)
				}
				rule.Prob = prob
			case "every":
				every, err := strconv.ParseUint(val, 10, 64)
				if err != nil || every == 0 {
					return nil, fmt.Errorf("faults: every=%q is not a positive integer", val)
				}
				rule.Every = every
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faults: delay=%q is not a non-negative duration", val)
				}
				rule.Delay = d
			default:
				return nil, fmt.Errorf("faults: unknown parameter %q (want p|every|delay)", key)
			}
		}
		if !rule.active() {
			return nil, fmt.Errorf("faults: clause %q never fires (set p or every)", clause)
		}
		plan.rules[pt] = rule
	}
	return plan, nil
}

// String renders the plan back in spec syntax (points in ordinal order),
// for logs and the chaos selftest banner.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var clauses []string
	for pt := Point(0); pt < numPoints; pt++ {
		r := p.rules[pt]
		if !r.active() {
			continue
		}
		var params []string
		if r.Every > 0 {
			params = append(params, fmt.Sprintf("every=%d", r.Every))
		} else {
			params = append(params, fmt.Sprintf("p=%g", r.Prob))
		}
		if r.Delay > 0 {
			params = append(params, "delay="+r.Delay.String())
		}
		clauses = append(clauses, pt.String()+":"+strings.Join(params, ","))
	}
	return strings.Join(clauses, ";")
}
