package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/quicknn/quicknn"
)

// TestSmoke runs every workload for one round, plus one traced run, and
// requires a correct, failure-free result carrying every metric
// BENCHMARK.json names. It builds quicknnd from this tree.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds quicknnd and replays whole drives")
	}
	dir := t.TempDir()
	daemon := filepath.Join(dir, "quicknnd")
	build := exec.Command("go", "build", "-o", daemon, "github.com/quicknn/quicknn/cmd/quicknnd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build quicknnd: %v\n%s", err, out)
	}
	// Generate the drive here: a test binary cannot re-execute itself
	// as the frame generator.
	if err := writeDrives(framesDir(dir, 1), 1); err != nil {
		t.Fatal(err)
	}
	spec := readSpec(t)
	for _, tc := range []struct {
		workload string
		trace    bool
	}{
		{"drive_incremental", false},
		{"drive_rebuild_exact", false},
		{"wire_search", false},
		{"wire_search", true},
	} {
		args := []string{"--workload", tc.workload, "--seed", "1", "--seconds", "0.01",
			"--quicknnd", daemon, "--work-dir", dir, "--trace", "0"}
		want := spec.EndToEnd
		if tc.trace {
			args[len(args)-1] = "1"
			want = spec.PerLayer
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d\n%s", tc.workload, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line: %v", tc.workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
				tc.workload, tc.trace, res.Correct, res.Attempted, res.Failed, stderr.String())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", tc.workload, tc.trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", tc.workload, tc.trace, m.Name, got, m.Unit)
			}
			if !tc.trace && !(got.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", tc.workload, m.Name, got.Value)
			}
		}
		if recall := res.Metrics["recall_at_8"].Value; !tc.trace && (recall > 1 ||
			tc.workload == "drive_rebuild_exact" && recall != 1) {
			t.Errorf("%s: recall_at_8 = %v", tc.workload, recall)
		}
	}
}

// benchSpec is the part of BENCHMARK.json the smoke test checks.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCheckAnswerCatchesFaults feeds the answer check one correct list
// and one copy per kind of fault.
func TestCheckAnswerCatchesFaults(t *testing.T) {
	ref := make([]quicknn.Point, 20)
	for i := range ref {
		ref[i] = quicknn.Point{X: float32(i), Y: 0.5, Z: -1}
	}
	q := quicknn.Point{X: 0.1, Y: 0.5, Z: -1}
	good := make([]quicknn.Neighbor, knn)
	for i := range good {
		good[i] = quicknn.Neighbor{Index: i, Point: ref[i], DistSq: distSq(q, ref[i])}
	}
	if err := checkAnswer(q, good, ref); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	faults := map[string]func([]quicknn.Neighbor) []quicknn.Neighbor{
		"short": func(n []quicknn.Neighbor) []quicknn.Neighbor { return n[:knn-1] },
		"out of range": func(n []quicknn.Neighbor) []quicknn.Neighbor {
			n[3].Index = len(ref)
			return n
		},
		"repeated": func(n []quicknn.Neighbor) []quicknn.Neighbor {
			n[4] = n[3]
			return n
		},
		"unsorted": func(n []quicknn.Neighbor) []quicknn.Neighbor {
			n[2], n[5] = n[5], n[2]
			return n
		},
		"distance": func(n []quicknn.Neighbor) []quicknn.Neighbor {
			n[6].DistSq *= 1 + 1e-15
			return n
		},
		"point": func(n []quicknn.Neighbor) []quicknn.Neighbor {
			n[7].Point.Z = 0
			return n
		},
	}
	for name, corrupt := range faults {
		bad := corrupt(append([]quicknn.Neighbor(nil), good...))
		if err := checkAnswer(q, bad, ref); err == nil || !isWrong(err) {
			t.Errorf("%s: check returned %v, want a wrong answer", name, err)
		}
	}
}

func isWrong(err error) bool {
	_, ok := err.(wrongAnswer)
	return ok
}

// TestScoreCountsTiesAndFailsInexact scores a hand-made sample: an
// answer holding the other of two points tied at the eighth distance
// counts as whole, one holding a farther point as seven of eight, and
// the farther one fails its request when exactness is required.
func TestScoreCountsTiesAndFailsInexact(t *testing.T) {
	var ref []quicknn.Point
	for _, x := range []float32{0, 1, -1, 2, -2, 3, -3, 4, -4, 5} {
		ref = append(ref, quicknn.Point{X: x})
	}
	want := bruteForce(ref, quicknn.Point{}) // 0 1 1 4 4 9 9 16: ±4 tie at the eighth
	miss := want
	miss[knn-1] = distSq(quicknn.Point{}, ref[9])
	sm := samples{items: []sample{{ref: ref, got: want, op: 1}, {ref: ref, got: miss, op: 2}}}
	var tl tally
	recall, n := sm.score(false, &tl)
	if n != 2 || recall != float64(2*knn-1)/float64(2*knn) || tl.failed.Load() != 0 {
		t.Errorf("approx scoring: recall %v over %d, %d failed", recall, n, tl.failed.Load())
	}
	sm.score(true, &tl)
	if tl.failed.Load() != 1 || tl.wrong.Load() != 1 {
		t.Errorf("exact scoring failed %d, wrong %d; want 1 and 1", tl.failed.Load(), tl.wrong.Load())
	}
}

// TestPlanReplaysBetweenAdjacentFrames checks the back-and-forth replay:
// every step moves to a neighbouring frame and a round ends where it
// began.
func TestPlanReplaysBetweenAdjacentFrames(t *testing.T) {
	drives := make([][][]quicknn.Point, drivesPerRun)
	for d := range drives {
		drives[d] = make([][]quicknn.Point, driveFrames)
	}
	p := newPlan(workloads[0], drives)
	for j := 1; j <= p.period; j++ {
		if d := p.frameAt(j) - p.frameAt(j-1); d != 1 && d != -1 {
			t.Fatalf("step %d moves from frame %d to %d", j, p.frameAt(j-1), p.frameAt(j))
		}
	}
	if p.frameAt(p.period) != 0 || p.frameAt(driveFrames-1) != driveFrames-1 {
		t.Errorf("visit of %d steps does not turn at the last frame and end at the first", p.period)
	}
}
