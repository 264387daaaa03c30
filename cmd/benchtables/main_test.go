package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/quicknn/quicknn/internal/bench"
)

var update = flag.Bool("update", false, "rewrite the golden file")

var (
	completedRE = regexp.MustCompile(`(?m)^\[(\S+) completed in [^\]]*\]$`)
	lastNumRE   = regexp.MustCompile(`\d+\s*$`)
)

// maskHostTimed blanks the two host-timed parts of a benchtables run —
// every experiment's "[id completed in d]" footer and annbench's
// Queries/s column (with its width-dependent padding) — so that what is
// left is the simulator's and the accuracy experiments' deterministic
// output. `make anchors` applies the same masking (with sed) to a full
// run.
func maskHostTimed(s string) string {
	s = completedRE.ReplaceAllString(s, "[$1 completed]")
	lines := strings.Split(s, "\n")
	inAnn := false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "Method / operating point"):
			inAnn = true
		case strings.HasPrefix(l, "("):
			inAnn = false
		case inAnn:
			lines[i] = lastNumRE.ReplaceAllString(l, "-")
		}
	}
	return strings.Join(lines, "\n")
}

// TestQuickAnchorsGolden pins the paper anchors: every simulated cycle
// count, byte count, utilization and accuracy of `benchtables -quick
// -exp all` must match the golden file byte for byte. A change that
// moves an anchor must regenerate this file (go test ./cmd/benchtables
// -run Golden -update), docs/results-full.txt (make anchors) and the
// EXPERIMENTS.md figures together, and say why.
func TestQuickAnchorsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, bench.All(), bench.Options{Seed: 1, Quick: true}, ""); err != nil {
		t.Fatal(err)
	}
	got := maskHostTimed(buf.String())
	path := filepath.Join("testdata", "quick_all.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("anchors moved at line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

func TestMaskHostTimed(t *testing.T) {
	in := "[fig3 completed in 45ms]\n" +
		"Method / operating point   Recall    Queries/s   \n" +
		"k-d tree (checks=1024)     99.9      268000      \n" +
		"(throughput is host-dependent)\n" +
		"0         64.2      242            1.0       \n"
	want := "[fig3 completed]\n" +
		"Method / operating point   Recall    Queries/s   \n" +
		"k-d tree (checks=1024)     99.9      -\n" +
		"(throughput is host-dependent)\n" +
		"0         64.2      242            1.0       \n"
	if got := maskHostTimed(in); got != want {
		t.Fatalf("maskHostTimed:\n got %q\nwant %q", got, want)
	}
}
